"""Relations that need no second solver: a rewritten instance with the same
meaning must get the same answer from every registry solver.

Colour lists are sets.  Rewriting each one in another order or container
(a list or tuple with repeats, a set, a frozenset built in another order)
must change no solver's status, objective or witness.  From k = 8 on, two
equal frozensets can iterate in different orders (colours c and c + 8 share
a hash slot), so the instances draw k up to 12; a reader that iterates a
list unsorted and lets the order pick a colour fails here.
"""

import dataclasses
import random
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from lbcolor import solve_with
from lbcolor.classify import SOLVERS
from lbcolor.errors import OracleLimitError, UsageError
from lbcolor.instance import bits

from corpus import (
    assert_outcome,
    bounds_of,
    random_cograph_edges,
    random_edge_instance,
    random_vertex_instance,
    relabel,
)

# past this many list combinations the oracle's enumeration is left out
ORACLE_COMBINATIONS = 2_000


def small_list(rng, k, low=None):
    """One to three colours; from k = 9 on, most hold the pair low, low + 8
    (1, 9 or 2, 10; drawn when ``low`` is None), so that elements alike in
    part and weight can trade its colours."""
    if k > 8 and rng.random() < 0.75:
        c = low if low is not None and low + 8 <= k else rng.randint(1, min(2, k - 8))
        return frozenset({c, c + 8, rng.randint(1, k)})
    return frozenset(rng.sample(range(1, k + 1), rng.randint(1, min(k, 3))))


def shaped_instance(rng, shape, k):
    """An instance on a drawn graph of ``shape`` with ``small_list`` lists:
    only a frozenset of at most four colours has a table small enough for c
    and c + 8 to share a slot.  Its bounds are those of a greedy coloring:
    in a random order each element takes a random colour of its list that
    no coloured conflict holds, any colour of its list when none is free;
    so the instance is feasible whenever that coloring is proper."""
    if shape == "edge":
        inst = random_edge_instance(rng, n_max=5, m_max=6, k=k, w_max=2, profit=True)
    else:
        n = rng.randint(1, 9)
        if shape == "split":
            clique = rng.randint(1, min(n, 4))
            edges = {(u, v) for u in range(clique) for v in range(u + 1, clique)}
            edges |= {(u, v) for u in range(clique) for v in range(clique, n) if rng.random() < 0.5}
        elif shape == "complete-bipartite":
            a = rng.randint(1, max(1, n - 1))
            edges = {(u, v) for u in range(a) for v in range(a, n)}
        elif shape == "cograph":
            edges = random_cograph_edges(rng, n)
        else:  # any graph: the tree-decomposition DP and the forced-colour reduction
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4}
        edges = relabel(rng, n, edges)
        inst = random_vertex_instance(rng, n=n, k=k, w_max=rng.randint(1, 2), edges=edges, profit=True)
    # on K(a, b) each side gets its own pair, so that a side can hold both
    # colours of its pair in a proper coloring
    sides = inst.complete_bipartite_sides if shape == "complete-bipartite" else None
    lows = [None] * len(inst.allowed) if sides is None else [1 + (v in sides[1]) for v in range(inst.n)]
    lists = [small_list(rng, k, low) for low in lows]
    cols = [0] * len(lists)
    for e in rng.sample(range(len(lists)), len(lists)):
        taken = {cols[f] for f in bits(inst.conflict_masks[e])}
        cols[e] = rng.choice(sorted(lists[e] - taken) or sorted(lists[e]))
    return dataclasses.replace(inst, allowed=lists, bounds=bounds_of(k, inst.p, inst.part_of, inst.weight, cols))


def rewritten(rng, colors):
    """``colors`` descending or shuffled, in a drawn container, repeats in a
    list or tuple.  Built descending, a frozenset that holds c and c + 8
    iterates in another order than one built ascending."""
    seq = sorted(colors, reverse=True)
    if rng.random() < 0.5:
        rng.shuffle(seq)
    kind = rng.randrange(4)
    if kind < 2:
        seq += rng.choices(seq, k=rng.randint(0, 3))
        return list(seq) if kind == 0 else tuple(seq)
    return set(seq) if kind == 2 else frozenset(seq)


def answer(name, inst, objective):
    """The outcome's status, objective and witness, or the error it raised."""
    try:
        out = solve_with(name, inst, objective)
    except (UsageError, OracleLimitError) as err:
        return type(err), str(err)
    assert_outcome(inst, out)
    return out.status, out.objective, out.witness


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["any", "split", "complete-bipartite", "cograph", "edge"]),
    k=st.sampled_from(range(1, 13)),
)
def test_list_order_and_container_change_no_answer(seed, shape, k):
    rng = random.Random(seed)
    inst = shaped_instance(rng, shape, k)
    ascending = dataclasses.replace(inst, allowed=[sorted(colors) for colors in inst.allowed])
    other = dataclasses.replace(inst, allowed=[rewritten(rng, colors) for colors in inst.allowed])
    assert other.allowed == ascending.allowed
    for name in SOLVERS:
        if name == "oracle" and prod(map(len, inst.allowed)) > ORACLE_COMBINATIONS:
            continue
        for objective in ("decide", "maximize", "minimize"):
            assert answer(name, other, objective) == answer(name, ascending, objective), (name, objective)
