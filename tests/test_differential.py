"""Solvers against each other past the oracle's enumeration cap.

Hypothesis draws seeds for the corpus samplers on graphs of 10-25 vertices:
forests, disjoint small cographs and split graphs with a small clique, so
that the tree-decomposition DP stays small enough to run on every instance.
In most of them k^m exceeds the oracle's 1e7 (forests, at two colors, are
the exception).  Complete graphs K_3 to K_8 with n <= k <= 8 check the
``complete`` solver's assignment against the DPs on the small assignment
problems it builds.  Complete bipartite graphs K(a, b) with sides of 1 to 8
and k <= 9 check the ``complete-bipartite`` search against the cotree DP,
and against the tree-decomposition DP where its width min(a, b) is at most
2.  Two-colour instances on trees plus chords, even cycles mostly and an
odd cycle in about a quarter of the draws, check ``components-k2`` on graphs
with cycles; an odd cycle must make every solver answer infeasible.
Forests plus up to twelve isolated vertices, and small cores (cycles with
chords, sharing a vertex or an edge) with pendant and free trees hung off
them, in both modes, check the pendant fold and the meet at the target
(every element outside the 2-core folded into per-colour rows, the trees
that hang from nothing as steps of one row, components under one empty
root): against the oracle inside its cap, and past it against the DP over a
supplied decomposition that covers every vertex, which folds nothing.
Three-dimensional matching sources of three elements per set and four or
five triples, a perfect matching planted in about half, become split graphs
on 13 or 14 vertices with k = 4 or 5 colors (``gen_from_three_dim_matching``),
on which ``split-singular`` must agree with ``split-kfixed`` and with the
source's own answer.  Every applicable solver must reach the same verdict,
the DPs and ``complete`` the same maximum profit, and every witness must
be valid.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcolor import (
    ClassReport,
    ColoringInstance,
    ThreeDimMatchingSource,
    auto_solver_name,
    brute_force_solve,
    build_cotree,
    build_nice_decomposition,
    dp_cograph,
    dp_edge,
    dp_vertex,
    gen_from_three_dim_matching,
    solve_with,
)
from lbcolor import treewidth
from lbcolor.instance import adjacency_masks
from lbcolor.treewidth import min_fill_order, peel

from corpus import (
    assert_outcome,
    bounds_from_assignment,
    conflict_closure_sets,
    cycles_with_pendant_trees,
    dp_tables,
    isolated_vertices,
    loose_sums,
    order_to_raw,
    plant,
    random_cograph_edges,
    random_edge_instance,
    random_vertex_instance,
    three_dim_matching_answer,
    two_core_edges,
)

SEEDS = st.integers(0, 2**32 - 1)
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True)


def relabel(rng, n, edges):
    label = rng.sample(range(n), n)
    return tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))


def tree_edges(rng, n):
    return relabel(rng, n, [(rng.randrange(v), v) for v in range(1, n)])


def tree_plus_chords(rng, n, odd):
    """A random tree plus up to four chords across its two sides (each closes
    an even cycle) and, when ``odd``, one chord inside a side (an odd cycle)."""
    parent = [rng.randrange(v) for v in range(1, n)]
    side = [0] * n
    for v in range(1, n):
        side[v] = side[parent[v - 1]] ^ 1
    edges = {(parent[v - 1], v) for v in range(1, n)}
    cross = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v] and (u, v) not in edges]
    edges |= set(rng.sample(cross, min(rng.randint(1, 4), len(cross))))
    if odd:  # a tree on n >= 3 vertices has a side of two or more
        edges.add(rng.choice([(u, v) for u in range(n) for v in range(u + 1, n) if side[u] == side[v]]))
    return relabel(rng, n, edges)


def cograph_edges(rng, n, block_max, apex):
    """Disjoint random cographs of at most ``block_max`` vertices, with
    probability ``apex`` under one universal vertex."""
    top = n - 1 if rng.random() < apex else n
    edges, start = set(), 0
    while start < top:
        size = min(rng.randint(1, block_max), top - start)
        edges |= {(u + start, v + start) for u, v in random_cograph_edges(rng, size)}
        start += size
    if top < n:
        edges |= {(v, top) for v in range(top)}
    return relabel(rng, n, edges)


def split_edges(rng, n, clique, degree_max, clique_degree=None):
    """A clique on ``clique`` vertices; every other vertex sees 1 to
    ``degree_max`` of them while no clique vertex has more than
    ``clique_degree`` neighbors, and none once they all have."""
    room = [n if clique_degree is None else clique_degree - (clique - 1)] * clique
    edges = {(u, v) for u in range(clique) for v in range(u + 1, clique)}
    for v in range(clique, n):
        open_ = [u for u in range(clique) if room[u] > 0]
        for u in rng.sample(open_, min(rng.randint(1, degree_max), len(open_))):
            edges.add((u, v))
            room[u] -= 1
    return relabel(rng, n, edges)


def check_agreement(inst, solvers, objectives):
    assert len(solvers) >= 2
    for objective in objectives:
        outs = {name: solve_with(name, inst, objective) for name in solvers}
        for out in outs.values():
            assert_outcome(inst, out)
        assert len({out.status for out in outs.values()}) == 1, {n: o.status for n, o in outs.items()}
        if objective == "maximize":
            assert len({out.objective for out in outs.values()}) == 1, {n: o.objective for n, o in outs.items()}


def vertex_solvers(inst):
    report = ClassReport(inst)
    sides = inst.complete_bipartite_sides
    # on K(a, b) the tree-decomposition DP has width min(a, b)
    decide = ["treewidth"] if sides is None or min(map(len, sides)) <= 2 else []
    if report.complete:
        decide.append("complete")
    if report.complete_bipartite:
        decide.append("complete-bipartite")
    if report.cograph:
        decide.append("cograph")
    if report.split:
        decide.append("split-kfixed")
    if inst.k == 2:
        decide.append("components-k2")
    return decide, [name for name in decide if name in ("treewidth", "cograph", "complete")]


def vertex_instance(rng, shape):
    if shape == "complete":
        n = rng.randint(3, 8)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
        return random_vertex_instance(
            rng, n=n, k=rng.randint(n, 8), edges=edges, p_max=2, w_max=2, profit=True,
            planted=rng.random() < 0.8,
        )
    if shape == "complete-bipartite":
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        edges = relabel(rng, a + b, [(u, a + v) for u in range(a) for v in range(b)])
        return random_vertex_instance(
            rng, n=a + b, k=rng.randint(2, 9), edges=edges, p_max=2, w_max=2, profit=True,
            planted=rng.random() < 0.8,
        )
    n = rng.randint(10, 25)
    k = 2 if shape in ("forest", "bipartite-k2") else 3
    if shape == "bipartite-k2":
        edges = tree_plus_chords(rng, n, odd=rng.random() < 0.25)
    elif shape == "cograph":
        edges = cograph_edges(rng, n, block_max=4, apex=0.2)
    elif shape == "split":
        edges = split_edges(rng, n, clique=rng.randint(1, 4), degree_max=2)
    else:  # forest, 2 colors: components-k2 applies
        edges = tree_edges(rng, n)[: n - rng.randint(1, 4)]
    return random_vertex_instance(
        rng, n=n, k=k, edges=edges, p_max=2, w_max=2, profit=True, planted=rng.random() < 0.8
    )


@pytest.mark.parametrize("shape", ["cograph", "split", "forest", "complete", "complete-bipartite", "bipartite-k2"])
@EXAMPLES
@given(seed=SEEDS)
def test_vertex_solvers_agree_past_the_oracle_cap(shape, seed):
    inst = vertex_instance(random.Random(seed), shape)
    decide, maximize = vertex_solvers(inst)
    check_agreement(inst, decide, ["decide"])
    if shape == "bipartite-k2" and not nx.is_bipartite(nx.Graph(inst.edges)):
        assert not solve_with("treewidth", inst).feasible  # the others agreed with it
    if len(maximize) > 1:
        check_agreement(inst, maximize, ["maximize"])


def three_dim_matching_source(rng, size=3):
    """Four or five random triples over ``size`` elements per set; in about
    half of the draws the first ``size`` of them, before shuffling, form a
    perfect matching."""
    triples = [tuple(rng.randint(1, size) for _ in range(3)) for _ in range(rng.randint(4, 5))]
    if rng.random() < 0.5:
        ys, zs = rng.sample(range(1, size + 1), size), rng.sample(range(1, size + 1), size)
        triples[:size] = zip(range(1, size + 1), ys, zs)
    rng.shuffle(triples)
    return ThreeDimMatchingSource(size=size, triples=tuple(triples))


@EXAMPLES
@given(seed=SEEDS)
def test_split_singular_agrees_with_split_kfixed(seed):
    src = three_dim_matching_source(random.Random(seed))
    inst = gen_from_three_dim_matching(src).instance
    check_agreement(inst, ["split-singular", "split-kfixed"], ["decide"])
    assert solve_with("split-singular", inst).feasible == three_dim_matching_answer(src.size, src.triples)


def edge_instance(rng, shape):
    # degrees stay within k, or the instance is trivially infeasible
    n = rng.randint(10, 25)
    if shape == "cograph":
        k = 4
        edges = cograph_edges(rng, n, block_max=5, apex=0)
    else:
        k = 5
        edges = split_edges(rng, n, clique=3, degree_max=1, clique_degree=k)
    return random_edge_instance(
        rng, n=n, edges=edges, k=k, p_max=2, w_max=2, profit=True, planted=rng.random() < 0.8
    )


@pytest.mark.parametrize("shape", ["cograph", "split"])
@EXAMPLES
@given(seed=SEEDS)
def test_edge_solvers_agree_past_the_oracle_cap(shape, seed):
    inst = edge_instance(random.Random(seed), shape)
    report = ClassReport(inst)
    solvers = ["treewidth-edge"]
    if report.cograph:
        solvers.append("cograph-edge")
    if report.split:
        solvers.append("split-edge")
    check_agreement(inst, solvers, ["decide"])


def unreduced(name, inst, objective):
    """Status and profit objective of the runner's DP on the whole instance,
    without the forced-color reduction the runner applies first."""
    twin = inst.negated() if objective == "minimize" else inst
    effective = "decide" if objective == "decide" else "maximize"
    if name == "cograph":
        out = dp_cograph(twin, build_cotree(twin), effective)
    else:
        dp = dp_vertex if name == "treewidth" else dp_edge
        out = dp(twin, build_nice_decomposition(twin)[0], effective)
    if objective == "decide" or not out.feasible:
        return out.status, None
    return out.status, -out.objective if objective == "minimize" else out.objective


@pytest.mark.parametrize("shape", ["cograph", "split", "forest", "edge-cograph", "edge-split"])
@EXAMPLES
@given(seed=SEEDS)
def test_runners_agree_with_the_unreduced_dps(shape, seed):
    # runner against runner would share the reduction; the DPs called
    # directly do not run it
    rng = random.Random(seed)
    if shape.startswith("edge-"):
        inst, names = edge_instance(rng, shape[5:]), ["treewidth-edge"]
    else:
        inst = vertex_instance(rng, shape)
        names = ["treewidth", "cograph"] if ClassReport(inst).cograph else ["treewidth"]
    for name in names:
        for objective in ("decide", "maximize", "minimize"):
            out = solve_with(name, inst, objective)
            assert_outcome(inst, out)
            got = (out.status, None if objective == "decide" else out.objective)
            assert got == unreduced(name, inst, objective), (name, objective)


def forest_plus_isolated(rng, mode, forest_max):
    """A random forest on 2 to ``forest_max`` vertices (each vertex after the
    first joins an earlier one with probability 3/4, else starts a tree)
    plus 0 to 12 isolated vertices, relabelled, drawn by
    ``colored_instance``."""
    size = rng.randint(2, forest_max)
    n = size + rng.randint(0, 12)
    edges = relabel(rng, n, [(rng.randrange(v), v) for v in range(1, size) if rng.random() < 0.75])
    return colored_instance(rng, mode, n, edges)


def cores_with_pendant_trees(rng, mode, trees_max):
    """``corpus.cycles_with_pendant_trees`` with up to ``trees_max`` tree
    vertices, drawn as ``forest_plus_isolated`` draws its instances."""
    n, edges = cycles_with_pendant_trees(rng, trees_max=trees_max)
    return colored_instance(rng, mode, n, edges)


def colored_instance(rng, mode, n, edges):
    """An instance on the graph (n, edges): k 2-4, p 1-2, lists of 1 to 3
    colors, weights 1-2, profits, and in about 80 % bounds planted around a
    greedy coloring.  Edge mode colors the edges."""
    k, p = rng.randint(2, 4), rng.randint(1, 2)
    m = n if mode == "vertex" else len(edges)
    weight = tuple(rng.randint(1, 2) for _ in range(m))
    part_of = tuple(rng.randint(1, p) for _ in range(m))
    allowed = tuple(frozenset(rng.sample(range(1, k + 1), rng.randint(1, min(3, k)))) for _ in range(m))
    if rng.random() < 0.8:
        conflicts = edges if mode == "vertex" else [
            (a, b) for a in range(m) for b in range(a) if set(edges[a]) & set(edges[b])
        ]
        allowed, bounds = plant(rng, k, p, part_of, weight, allowed, conflicts)
    else:
        bounds = bounds_from_assignment(rng, k, p, part_of, weight, allowed)
    profit = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(m))
    return ColoringInstance(mode=mode, n=n, edges=edges, k=k, p=p, part_of=part_of, weight=weight,
                            bounds=bounds, allowed=allowed, profit=profit)


def status_and_objective(out, objective):
    return out.status, None if objective == "decide" or not out.feasible else out.objective


# the oracle enumerates every product of the lists: keep it to small ones
ORACLE_CAP = 50_000


def covering_reference(inst, objective):
    """The DP over a supplied decomposition from the min-fill elimination
    order of the graph (in edge mode of its conflict closure), which covers
    every vertex, isolated ones in bags of their own: the route without
    packed steps.  Minimize negates the profits."""
    twin = inst.negated() if objective == "minimize" else inst
    graph = inst.edges if inst.mode == "vertex" else conflict_closure_sets(inst.n, inst.edges)
    raw = order_to_raw(inst.n, graph, min_fill_order(adjacency_masks(inst.n, graph)))
    dp = dp_vertex if inst.mode == "vertex" else dp_edge
    dec = build_nice_decomposition(dataclasses.replace(twin, decomposition=raw))[0]
    out = dp(twin, dec, "decide" if objective == "decide" else "maximize")
    if objective == "minimize" and out.feasible:
        out = dataclasses.replace(out, objective=-out.objective)
    return out


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@EXAMPLES
@given(seed=SEEDS)
def test_auto_meets_the_oracle_on_forests_with_isolated_vertices(mode, seed):
    inst = forest_plus_isolated(random.Random(seed), mode, forest_max=10)
    dp = "treewidth" if mode == "vertex" else "treewidth-edge"
    for objective in ("decide", "maximize", "minimize"):
        if inst.k ** inst.num_elements <= ORACLE_CAP:
            want = brute_force_solve(inst, objective)
        else:
            want = covering_reference(inst, objective)
        for name in (auto_solver_name(inst, objective), dp):
            if objective == "decide" or name in (dp, "cograph", "complete"):
                out = solve_with(name, inst, objective)
                assert_outcome(inst, out)
                assert status_and_objective(out, objective) == status_and_objective(want, objective), (name, objective)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@EXAMPLES
@given(seed=SEEDS)
def test_the_meet_agrees_with_a_covering_decomposition_past_the_oracle_cap(mode, seed):
    # over the computed decomposition every isolated vertex is a packed step
    inst = forest_plus_isolated(random.Random(seed), mode, forest_max=22)
    dp = dp_vertex if mode == "vertex" else dp_edge
    computed = build_nice_decomposition(inst)[0]
    for objective in ("decide", "maximize"):
        got, want = dp(inst, computed, objective), covering_reference(inst, objective)
        assert_outcome(inst, got)
        assert_outcome(inst, want)
        assert status_and_objective(got, objective) == status_and_objective(want, objective), objective


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@EXAMPLES
@given(seed=SEEDS)
def test_pendant_trees_on_small_cores_meet_the_oracle(mode, seed):
    # every element outside the 2-core is folded into the rows of the
    # element it hangs from, or into S
    inst = cores_with_pendant_trees(random.Random(seed), mode, trees_max=10)
    dp = dp_vertex if mode == "vertex" else dp_edge
    computed = build_nice_decomposition(inst)[0]
    for objective in ("decide", "maximize", "minimize"):
        if inst.k ** inst.num_elements <= ORACLE_CAP:
            want = brute_force_solve(inst, objective)
        else:
            want = covering_reference(inst, objective)
        assert_outcome(inst, want)
        twin = inst.negated() if objective == "minimize" else inst
        got = dp(twin, computed, "decide" if objective == "decide" else "maximize")
        if objective == "minimize" and got.feasible:
            got = dataclasses.replace(got, objective=-got.objective)
        outs = [got, solve_with("treewidth" if mode == "vertex" else "treewidth-edge", inst, objective)]
        for out in outs:
            assert_outcome(inst, out)
            assert status_and_objective(out, objective) == status_and_objective(want, objective), objective


WITNESSES = """
import json, random, sys
sys.path[:0] = sys.argv[1:]
from lbcolor import solve_with
from test_differential import cores_with_pendant_trees
out = []
for seed in range(40):
    for mode, name in (("vertex", "treewidth"), ("edge", "treewidth-edge")):
        inst = cores_with_pendant_trees(random.Random(seed), mode, trees_max=12)
        w = solve_with(name, inst, "maximize").witness
        out.append(None if w is None else list(w.color_of))
print(json.dumps(out))
"""


def test_a_fold_witness_is_the_same_across_runs():
    # the fold reads dicts and lists in insertion order only, so neither
    # a second run nor another hash seed changes a witness
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", WITNESSES, src, here], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        runs.append(done.stdout)
    assert runs[0] == runs[1]
    witnesses = json.loads(runs[0])
    assert sum(w is not None for w in witnesses) >= 20
    folded = 0
    for seed in range(40):
        for mode, name in (("vertex", "treewidth"), ("edge", "treewidth-edge")):
            inst = cores_with_pendant_trees(random.Random(seed), mode, trees_max=12)
            dec = build_nice_decomposition(inst)[0]
            dp = dp_vertex if mode == "vertex" else dp_edge
            first, second = dp(inst, dec, "maximize"), dp(inst, dec, "maximize")
            assert first == second
            order, parent, _ = peel(inst.conflict_masks)
            folded += first.feasible and any(parent[v] >= 0 for v in order)
    assert folded >= 10


def largest_meet_side(inst, dec):
    """Which of S (the whole trees in no bag that hang from nothing), the
    root join's left row and its right row holds the most states, or None on
    a tie or without a root join; S is recomputed one unpacked field at a
    time."""
    if dec.kinds[dec.root] != "join":
        return None
    tables = dp_tables(inst, dec)
    sizes = [len(loose_sums(inst, dec)), *(len(tables[child].get((), ())) for child in dec.children[dec.root])]
    top = max(sizes)
    return ("S", "left", "right")[sizes.index(top)] if sizes.count(top) == 1 else None


def test_each_side_of_the_meet_can_be_the_largest():
    # the rows are dealt into halves by size, and the larger half's sum is
    # scanned, whichever of S and the root join's child rows is the largest
    rng = random.Random(131)
    found = {"S": 0, "left": 0, "right": 0}
    for _ in range(3000):
        # cycles apart make the root join; free trees make S
        inst = cores_with_pendant_trees(rng, "vertex", trees_max=7)
        dec, _ = build_nice_decomposition(inst)
        side = largest_meet_side(inst, dec)
        if side is None or found[side] == 10:
            continue
        for objective in ("decide", "maximize"):
            out = dp_vertex(inst, dec, objective)
            assert_outcome(inst, out)
            if inst.k ** inst.n <= ORACLE_CAP:
                want = brute_force_solve(inst, objective)
            else:
                want = covering_reference(inst, objective)
            assert status_and_objective(out, objective) == status_and_objective(want, objective), (side, objective)
        found[side] += 1
        if min(found.values()) == 10:
            break
    assert min(found.values()) == 10, found


def test_no_nice_node_is_built_for_an_isolated_vertex(monkeypatch):
    seen = []
    original = treewidth.dp_vertex

    # nor for any vertex outside the 2-core: isolated, or on a pendant tree
    def spy(inst, dec, objective="decide"):
        introduced = {v for kind, v in zip(dec.kinds, dec.vertex) if kind == "introduce"}
        loose = isolated_vertices(inst.n, two_core_edges(inst.n, inst.edges))
        assert not introduced & loose
        assert introduced | loose == set(range(inst.n))
        seen.append((len(loose - isolated_vertices(inst.n, inst.edges)), len(introduced)))
        return original(inst, dec, objective)

    monkeypatch.setattr(treewidth, "dp_vertex", spy)
    rng = random.Random(137)
    for _ in range(100):
        inst = cores_with_pendant_trees(rng, "vertex", trees_max=8)
        for objective in ("decide", "maximize"):
            assert_outcome(inst, solve_with("treewidth", inst, objective))
    assert min(map(sum, zip(*seen))) > 0  # some on pendant trees, some in bags
