import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbcolor import (
    ColoringInstance,
    UsageError,
    brute_force_solve,
    solve_components_k2,
    solve_isolated_k_fixed,
    solve_isolated_unit,
    validate_coloring,
)
from lbcolor import basic
from lbcolor.basic import part_weight_assignment

from corpus import (
    assert_outcome,
    part_weight_assignment_unfolded,
    random_bipartite_k2_instance,
    random_cograph_edges,
    random_edge_instance,
    random_edgeless_instance,
    random_split_instance,
    random_vertex_instance,
    relabel,
    solve_by_components_by_pairs,
    squares_and_edges,
)


def full(k):
    return frozenset(range(1, k + 1))


def edgeless(n, k, p, part_of, weight, bounds, allowed=None):
    return ColoringInstance(mode="vertex", n=n, edges=(), k=k, p=p, part_of=part_of,
                            weight=weight, bounds=bounds,
                            allowed=allowed or (full(k),) * n)


def test_unit_two_vertices_two_colors():
    inst = edgeless(2, 2, 1, (1, 1), (1, 1), ((1, 1),))
    out = solve_isolated_unit(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_unit_same_forced_color_infeasible():
    inst = edgeless(2, 2, 1, (1, 1), (1, 1), ((1, 1),),
                    allowed=(frozenset({1}), frozenset({1})))
    assert not solve_isolated_unit(inst).feasible


def test_unit_matches_oracle_on_random_instances():
    rng = random.Random(31)
    for _ in range(80):
        inst = random_edgeless_instance(rng, n_max=8, unit=True)
        out = solve_isolated_unit(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)


def test_unit_network_saturates_on_feasible_two_part_case():
    from lbcolor import CapacitatedBipartiteNetwork, max_flow_saturate

    inst = edgeless(4, 2, 2, (1, 1, 2, 2), (1, 1, 1, 1), ((1, 1), (1, 1)))
    assert solve_isolated_unit(inst).feasible
    arcs = tuple(
        (v, (inst.part_of[v] - 1) * 2 + (c - 1), 1)
        for v in range(4)
        for c in sorted(inst.allowed[v])
    )
    net = CapacitatedBipartiteNetwork((1,) * 4, inst.bounds_flat, arcs)
    out = max_flow_saturate(net)
    assert out.value == 4 and out.saturated


def test_unit_rejects_weighted_instance():
    inst = edgeless(1, 1, 1, (1,), (2,), ((2,),))
    with pytest.raises(UsageError):
        solve_isolated_unit(inst)
    with pytest.raises(UsageError):
        solve_isolated_unit(random_vertex_instance(random.Random(0), n=3, edges=((0, 1),), w_max=1))


def test_k_fixed_subset_split():
    inst = edgeless(5, 2, 1, (1,) * 5, (2, 2, 2, 3, 3), ((6, 6),))
    out = solve_isolated_k_fixed(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_k_fixed_no_subset_sums():
    inst = edgeless(2, 2, 1, (1, 1), (1, 3), ((2, 2),))
    assert not solve_isolated_k_fixed(inst).feasible


def test_k_fixed_two_independent_parts():
    inst = edgeless(10, 2, 2, (1,) * 5 + (2,) * 5, (2, 2, 2, 3, 3) * 2,
                    ((6, 6), (6, 6)))
    out = solve_isolated_k_fixed(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_k_fixed_matches_oracle_on_random_instances():
    rng = random.Random(37)
    for _ in range(80):
        inst = random_edgeless_instance(rng, n_max=8, w_max=4)
        out = solve_isolated_k_fixed(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)


@st.composite
def fold_inputs(draw):
    """(weights, choices, bound row) for one part: mostly single-color
    items, now and then an empty list, zero-bound colors; the row is
    mostly planted from a drawn coloring (so often exactly met), else drawn
    freely (so single items are often too heavy for their color)."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(0, 9))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    color = st.integers(1, k)
    single = color.map(lambda c: frozenset({c}))
    several = st.frozensets(color, min_size=2, max_size=k) if k > 1 else single
    choices = draw(st.lists(st.one_of(single, single, several), min_size=n, max_size=n))
    if n and draw(st.integers(0, 7)) == 7:
        choices[draw(st.integers(0, n - 1))] = frozenset()
    if draw(st.integers(0, 2)) < 2:
        row = [0] * k
        for w, cs in zip(weights, choices):
            if cs:
                row[draw(st.sampled_from(sorted(cs))) - 1] += w
        # now and then one entry is off by one, or a single item too heavy for its color
        i = draw(st.integers(0, 3 * k))
        if i < k:
            row[i] = max(0, row[i] + draw(st.sampled_from((-1, 1))))
    else:
        row = draw(st.lists(st.one_of(st.just(0), st.integers(0, 12)), min_size=k, max_size=k))
    return weights, choices, tuple(row)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(fold_inputs())
@example(([1, 1], [frozenset({1}), frozenset({1})], (1, 1)))
@example(([1, 1], [frozenset({1, 2}), frozenset({1, 2})], (0, 0, 2)))
@example(([5], [frozenset({2})], (9, 4)))
@example(([2, 3], [frozenset({1}), frozenset({1})], (5,)))
@example(([], [], (0, 0)))
def test_fold_returns_the_unfolded_answer(case):
    # settling the single-color items before the DP changes no answer and
    # no chosen color
    weights, choices, row = case
    assert part_weight_assignment(weights, choices, row) == part_weight_assignment_unfolded(weights, choices, row)


def test_fold_handles_many_fixed_units():
    # 40 fixed unit items: exact in plain ints, while as packed units over
    # the row (3, 1), whose 4-bit fields hold at most 7, their sum would
    # carry past a guard bit
    weights = [1] * 41
    choices = [frozenset({1})] * 40 + [frozenset({1, 2})]
    assert part_weight_assignment(weights, choices, (40, 1)) == [1] * 40 + [2]
    for row in ((40, 1), (39, 2), (3, 1), (41, 0)):
        assert part_weight_assignment(weights, choices, row) == part_weight_assignment_unfolded(weights, choices, row)


def test_part_relabeling_keeps_feasibility():
    rng = random.Random(41)
    swapped_any = False
    for _ in range(40):
        inst = random_edgeless_instance(rng, n_max=6)
        if inst.p != 2:
            continue
        swapped = ColoringInstance(
            mode="vertex", n=inst.n, edges=(), k=inst.k, p=2,
            part_of=tuple(3 - h for h in inst.part_of), weight=inst.weight,
            bounds=(inst.bounds[1], inst.bounds[0]), allowed=inst.allowed,
        )
        assert solve_isolated_k_fixed(inst).status == solve_isolated_k_fixed(swapped).status
        swapped_any = True
    assert swapped_any


def test_components_k2_path():
    inst = ColoringInstance(mode="vertex", n=3, edges=((0, 1), (1, 2)), k=2, p=1,
                            part_of=(1, 1, 1), weight=(1, 1, 1), bounds=((2, 1),),
                            allowed=(full(2),) * 3)
    out = solve_components_k2(inst)
    assert out.feasible and out.witness.color_of == (1, 2, 1)


def test_components_k2_odd_cycle():
    inst = ColoringInstance(mode="vertex", n=5,
                            edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
                            k=2, p=1, part_of=(1,) * 5, weight=(1,) * 5,
                            bounds=((3, 2),), allowed=(full(2),) * 5)
    assert not solve_components_k2(inst).feasible


def long_k2_instance(rng, n, closed):
    """A path on n shuffled labels, closed into a cycle when ``closed``, with
    random parts, weights and lists; the bounds are those of the coloring
    that alternates along the path."""
    label = rng.sample(range(n), n)
    edges = [(label[i], label[i + 1]) for i in range(n - 1)]
    if closed:
        edges.append((label[-1], label[0]))
    color_of = [0] * n
    for i, v in enumerate(label):
        color_of[v] = 1 + i % 2
    part_of = [rng.randint(1, 3) for _ in range(n)]
    weight = [rng.randint(1, 3) for _ in range(n)]
    bounds = [[0, 0] for _ in range(3)]
    for v in range(n):
        bounds[part_of[v] - 1][color_of[v] - 1] += weight[v]
    allowed = [full(2) if rng.random() < 0.9 else frozenset({color_of[v]}) for v in range(n)]
    return ColoringInstance(mode="vertex", n=n, edges=tuple(edges), k=2, p=3, part_of=tuple(part_of),
                            weight=tuple(weight), bounds=tuple(map(tuple, bounds)), allowed=tuple(allowed))


def test_components_k2_one_component_of_thousands():
    # one component as deep as the walk can be: a long path is feasible and
    # an odd cycle of the same size is not
    rng = random.Random(47)
    path = long_k2_instance(rng, 3000, closed=False)
    out = solve_components_k2(path)
    assert out.feasible
    assert validate_coloring(path, out.witness).ok
    assert not solve_components_k2(long_k2_instance(rng, 3001, closed=True)).feasible


def test_components_after_an_empty_layer_are_never_enumerated(monkeypatch):
    # component {0, 1} has no coloring within the bounds: both of its
    # colorings put weight 3 on a color bounded by 2, so the layers end
    # there and the two components after it are never listed
    listed = []
    fitting = basic._fitting_colorings

    def counted(order, *args):
        listed.append(order)
        return fitting(order, *args)

    monkeypatch.setattr(basic, "_fitting_colorings", counted)
    inst = ColoringInstance(mode="vertex", n=6, edges=((0, 1), (2, 3), (4, 5)), k=2, p=2,
                            part_of=(1, 1, 2, 2, 2, 2), weight=(1, 3, 1, 1, 1, 1),
                            bounds=((2, 2), (2, 2)), allowed=(full(2),) * 6)
    assert not solve_components_k2(inst).feasible
    assert listed == [[0, 1]]


def _forest(rng, n):
    """A random forest on n vertices: each vertex after the first hangs off
    an earlier one, or starts a tree of its own, one time in three."""
    return relabel(rng, n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 2 / 3])


@st.composite
def enumerator_instances(draw):
    """Instances that ``solve_by_components`` serves: edge-mode cographs,
    split graphs and matchings with squares at k = 2-4, and k = 2 vertex
    forests and bipartite graphs.  Half plant a proper coloring; the others
    take their bounds from any coloring, so their layers often empty early."""
    shape = draw(st.sampled_from(("cograph", "split", "squares", "forest", "bipartite")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    planted = draw(st.booleans())
    if shape == "bipartite":
        return random_bipartite_k2_instance(rng, n_max=9)
    if shape == "forest":
        n = rng.randint(1, 10)
        return random_vertex_instance(rng, n=n, edges=_forest(rng, n), k=2, planted=planted)
    if shape == "cograph":
        n = rng.randint(2, 7)
        edges = relabel(rng, n, random_cograph_edges(rng, n))
    elif shape == "split":
        graph = random_split_instance(rng)
        n, edges = graph.n, graph.edges
    else:
        n, edges = squares_and_edges(rng.randint(0, 2), rng.randint(0, 4))
        edges = relabel(rng, n, edges)
    k = draw(st.integers(2, 4))
    return random_edge_instance(rng, n=n, edges=edges, k=k, planted=planted)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(enumerator_instances())
@example(ColoringInstance(mode="vertex", n=6, edges=((0, 1), (2, 3), (4, 5)), k=2, p=2,
                          part_of=(1, 1, 2, 2, 2, 2), weight=(1, 3, 1, 1, 1, 1),
                          bounds=((2, 2), (2, 2)), allowed=(full(2),) * 6))
@example(ColoringInstance(mode="edge", n=4, edges=((0, 1), (2, 3)), k=2, p=1, part_of=(1, 1),
                          weight=(2, 1), bounds=((1, 2),), allowed=(full(2),) * 2))
def test_enumerator_matches_the_pair_based_build(inst):
    # walking the conflict masks one component at a time, and listing a
    # one-element component without a stack, changes no outcome, status or
    # witness
    assert basic.solve_by_components(inst, "test") == solve_by_components_by_pairs(inst, "test")


def test_components_k2_requires_two_colors():
    inst = edgeless(1, 1, 1, (1,), (1,), ((1,),))
    with pytest.raises(UsageError):
        solve_components_k2(inst)


def test_components_k2_matches_oracle_on_random_instances():
    rng = random.Random(43)
    for _ in range(80):
        inst = random_bipartite_k2_instance(rng, n_max=8)
        out = solve_components_k2(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)


def test_components_k2_handles_list_pruned_components():
    # two edges plus an isolated vertex, lists pin one component's coloring
    inst = ColoringInstance(mode="vertex", n=5, edges=((0, 1), (2, 3)), k=2, p=2,
                            part_of=(1, 1, 2, 2, 2), weight=(1, 2, 1, 1, 2),
                            bounds=((1, 2), (3, 1)),
                            allowed=(frozenset({1}), frozenset({2}), full(2), full(2), full(2)))
    out = solve_components_k2(inst)
    assert out.status == brute_force_solve(inst).status
    assert_outcome(inst, out)
