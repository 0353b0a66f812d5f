"""The forced-color reduction ``basic.forced_residual`` and the three runners
that solve only its residual: ``treewidth``, ``cograph`` and
``treewidth-edge``, reached through ``solve_with`` as the CLI reaches them."""

import dataclasses
import random
from itertools import product

import pytest

from lbcolor import (
    ClassReport,
    ColoringInstance,
    RawDecomposition,
    brute_force_solve,
    build_nice_decomposition,
    dp_edge,
    dp_vertex,
    solve_with,
    validate_coloring,
)
from lbcolor import Coloring, cographs, treewidth
from lbcolor.basic import forced_residual

from corpus import (
    assert_outcome,
    conflict_closure_sets,
    order_to_raw,
    random_cograph_edges,
    random_edge_instance,
    random_vertex_instance,
)


def vertex(n, edges, k, bounds, allowed, weight=None, profit=None, **extra):
    return ColoringInstance(
        mode="vertex", n=n, edges=edges, k=k, p=len(bounds), part_of=extra.pop("part_of", (1,) * n),
        weight=weight or (1,) * n, bounds=bounds, allowed=allowed, profit=profit, **extra,
    )


def valid_colorings(inst):
    return {
        cols for cols in product(*(sorted(a) for a in inst.allowed))
        if validate_coloring(inst, Coloring(cols)).ok
    }


def with_decomposition(rng, inst):
    # over the conflict closure in edge mode, so that adjacent edges share a bag
    graph = inst.edges if inst.mode == "vertex" else conflict_closure_sets(inst.n, inst.edges)
    raw = order_to_raw(inst.n, graph, rng.sample(range(inst.n), inst.n))
    return dataclasses.replace(inst, decomposition=raw)


def corpus(rng, count):
    """Small vertex, cograph and edge instances with profits, 2 or 3 colors,
    three in four planted.  Random lists of 1 to k colors force most of them
    whole, so in half of them about half of the lists are widened to every
    color."""
    for i in range(count):
        planted = rng.random() < 0.75
        n, k = rng.randint(2, 7), rng.randint(2, 3)
        if i % 3 == 0:
            inst = random_vertex_instance(rng, n=n, k=k, tw_cap=3, profit=True, planted=planted)
        elif i % 3 == 1:
            edges = random_cograph_edges(rng, n)
            inst = random_vertex_instance(rng, n=n, k=k, edges=edges, profit=True, planted=planted)
        else:
            inst = random_edge_instance(rng, m_max=7, k=k, profit=True, planted=planted)
        if i % 2:
            every = frozenset(range(1, k + 1))
            inst = dataclasses.replace(inst, allowed=[every if rng.random() < 0.5 else a for a in inst.allowed])
        yield inst


# ---------------------------------------------------------------------------
# the rules


def test_singletons_fix_a_path_one_vertex_at_a_time():
    inst = vertex(3, ((0, 1), (1, 2)), 2, ((2, 1),), ({1}, {1, 2}, {1, 2}))
    color_of, residual, kept = forced_residual(inst)
    assert (color_of, kept) == ([1, 2, 1], [])
    assert (residual.n, residual.edges, residual.bounds) == (0, (), ((0, 0),))


def test_weights_too_large_for_a_bound_lose_its_color():
    # w = 3 does not fit the bound 2 of color 2; once it takes color 1, the
    # light vertices no longer fit color 1's bound
    inst = vertex(3, (), 2, ((3, 2),), ({1, 2},) * 3, weight=(3, 1, 1))
    color_of, _, kept = forced_residual(inst)
    assert (color_of, kept) == ([1, 2, 2], [])


def test_an_emptied_list_proves_infeasibility():
    inst = vertex(3, ((0, 1), (0, 2), (1, 2)), 2, ((2, 1),), ({1}, {1, 2}, {1, 2}))
    assert forced_residual(inst) is None
    assert not brute_force_solve(inst).feasible


def test_the_residual_keeps_the_unforced_elements():
    # vertex 0 is forced and takes color 1 from vertex 1; vertices 2 and 3 keep two colors
    inst = vertex(4, ((0, 1), (2, 3)), 3, ((1, 2, 1),), ({1}, {1, 2}, {2, 3}, {2, 3}),
                  profit=((1, 0, 0), (0, 2, 0), (0, 3, 4), (5, 6, 7)))
    color_of, residual, kept = forced_residual(inst)
    assert (color_of, kept) == ([1, 2, 0, 0], [2, 3])
    assert residual == vertex(2, ((0, 1),), 3, ((0, 1, 1),), ({2, 3}, {2, 3}), profit=((0, 3, 4), (5, 6, 7)))


def test_nothing_forced_keeps_the_graph_caches():
    inst = vertex(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)), 3, ((2, 2, 2),), ({1, 2, 3},) * 6)
    cotree = inst.cotree_or_prime
    color_of, residual, kept = forced_residual(inst)
    assert kept == list(range(6)) and residual == inst
    assert residual.cotree_or_prime is cotree


def test_the_reduction_keeps_exactly_the_valid_colorings():
    rng = random.Random(41)
    kinds = {"infeasible": 0, "all forced": 0, "partly forced": 0}
    for inst in corpus(rng, 450):
        if rng.random() < 0.5:
            inst = with_decomposition(rng, inst)
        forced = forced_residual(inst)
        valid = valid_colorings(inst)
        if forced is None:
            assert valid == set()
            kinds["infeasible"] += 1
            continue
        color_of, residual, kept = forced
        # built without __post_init__, yet it passes every check of construction
        assert dataclasses.replace(residual) == residual
        assert [e for e, c in enumerate(color_of) if not c] == kept
        joined = set()
        for cols in valid_colorings(residual):
            full = list(color_of)
            for e, c in zip(kept, cols):
                full[e] = c
            joined.add(tuple(full))
        assert joined == valid
        if inst.decomposition is not None:
            build_nice_decomposition(residual)  # the carried decomposition is one of the residual
        kinds["all forced" if not kept else "partly forced"] += 1
    assert min(kinds.values()) >= 40, kinds


# ---------------------------------------------------------------------------
# the runners


def runners(inst):
    if inst.mode == "edge":
        return ["treewidth-edge"]
    return ["treewidth", "cograph"] if ClassReport(inst).cograph else ["treewidth"]


def test_runners_match_the_oracle_through_solve_with():
    rng = random.Random(43)
    checks = 0
    for inst in corpus(rng, 1800):
        for objective in ("decide", "maximize", "minimize"):
            oracle = brute_force_solve(inst, objective)
            for name in runners(inst):
                out = solve_with(name, inst, objective)
                assert_outcome(inst, out)
                assert out.status == oracle.status, (name, objective, inst)
                if objective != "decide":
                    assert out.objective == oracle.objective, (name, objective, inst)
                checks += 1
    assert checks > 6000


@pytest.fixture
def no_dp(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("built or ran a DP on an empty residual")

    for module, name in (
        (treewidth, "build_nice_decomposition"), (treewidth, "dp_vertex"), (treewidth, "dp_edge"),
        (treewidth, "min_fill_order"), (cographs, "build_cotree"), (cographs, "dp_cograph"),
    ):
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("objective", ["decide", "maximize", "minimize"])
def test_nothing_is_built_when_every_element_is_forced(no_dp, objective):
    triangle = ((0, 1), (0, 2), (1, 2))
    profit = ((1, 2, 3),) * 3
    cases = [
        ("treewidth", vertex(3, triangle, 3, ((1, 1, 1),), ({1}, {1, 2}, {1, 2, 3}), profit=profit)),
        ("cograph", vertex(3, triangle, 3, ((1, 1, 1),), ({1}, {1, 2}, {1, 2, 3}), profit=profit)),
        ("cograph", vertex(0, (), 2, ((0, 0),), (), profit=())),
        ("treewidth-edge", dataclasses.replace(
            vertex(3, triangle, 3, ((1, 1, 1),), ({1}, {1, 2}, {1, 2, 3}), profit=profit), mode="edge")),
    ]
    for name, inst in cases:
        out = solve_with(name, inst, objective)
        assert out.feasible and validate_coloring(inst, out.witness).ok
    clash = vertex(2, ((0, 1),), 2, ((2, 0),), ({1}, {1}), profit=((1, 2),) * 2)
    assert not solve_with("treewidth", clash, objective).feasible


def unreduced(inst, objective):
    """The DP on the whole instance over the nice form of its decomposition."""
    dp = dp_vertex if inst.mode == "vertex" else dp_edge
    if objective == "minimize":
        out = dp(inst.negated(), build_nice_decomposition(inst)[0], "maximize")
        return out.status, out.objective and -out.objective
    out = dp(inst, build_nice_decomposition(inst)[0], objective)
    return out.status, out.objective if objective == "maximize" else None


def test_supplied_decompositions_stay_in_use(monkeypatch):
    rng = random.Random(47)
    instances = [with_decomposition(rng, inst) for inst in corpus(rng, 600)]
    objectives = ("decide", "maximize", "minimize")
    expected = [[unreduced(inst, objective) for objective in objectives] for inst in instances]

    def refuse(*args):
        raise RuntimeError("a supplied decomposition was replaced by min-fill")

    monkeypatch.setattr(treewidth, "min_fill_order", refuse)
    reduced = 0
    for inst, want in zip(instances, expected):
        name = "treewidth" if inst.mode == "vertex" else "treewidth-edge"
        outs = [solve_with(name, inst, objective) for objective in objectives]
        got = [(out.status, out.objective if objective != "decide" else None) for out, objective in zip(outs, objectives)]
        assert got == want, (name, inst)
        forced = forced_residual(inst)
        reduced += forced is not None and 0 < len(forced[2]) < inst.num_elements
    assert reduced >= 40


def test_a_restricted_decomposition_drops_and_relabels_the_fixed_vertices():
    raw = RawDecomposition(bags=((0, 1), (1, 2), (2, 3)), tree_edges=((0, 1), (1, 2)), root=1)
    inst = vertex(4, ((0, 1), (2, 3)), 2, ((2, 2),), ({1}, {1, 2}, {1, 2}, {1, 2}), decomposition=raw)
    color_of, residual, kept = forced_residual(inst)
    # vertex 0 takes 1, vertex 1 then 2; vertices 2 and 3 remain, as 0 and 1
    assert (color_of, kept) == ([1, 2, 0, 0], [2, 3])
    assert residual.decomposition == RawDecomposition(bags=((), (0,), (0, 1)), tree_edges=raw.tree_edges, root=1)
    edge = dataclasses.replace(inst, mode="edge", n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4)),
                               decomposition=RawDecomposition(bags=((0, 1, 2), (1, 2, 3), (2, 3, 4)),
                                                              tree_edges=((0, 1), (1, 2)), root=0))
    assert forced_residual(edge)[1].decomposition is edge.decomposition


@pytest.mark.parametrize("objective", ["decide", "maximize", "minimize"])
@pytest.mark.parametrize("name", ["cograph", "treewidth"])
def test_a_fully_fixed_instance_restricts_no_cotree(monkeypatch, name, objective):
    # vertex 0's one color fixes the triangle whole, so the residual is empty
    triangle = ((0, 1), (0, 2), (1, 2))

    def build():
        return vertex(3, triangle, 3, ((1, 1, 1),), ({1}, {1, 2}, {1, 2, 3}), profit=((1, 2, 3),) * 3)

    want = solve_with(name, build(), objective)

    def refuse(self, kept):
        raise RuntimeError("restricted the cotree")

    monkeypatch.setattr(cographs.Cotree, "restricted", refuse)
    inst = build()
    assert ClassReport(inst).cograph  # caches the cotree that a residual would restrict
    assert forced_residual(inst)[2] == []
    got = solve_with(name, inst, objective)
    assert (got.status, got.witness, got.objective) == (want.status, want.witness, want.objective)
    assert got.witness.color_of == (1, 2, 3)
    # a residual that keeps elements does restrict the cached cotree
    partly = vertex(3, triangle, 3, ((1, 1, 1),), ({1}, {2, 3}, {2, 3}))
    assert ClassReport(partly).cograph
    with pytest.raises(RuntimeError, match="restricted the cotree"):
        forced_residual(partly)
