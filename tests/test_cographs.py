import inspect
import random
import sys

import pytest

from lbcolor import (
    ClassReport,
    ColoringInstance,
    NotACographError,
    OneInThreeSatSource,
    UsageError,
    auto_solver_name,
    brute_force_solve,
    build_cotree,
    build_nice_decomposition,
    dp_cograph,
    dp_vertex,
    gen_from_one_in_three_sat,
    solve_cograph_edges,
    solve_complete_bipartite,
    solve_complete_graph,
)
from lbcolor import cographs
from lbcolor.instance import adjacency_masks
from lbcolor.packed import PackedBounds

from corpus import (
    assert_outcome,
    complete_bipartite_by_masks,
    graph_instance,
    one_in_three_answer,
    random_cograph_edges,
    random_cograph_instance,
    random_complete_bipartite_instance,
    random_complete_instance,
    random_edge_instance,
    reconstruct_graph,
)


def full(k):
    return frozenset(range(1, k + 1))


def vertex_inst(n, edges, k, p, part_of, weight, bounds, allowed=None, profit=None):
    return ColoringInstance(mode="vertex", n=n, edges=tuple(edges), k=k, p=p,
                            part_of=part_of, weight=weight, bounds=bounds,
                            allowed=allowed or (full(k),) * n, profit=profit)


# ---------------------------------------------------------------------------
# cotree construction


def test_p3_cotree_shape():
    ct = build_cotree(graph_instance(3, ((0, 1), (1, 2))))
    assert ct.kinds[ct.root] == "join"
    kids = sorted(ct.kinds[c] for c in ct.children[ct.root])
    assert kids == ["leaf", "union"]
    assert reconstruct_graph(ct) == (3, ((0, 1), (1, 2)))


def test_p4_reports_witness_path():
    with pytest.raises(NotACographError) as err:
        build_cotree(graph_instance(4, ((0, 1), (1, 2), (2, 3))))
    assert err.value.witness == (0, 1, 2, 3)


def _is_induced_p4(path, edge_set):
    def linked(u, v):
        return (min(u, v), max(u, v)) in edge_set

    a, b, c, d = path
    return (len(set(path)) == 4 and linked(a, b) and linked(b, c) and linked(c, d)
            and not (linked(a, c) or linked(b, d) or linked(a, d)))


def test_p4_witness_is_an_induced_path_on_random_non_cographs():
    from itertools import permutations

    rng = random.Random(59)
    checked = 0
    while checked < 80:
        n = rng.randint(4, 9)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.random())
        inst = graph_instance(n, edges)
        if ClassReport(inst).cograph:
            continue
        edge_set = set(edges)
        with pytest.raises(NotACographError) as err:
            build_cotree(inst)
        path = err.value.witness
        assert _is_induced_p4(path, edge_set) and path[0] < path[-1]
        # over a whole vertex set: the first induced path in (a, b, c, d) order
        first = min(p for p in permutations(range(n), 4) if _is_induced_p4(p, edge_set))
        assert cographs.find_induced_p4(range(n), adjacency_masks(n, edges)) == first
        checked += 1


def test_deep_threshold_cotree_needs_no_recursion():
    # every odd vertex is joined to all earlier ones: split and a cograph,
    # with one cotree level per vertex
    for n in (300, 1200):
        edges = tuple((u, v) for v in range(1, n, 2) for u in range(v))
        inst = graph_instance(n, edges)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            ct = build_cotree(inst)  # ClassReport reads this same cached build
            report = ClassReport(inst)
            assert report.split and report.cograph
        finally:
            sys.setrecursionlimit(limit)
        assert reconstruct_graph(ct) == (n, tuple(sorted(edges)))
        depth = [0] * len(ct.kinds)
        for node in reversed(ct.post_order()):
            for child in ct.children[node]:
                depth[child] = depth[node] + 1
        assert max(depth) >= n - 1


def test_random_cographs_round_trip():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 8)
        edges = random_cograph_edges(rng, n)
        ct = build_cotree(graph_instance(n, edges))
        assert reconstruct_graph(ct) == (n, tuple(sorted(edges)))
        # binary internal nodes; leaves biject with the vertex set
        leaves = []
        for node in range(len(ct.kinds)):
            if ct.kinds[node] == "leaf":
                assert ct.children[node] == ()
                leaves.append(ct.vertex[node])
            else:
                assert len(ct.children[node]) == 2
        assert sorted(leaves) == list(range(n))


def test_non_cograph_detection_matches_p4_scan():
    rng = random.Random(89)
    from itertools import combinations

    for _ in range(60):
        n = rng.randint(1, 7)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)
        edge_set = set(edges)
        has_p4 = False
        for quad in combinations(range(n), 4):
            inside = [
                (a, b) for i, a in enumerate(quad) for b in quad[i + 1 :] if (a, b) in edge_set
            ]
            degs = sorted(sum(1 for e in inside if v in e) for v in quad)
            if len(inside) == 3 and degs == [1, 1, 2, 2]:
                has_p4 = True
                break
        assert ClassReport(graph_instance(n, edges)).cograph == (not has_p4)


def test_recognition_builds_no_p4_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("recognition searched for a P4 witness")

    monkeypatch.setattr(cographs, "find_induced_p4", refuse)
    # a random tree on 240 vertices with shuffled labels
    rng = random.Random(97)
    label = list(range(240))
    rng.shuffle(label)
    parent = [rng.randrange(v) for v in range(1, 240)]
    edges = tuple(sorted(
        tuple(sorted((label[v], label[u]))) for v, u in enumerate(parent, start=1)
    ))
    inst = graph_instance(240, edges)
    assert not ClassReport(inst).cograph
    assert auto_solver_name(inst) == "treewidth"


# ---------------------------------------------------------------------------
# cotree DP


def test_dp_cograph_p3():
    inst = vertex_inst(3, ((0, 1), (1, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    out = dp_cograph(inst, build_cotree(inst))
    assert out.feasible and out.witness.color_of == (1, 2, 1)


def test_dp_cograph_join_forbids_shared_color():
    inst = vertex_inst(2, ((0, 1),), 1, 1, (1, 1), (1, 1), ((2,),))
    assert not dp_cograph(inst, build_cotree(inst)).feasible


def test_dp_cograph_matches_oracle_and_treewidth_dp():
    rng = random.Random(97)
    for _ in range(100):
        inst = random_cograph_instance(rng, profit=True)
        ct = build_cotree(inst)
        out = dp_cograph(inst, ct)
        oracle = brute_force_solve(inst)
        assert out.status == oracle.status
        assert_outcome(inst, out)
        dec, _ = build_nice_decomposition(inst)
        assert dp_vertex(inst, dec).status == out.status
        best = dp_cograph(inst, ct, "maximize")
        oracle_best = brute_force_solve(inst, "maximize")
        assert best.status == oracle_best.status
        if best.feasible:
            assert best.objective == oracle_best.objective
            assert best.objective == dp_vertex(inst, dec, "maximize").objective
            assert_outcome(inst, best)


def test_dp_cograph_join_exclusivity_on_trace():
    from lbcolor.cographs import dp_cograph as run

    rng = random.Random(101)
    checked = 0
    for _ in range(60):
        inst = random_cograph_instance(rng)
        ct = build_cotree(inst)
        out = run(inst, ct)
        if not out.feasible:
            continue
        # recompute per-node color weights from the witness; at each join,
        # every color's weight must come entirely from one child
        below = ct.leaves_under()
        for node in range(len(ct.kinds)):
            if ct.kinds[node] != "join":
                continue
            left, right = ct.children[node]
            for c in range(1, inst.k + 1):
                wl = sum(
                    inst.weight[v] for v in below[left] if out.witness.color_of[v] == c
                )
                wr = sum(
                    inst.weight[v] for v in below[right] if out.witness.color_of[v] == c
                )
                assert wl == 0 or wr == 0
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# complete graphs


def test_complete_graph_forced_by_weights():
    inst = vertex_inst(3, ((0, 1), (0, 2), (1, 2)), 3, 1, (1,) * 3, (1, 2, 3), ((1, 2, 3),))
    out = solve_complete_graph(inst)
    assert out.feasible and out.witness.color_of == (1, 2, 3)


def test_complete_graph_zero_column_pruned_then_infeasible():
    inst = vertex_inst(2, ((0, 1),), 2, 1, (1, 1), (1, 1), ((2, 0),))
    assert not solve_complete_graph(inst).feasible


def test_complete_graph_requires_completeness():
    inst = vertex_inst(3, ((0, 1),), 3, 1, (1,) * 3, (1,) * 3, ((3, 0, 0),))
    with pytest.raises(UsageError):
        solve_complete_graph(inst)


def test_complete_graph_matches_oracle_with_profit():
    rng = random.Random(103)
    for _ in range(80):
        inst = random_complete_instance(rng, profit=True)
        out = solve_complete_graph(inst)
        oracle = brute_force_solve(inst, "maximize")
        assert out.status == oracle.status
        if out.feasible:
            assert out.objective == oracle.objective
            assert_outcome(inst, out)


# ---------------------------------------------------------------------------
# complete bipartite graphs


def test_k12_feasible():
    inst = vertex_inst(3, ((0, 1), (0, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    out = solve_complete_bipartite(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_k22_side_sums():
    edges = ((0, 2), (0, 3), (1, 2), (1, 3))
    lopsided = vertex_inst(4, edges, 2, 1, (1,) * 4, (1,) * 4, ((3, 1),))
    assert not solve_complete_bipartite(lopsided).feasible
    balanced = vertex_inst(4, edges, 2, 1, (1,) * 4, (1,) * 4, ((2, 2),))
    assert solve_complete_bipartite(balanced).feasible


def test_complete_bipartite_matches_oracle():
    rng = random.Random(107)
    for _ in range(80):
        inst = random_complete_bipartite_instance(rng)
        out = solve_complete_bipartite(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)


def test_complete_bipartite_search_matches_every_commitment():
    """The pruned search returns the reference's outcome, witness included:
    the first commitment, in ascending mask order, that passes every check."""
    rng = random.Random(113)
    feasible = 0
    for _ in range(320):
        inst = random_complete_bipartite_instance(rng, side_max=6, k_max=9, p_max=3)
        out = solve_complete_bipartite(inst)
        assert out == complete_bipartite_by_masks(inst), inst
        feasible += out.feasible
    assert 0 < feasible < 320


def test_complete_bipartite_search_matches_on_one_in_three_instances():
    """Generator instances, k = 2 nu + 1, yes and no; at three variables
    every clause is (1, 2, 3), which is always satisfiable."""
    rng = random.Random(127)
    for nu in range(3, 7):
        wanted = {True} if nu == 3 else {True, False}
        seen = set()
        while seen != wanted:
            clauses = tuple(tuple(sorted(rng.sample(range(1, nu + 1), 3))) for _ in range(rng.randint(1, nu)))
            want = one_in_three_answer(nu, clauses)
            seen.add(want)
            inst = gen_from_one_in_three_sat(OneInThreeSatSource(nu, clauses), "complete_bipartite").instance
            out = solve_complete_bipartite(inst)
            assert out.feasible == want
            assert out == complete_bipartite_by_masks(inst), clauses


def test_complete_bipartite_search_prunes(monkeypatch):
    """An infeasible one-in-three instance at 8 variables (k = 17): checking
    every one of the 2^17 commitments runs the side check 5,939 times."""
    calls = 0
    check = cographs.part_weight_assignment

    def counted(*args):
        nonlocal calls
        calls += 1
        return check(*args)

    monkeypatch.setattr(cographs, "part_weight_assignment", counted)
    clauses = ((2, 4, 8), (1, 6, 3), (7, 4, 8), (2, 6, 3), (2, 7, 1), (7, 5, 4), (2, 6, 1), (6, 2, 8))
    src = OneInThreeSatSource(num_variables=8, clauses=clauses)
    assert not one_in_three_answer(8, clauses)
    inst = gen_from_one_in_three_sat(src, "complete_bipartite").instance
    assert inst.k == 17
    assert not solve_complete_bipartite(inst).feasible
    assert 0 < calls <= 500


def test_complete_bipartite_leaf_checks_layer_only_free_members(monkeypatch):
    """A one-in-three instance at 10 variables (k = 21): most members of a
    (part, side) have one usable color at a leaf, and they are settled
    before the layered DP; with every member a layer this solve forms
    11,621 ``PackedBounds.layers`` layers past the start."""
    calls = 0
    layers = PackedBounds.layers

    def counted(self, start, steps):
        nonlocal calls
        formed = layers(self, start, steps)
        calls += len(formed) - 1
        return formed

    monkeypatch.setattr(PackedBounds, "layers", counted)
    clauses = ((10, 1, 7), (8, 1, 4), (8, 10, 5), (3, 1, 8), (6, 2, 4), (6, 1, 7), (3, 6, 7), (7, 5, 9), (8, 3, 5), (6, 3, 8))
    inst = gen_from_one_in_three_sat(OneInThreeSatSource(10, clauses), "complete_bipartite").instance
    assert inst.k == 21
    out = solve_complete_bipartite(inst)
    assert out.feasible == one_in_three_answer(10, clauses)
    assert_outcome(inst, out)
    assert calls <= 100


def test_complete_bipartite_requires_class():
    inst = vertex_inst(3, ((0, 1), (1, 2), (0, 2)), 3, 1, (1,) * 3, (1,) * 3, ((1, 1, 1),))
    with pytest.raises(UsageError):
        solve_complete_bipartite(inst)


# ---------------------------------------------------------------------------
# cograph edge coloring


def edge_inst(n, edges, k, p, part_of, weight, bounds, allowed=None):
    m = len(edges)
    return ColoringInstance(mode="edge", n=n, edges=tuple(edges), k=k, p=p,
                            part_of=part_of, weight=weight, bounds=bounds,
                            allowed=allowed or (full(k),) * m)


def test_single_edge_single_color():
    inst = edge_inst(2, ((0, 1),), 1, 1, (1,), (3,), ((3,),))
    out = solve_cograph_edges(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_degree_bound_rejects_star():
    inst = edge_inst(4, ((0, 1), (0, 2), (0, 3)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    assert not solve_cograph_edges(inst).feasible


def test_two_disjoint_edges():
    inst = edge_inst(4, ((0, 1), (2, 3)), 2, 1, (1, 1), (1, 1), ((1, 1),))
    out = solve_cograph_edges(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_cograph_edges_matches_oracle():
    rng = random.Random(109)
    tested = 0
    while tested < 60:
        inst = random_edge_instance(rng)
        if not ClassReport(inst).cograph:
            continue
        out = solve_cograph_edges(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)
        tested += 1


def test_cograph_edges_build_no_pair_list():
    # the enumerator reads the conflict masks only: on a perfect matching of
    # 200 edges, 200 one-element components, the pair list is never built
    edges = [(2 * i, 2 * i + 1) for i in range(200)]
    inst = edge_inst(400, edges, 2, 1, (1,) * 200, (1,) * 200, ((100, 100),))
    out = solve_cograph_edges(inst)
    assert out.feasible
    assert_outcome(inst, out)
