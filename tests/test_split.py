import dataclasses
import random

import pytest

from lbcolor import (
    ClassReport,
    ColoringInstance,
    UsageError,
    brute_force_solve,
    build_nice_decomposition,
    dp_vertex,
    gen_from_three_dim_matching,
    infer_singular_spec,
    solve_split_edges,
    solve_split_k_fixed,
    solve_split_singular,
)
from lbcolor import split

from corpus import (
    assert_outcome,
    graph_instance,
    random_edge_instance,
    random_split_instance,
    random_three_dim_source,
)


def full(k):
    return frozenset(range(1, k + 1))


def vertex_inst(n, edges, k, p, part_of, weight, bounds, allowed=None):
    return ColoringInstance(mode="vertex", n=n, edges=tuple(edges), k=k, p=p,
                            part_of=part_of, weight=weight, bounds=bounds,
                            allowed=allowed or (full(k),) * n)


# ---------------------------------------------------------------------------
# recognition


def test_triangle_plus_pendant():
    sp = graph_instance(4, ((0, 1), (0, 2), (1, 2), (2, 3))).split_partition
    assert sp.clique == (0, 1, 2) and sp.independent == (3,)


def test_c4_is_not_split():
    assert graph_instance(4, ((0, 1), (1, 2), (2, 3), (0, 3))).split_partition is None


def test_edgeless_gets_empty_clique():
    sp = graph_instance(3, ()).split_partition
    assert sp.clique == () and sp.independent == (0, 1, 2)


def test_clique_side_is_maximized():
    # path a-b: one endpoint can join the 1-clique, so K has 2 vertices
    sp = graph_instance(2, ((0, 1),)).split_partition
    assert len(sp.clique) == 2


def test_split_recognition_matches_brute_force():
    rng = random.Random(113)
    from itertools import combinations

    def brute_split(n, edges):
        edge_set = set(edges)
        for size in range(n, -1, -1):
            for clique in combinations(range(n), size):
                cs = set(clique)
                if all((a, b) in edge_set for i, a in enumerate(clique) for b in clique[i + 1 :]):
                    rest = [v for v in range(n) if v not in cs]
                    if all(
                        (a, b) not in edge_set
                        for i, a in enumerate(rest)
                        for b in rest[i + 1 :]
                    ):
                        return size
        return None

    for _ in range(80):
        n = rng.randint(1, 7)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45)
        expected = brute_split(n, edges)
        sp = graph_instance(n, edges).split_partition
        if expected is None:
            assert sp is None
        else:
            assert sp is not None
            edge_set = set(edges)
            clique, independent = sp.clique, sp.independent
            assert sorted(clique + independent) == list(range(n))
            assert all((a, b) in edge_set for i, a in enumerate(clique) for b in clique[i + 1 :])
            assert all(
                (a, b) not in edge_set for i, a in enumerate(independent) for b in independent[i + 1 :]
            )
            if edges:
                assert len(sp.clique) == expected
            else:
                assert sp.clique == ()


# ---------------------------------------------------------------------------
# clique-enumeration solver


def test_split_k_fixed_example():
    # clique {a=0, b=1}, pendant c=2 attached to a
    inst = vertex_inst(3, ((0, 1), (0, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    out = solve_split_k_fixed(inst)
    assert out.feasible and out.witness.color_of == (2, 1, 1)


def test_split_k_fixed_clique_larger_than_k():
    inst = vertex_inst(3, ((0, 1), (0, 2), (1, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    assert not solve_split_k_fixed(inst).feasible


def test_split_k_fixed_matches_oracle():
    rng = random.Random(127)
    for _ in range(100):
        inst = random_split_instance(rng)
        out = solve_split_k_fixed(inst)
        oracle = brute_force_solve(inst)
        assert out.status == oracle.status
        assert_outcome(inst, out)
        dec, _ = build_nice_decomposition(inst)
        assert dp_vertex(inst, dec).status == oracle.status


def test_split_k_fixed_requires_split_graph():
    inst = vertex_inst(4, ((0, 1), (1, 2), (2, 3), (0, 3)), 2, 1, (1,) * 4, (1,) * 4, ((2, 2),))
    with pytest.raises(UsageError):
        solve_split_k_fixed(inst)


# ---------------------------------------------------------------------------
# singular-color solver


def star_k13(bounds):
    return vertex_inst(4, ((0, 1), (0, 2), (0, 3)), 2, 1, (1,) * 4, (1,) * 4, (bounds,))


def test_singular_star_even_bounds_infeasible():
    inst = star_k13((2, 2))
    expected = brute_force_solve(inst)
    assert not expected.feasible
    assert not solve_split_singular(inst).feasible


def test_singular_star_uneven_bounds_feasible():
    inst = star_k13((1, 3))
    expected = brute_force_solve(inst)
    assert expected.feasible
    out = solve_split_singular(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_singular_one_singular_column():
    # clique {a, b}, leaves c, d attached to a only; W = (2, 1, 1)
    inst = vertex_inst(4, ((0, 1), (0, 2), (0, 3)), 3, 1, (1,) * 4, (1,) * 4, ((2, 1, 1),))
    expected = brute_force_solve(inst)
    assert expected.feasible
    out = solve_split_singular(inst)
    assert out.feasible
    assert_outcome(inst, out)
    spec = infer_singular_spec(inst)
    assert spec.common_bound == 1 and spec.singular == (1,)


def test_singular_preconditions_named():
    weighted = vertex_inst(3, ((0, 1), (0, 2)), 2, 1, (1,) * 3, (1, 1, 2), ((2, 2),))
    with pytest.raises(UsageError, match="independent-set vertices must have weight 1"):
        solve_split_singular(weighted)
    listy = vertex_inst(3, ((0, 1), (0, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),),
                        allowed=(full(2), full(2), frozenset({1})))
    with pytest.raises(UsageError, match="independent-set"):
        solve_split_singular(listy)


def test_singular_no_constant_column_rejected():
    inst = vertex_inst(4, ((0, 1),), 2, 2, (1, 1, 2, 2), (1,) * 4,
                       ((1, 1), (2, 0)))
    with pytest.raises(UsageError, match="constant"):
        solve_split_singular(inst)


def test_singular_matches_oracle_random():
    rng = random.Random(131)
    tested = 0
    while tested < 60:
        kk = rng.randint(1, 3)
        ss = rng.randint(1, 4)
        n = kk + ss
        labels = list(range(n))
        rng.shuffle(labels)
        clique, indep = labels[:kk], labels[kk:]
        edges = {(min(a, b), max(a, b)) for i, a in enumerate(clique) for b in clique[i + 1 :]}
        for v in indep:
            for u in clique:
                if rng.random() < 0.5:
                    edges.add((min(u, v), max(u, v)))
        p = rng.randint(1, 2)
        part_of = [rng.randint(1, p) for _ in range(n)]
        k = rng.randint(max(1, kk), 4)
        kprime = rng.randint(0, min(2, k))
        b = rng.randint(0, 3)
        sizes = [sum(1 for v in range(n) if part_of[v] == h) for h in range(1, p + 1)]
        rows = []
        ok = True
        for sz in sizes:
            rest = sz - b * (k - kprime)
            if rest < 0 or (kprime == 0 and rest != 0):
                ok = False
                break
            singular = [0] * kprime
            for _ in range(rest):
                singular[rng.randrange(kprime)] += 1
            rows.append(tuple([b] * (k - kprime) + singular))
        if not ok:
            continue
        # clique vertices may carry weights and lists; the independent set may not
        weight = [1] * n
        allowed = [full(k)] * n
        for u in clique:
            weight[u] = rng.choice((1, 1, 2))
            allowed[u] = frozenset(c for c in range(1, k + 1) if rng.random() < 0.7) or full(k)
        for h in range(p):
            row = list(rows[h])
            row[rng.randrange(k)] += sum(weight[u] - 1 for u in clique if part_of[u] == h + 1)
            rows[h] = tuple(row)
        inst = ColoringInstance(mode="vertex", n=n, edges=tuple(sorted(edges)), k=k, p=p,
                                part_of=tuple(part_of), weight=tuple(weight),
                                bounds=tuple(rows), allowed=tuple(allowed))
        try:
            out = solve_split_singular(inst)
        except UsageError:
            continue
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)
        tested += 1


def test_singular_residuals_pass_the_checks_they_skip(monkeypatch):
    residuals = []
    solve_residual = split.solve_isolated_unit

    def recording(sub):
        residuals.append(sub)
        return solve_residual(sub)

    monkeypatch.setattr(split, "solve_isolated_unit", recording)
    rng = random.Random(137)
    for _ in range(40):
        solve_split_singular(gen_from_three_dim_matching(random_three_dim_source(rng)).instance)
    assert len(residuals) > 40
    for sub in residuals:
        assert dataclasses.replace(sub) == sub  # replace runs every check
        assert (sub.mode, sub.edges, sub.profit, sub.decomposition) == ("vertex", (), None, None)


def test_singular_clique_general_lists_and_weights():
    # clique {0,1} with pinned lists; independent 2,3 attached to vertex 0
    inst = vertex_inst(4, ((0, 1), (0, 2), (0, 3)), 3, 1, (1,) * 4, (2, 1, 1, 1),
                       ((2, 2, 1),),
                       allowed=(frozenset({3}), frozenset({2}), full(3), full(3)))
    out = solve_split_singular(inst)
    oracle = brute_force_solve(inst)
    assert out.status == oracle.status
    assert_outcome(inst, out)


def test_witness_colors_clique_distinctly():
    rng = random.Random(137)
    seen = 0
    for _ in range(60):
        inst = random_split_instance(rng)
        out = solve_split_k_fixed(inst)
        if not out.feasible:
            continue
        sp = inst.split_partition
        clique_colors = [out.witness.color_of[u] for u in sp.clique]
        assert len(set(clique_colors)) == len(clique_colors)
        seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# edge coloring


def test_split_edges_single_edge():
    inst = ColoringInstance(mode="edge", n=2, edges=((0, 1),), k=1, p=1,
                            part_of=(1,), weight=(4,), bounds=((4,),),
                            allowed=(frozenset({1}),))
    out = solve_split_edges(inst)
    assert out.feasible
    assert_outcome(inst, out)


def test_split_edges_triangle_two_colors():
    inst = ColoringInstance(mode="edge", n=3, edges=((0, 1), (0, 2), (1, 2)), k=2, p=1,
                            part_of=(1,) * 3, weight=(1,) * 3, bounds=((2, 1),),
                            allowed=(full(2),) * 3)
    assert not solve_split_edges(inst).feasible


def test_split_edges_matches_oracle():
    rng = random.Random(139)
    tested = 0
    while tested < 60:
        inst = random_edge_instance(rng)
        if not ClassReport(inst).split:
            continue
        out = solve_split_edges(inst)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)
        tested += 1
