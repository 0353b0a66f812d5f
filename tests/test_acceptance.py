"""Acceptance suite: each criterion runs at its stated size and tolerance
(status equality and exact integer objectives throughout) and prints one
PASS/FAIL line.  Criterion runners are pure functions of their seed so the
determinism criterion can rerun them and byte-compare the outputs."""

import random

from lbcolor import (
    ClassReport,
    brute_force_solve,
    build_cotree,
    build_nice_decomposition,
    dp_cograph,
    dp_edge,
    dp_vertex,
    gen_from_one_in_three_sat,
    gen_from_partition,
    gen_from_three_dim_matching,
    gen_from_three_partition,
    solve_cograph_edges,
    solve_complete_bipartite,
    solve_complete_graph,
    solve_components_k2,
    solve_isolated_k_fixed,
    solve_isolated_unit,
    solve_split_edges,
    solve_split_k_fixed,
    validate_coloring,
)
from lbcolor.generators import ThreePartitionSource

from corpus import (
    bipartition,
    dp_tables,
    join_row_mismatches,
    one_in_three_answer,
    partition_answer,
    random_complete_bipartite_instance,
    random_complete_instance,
    random_edge_instance,
    random_edgeless_instance,
    random_one_in_three_source,
    random_partition_source,
    random_three_dim_source,
    random_three_partition_source,
    random_vertex_instance,
    three_dim_matching_answer,
    three_partition_answer,
)

ORACLE_RANGE = 10 ** 6


class Recorder:
    """Collects solver outputs (for determinism) and invariant violations."""

    def __init__(self):
        self.lines = []
        self.violations = 0

    def outcome(self, inst, tag, out):
        witness = list(out.witness.color_of) if out.witness else None
        self.lines.append(f"{tag} {out.status} {witness} {out.objective}")
        if out.feasible:
            if not validate_coloring(inst, out.witness).ok:
                self.violations += 1
        elif out.witness is not None:
            self.violations += 1

    def text(self):
        return "\n".join(self.lines)


def run_criterion_1(seed):
    rng = random.Random(seed)
    rec = Recorder()
    agree = 0
    for i in range(500):
        inst = random_vertex_instance(rng, n_max=7, k_max=3, p_max=2, w_max=3, tw_cap=3)
        oracle = brute_force_solve(inst)
        dec, _ = build_nice_decomposition(inst)
        out = dp_vertex(inst, dec)
        rec.outcome(inst, f"1.dp[{i}]", out)
        ok = out.status == oracle.status
        report = ClassReport(inst)
        if report.cograph:
            cg = dp_cograph(inst, build_cotree(inst))
            rec.outcome(inst, f"1.cograph[{i}]", cg)
            ok = ok and cg.status == oracle.status
        if report.split:
            sk = solve_split_k_fixed(inst)
            rec.outcome(inst, f"1.split[{i}]", sk)
            ok = ok and sk.status == oracle.status
        if inst.k == 2 and bipartition(inst.n, inst.edges) is not None:
            k2 = solve_components_k2(inst)
            rec.outcome(inst, f"1.k2[{i}]", k2)
            ok = ok and k2.status == oracle.status
        agree += ok
    return agree == 500 and rec.violations == 0, rec


def run_criterion_2(seed):
    rng = random.Random(seed)
    rec = Recorder()
    agree = 0
    for i in range(200):
        inst = random_vertex_instance(rng, n_max=7, k_max=3, p_max=2, w_max=3,
                                      tw_cap=3, profit=True)
        oracle = brute_force_solve(inst, "maximize")
        dec, _ = build_nice_decomposition(inst)
        out = dp_vertex(inst, dec, "maximize")
        rec.outcome(inst, f"2.dp[{i}]", out)
        ok = out.status == oracle.status and out.objective == oracle.objective
        if ClassReport(inst).cograph:
            cg = dp_cograph(inst, build_cotree(inst), "maximize")
            rec.outcome(inst, f"2.cograph[{i}]", cg)
            ok = ok and cg.status == oracle.status and cg.objective == oracle.objective
        agree += ok
    return agree == 200 and rec.violations == 0, rec


def run_criterion_3(seed):
    rng = random.Random(seed)
    rec = Recorder()
    agree = 0
    for i in range(300):
        inst = random_edge_instance(rng, m_max=7, k_max=3, p_max=2)
        oracle = brute_force_solve(inst)
        dec, _ = build_nice_decomposition(inst)
        out = dp_edge(inst, dec)
        rec.outcome(inst, f"3.dp[{i}]", out)
        ok = out.status == oracle.status
        report = ClassReport(inst)
        if report.cograph:
            ce = solve_cograph_edges(inst)
            rec.outcome(inst, f"3.cograph[{i}]", ce)
            ok = ok and ce.status == oracle.status
        if report.split:
            se = solve_split_edges(inst)
            rec.outcome(inst, f"3.split[{i}]", se)
            ok = ok and se.status == oracle.status
        agree += ok
    return agree == 300 and rec.violations == 0, rec


def run_criterion_4(seed):
    rng = random.Random(seed)
    rec = Recorder()
    agree = total = 0
    for i in range(200):
        unit = i % 2 == 0
        inst = random_edgeless_instance(rng, n_max=7, unit=unit)
        oracle = brute_force_solve(inst)
        kf = solve_isolated_k_fixed(inst)
        rec.outcome(inst, f"4.kfixed[{i}]", kf)
        ok = kf.status == oracle.status
        if inst.unit_weights:
            iu = solve_isolated_unit(inst)
            rec.outcome(inst, f"4.unit[{i}]", iu)
            ok = ok and iu.status == oracle.status
        agree += ok
        total += 1
    for i in range(100):
        inst = random_complete_instance(rng, n_max=6, profit=True)
        oracle = brute_force_solve(inst, "maximize")
        out = solve_complete_graph(inst)
        rec.outcome(inst, f"4.complete[{i}]", out)
        agree += out.status == oracle.status and out.objective == oracle.objective
        total += 1
    for i in range(100):
        inst = random_complete_bipartite_instance(rng, side_max=3, k_max=3)
        oracle = brute_force_solve(inst)
        out = solve_complete_bipartite(inst)
        rec.outcome(inst, f"4.cb[{i}]", out)
        agree += out.status == oracle.status
        total += 1
    return agree == total and rec.violations == 0, rec


def run_criterion_5(seed):
    rng = random.Random(seed)
    rec = Recorder()
    agree = total = 0
    for i in range(100):
        src = random_partition_source(rng, n_max=6)
        expected = partition_answer(src.values, src.target)
        for variant in ("vertex", "edge"):
            inst = gen_from_partition(src, variant).instance
            if inst.k ** inst.num_elements > ORACLE_RANGE:
                continue
            out = brute_force_solve(inst)
            rec.outcome(inst, f"5.partition[{i}].{variant}", out)
            agree += out.feasible == expected
            total += 1
    for i in range(20):
        src = random_three_partition_source(rng, groups=2)
        expected = three_partition_answer(src.values, src.target)
        inst = gen_from_three_partition(src, "isolated").instance
        out = brute_force_solve(inst)
        rec.outcome(inst, f"5.tp[{i}]", out)
        kf = solve_isolated_k_fixed(inst)
        rec.outcome(inst, f"5.tp.kfixed[{i}]", kf)
        agree += out.feasible == expected and kf.feasible == expected
        total += 1
    # star-forest encoding: structural counts for two groups
    star = gen_from_three_partition(
        ThreePartitionSource(values=(3,) * 6, target=9), "star_forest"
    ).instance
    n, target = 2, 9
    structural = star.n == 3 * n * n * (n * target + 1) + 3 * n and star.k == 3 * n * n + 4 * n
    rec.lines.append(f"5.star_forest n={star.n} k={star.k}")
    agree += structural
    total += 1
    for i in range(50):
        src = random_one_in_three_source(rng, nu_max=4, mu_max=3)
        expected = one_in_three_answer(src.num_variables, src.clauses)
        for variant in ("star_forest", "complete_bipartite", "cycles_edges"):
            inst = gen_from_one_in_three_sat(src, variant).instance
            if inst.k ** inst.num_elements > ORACLE_RANGE:
                continue
            out = brute_force_solve(inst)
            rec.outcome(inst, f"5.sat[{i}].{variant}", out)
            agree += out.feasible == expected
            total += 1
    for i in range(30):
        src = random_three_dim_source(rng, size_max=2, triples_max=3)
        expected = three_dim_matching_answer(src.size, src.triples)
        inst = gen_from_three_dim_matching(src).instance
        if inst.k ** inst.num_elements > ORACLE_RANGE:
            continue
        out = brute_force_solve(inst)
        rec.outcome(inst, f"5.tdm[{i}]", out)
        agree += out.feasible == expected
        total += 1
    return agree == total, rec


def run_criterion_6(seed):
    rng = random.Random(seed)
    rec = Recorder()
    ok = True
    for i in range(30):
        src = random_three_dim_source(rng, size_max=2, triples_max=3)
        inst = gen_from_three_dim_matching(src).instance
        sp = inst.split_partition
        good = (
            sp is not None
            and len(sp.clique) == len(src.triples)
            and len(sp.independent) == 3 * src.size
        )
        rec.lines.append(f"6.tdm[{i}] {good}")
        ok = ok and good
    for i in range(15):
        src = random_one_in_three_source(rng)
        inst = gen_from_one_in_three_sat(src, "cycles_edges").instance
        nbr = [[] for _ in range(inst.n)]
        for u, v in inst.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        seen = [False] * inst.n
        shapes_ok = True
        for start in range(inst.n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                u = stack.pop()
                for w in nbr[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            degs = sorted(len(nbr[v]) for v in comp)
            shapes_ok = shapes_ok and degs in ([1, 1], [2, 2, 2, 2])
        rec.lines.append(f"6.cycles[{i}] {shapes_ok}")
        ok = ok and shapes_ok
    return ok, rec


def run_criterion_7(seed):
    """Join conservation, join exclusivity, and witness validity traces."""
    rng = random.Random(seed)
    rec = Recorder()
    violations = 0
    joins_checked = 0
    for i in range(40):
        # pendant trees are folded, not joined: the joins lie in the 2-core
        inst = random_vertex_instance(rng, n_max=12, edge_p=0.4, tw_cap=3)
        dec, _ = build_nice_decomposition(inst)
        tables = dp_tables(inst, dec)
        checked, mismatches = join_row_mismatches(inst, dec, tables)
        violations += mismatches
        joins_checked += checked
        out = dp_vertex(inst, dec)
        rec.outcome(inst, f"7.dp[{i}]", out)
    exclusivity_checked = 0
    for i in range(40):
        inst = random_vertex_instance(rng, n_max=7, edges=None, tw_cap=None,
                                      edge_p=0.5)
        if not ClassReport(inst).cograph:
            continue
        ct = build_cotree(inst)
        out = dp_cograph(inst, ct)
        rec.outcome(inst, f"7.cograph[{i}]", out)
        if not out.feasible:
            continue
        below = ct.leaves_under()
        for node in range(len(ct.kinds)):
            if ct.kinds[node] != "join":
                continue
            left, right = ct.children[node]
            for c in range(1, inst.k + 1):
                wl = sum(inst.weight[v] for v in below[left] if out.witness.color_of[v] == c)
                wr = sum(inst.weight[v] for v in below[right] if out.witness.color_of[v] == c)
                if wl and wr:
                    violations += 1
                exclusivity_checked += 1
    violations += rec.violations
    rec.lines.append(f"7.checks joins={joins_checked} exclusivity={exclusivity_checked}")
    return violations == 0 and joins_checked > 0 and exclusivity_checked > 0, rec


RUNNERS = [
    run_criterion_1,
    run_criterion_2,
    run_criterion_3,
    run_criterion_4,
    run_criterion_5,
    run_criterion_6,
    run_criterion_7,
]

SEED = 20240

_cache = {}


def run_cached(index):
    if index not in _cache:
        ok, rec = RUNNERS[index](SEED + index)
        _cache[index] = (ok, rec)
    return _cache[index]


def report(number, name, ok):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_vertex_decide_oracle_equivalence():
    ok, _ = run_cached(0)
    report(1, "vertex decide oracle equivalence (500 instances)", ok)


def test_criterion_2_maximize_oracle_equivalence():
    ok, _ = run_cached(1)
    report(2, "maximize objective equality (200 instances)", ok)


def test_criterion_3_edge_mode_oracle_equivalence():
    ok, _ = run_cached(2)
    report(3, "edge mode oracle equivalence (300 instances)", ok)


def test_criterion_4_special_case_solvers():
    ok, _ = run_cached(3)
    report(4, "special-case solver agreement (400 instances)", ok)


def test_criterion_5_reduction_ground_truth():
    ok, _ = run_cached(4)
    report(5, "reduction ground truth + star-forest counts", ok)


def test_criterion_6_construction_exactness():
    ok, _ = run_cached(5)
    report(6, "construction exactness (split shape, C4 components)", ok)


def test_criterion_7_invariant_suites():
    ok, _ = run_cached(6)
    report(7, "invariant suites (conservation, exclusivity, witnesses)", ok)


def test_criterion_8_determinism():
    ok = True
    for index, runner in enumerate(RUNNERS):
        first_ok, first = run_cached(index)
        second_ok, second = runner(SEED + index)
        ok = ok and first_ok == second_ok and first.text() == second.text()
    report(8, "determinism (suites 1-7 rerun byte-identical)", ok)
