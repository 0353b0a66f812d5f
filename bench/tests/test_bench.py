"""Tests of the benchmark itself: seeded inputs, ground truth, the gate.

    python3 -m pytest -q bench/tests
"""

import json
import random

import pytest

import gate
import run
import truth
import workloads
from lbcolor import brute_force_solve, cli, generate

EXPECTED_SOLVER = {
    "treelike": "treewidth",
    "cograph-shallow": "cograph",
    "cograph-caterpillar": "cograph",
    "partition/vertex": "isolated-kfixed",
    "partition/edge": "cograph-edge",
    "three_partition/isolated": "isolated-kfixed",
    "one_in_three_sat/star_forest": "cograph",
    "one_in_three_sat/complete_bipartite": "complete-bipartite",
    "one_in_three_sat/cycles_edges": "cograph-edge",
    "three_dim_matching/split": "split-kfixed",
    "edge-treelike": "treewidth-edge",
    "edge-split": "split-edge",
}


def _write_all(workload, seed, directory):
    specs = workloads.plan(workload, seed)
    directory.mkdir()
    built = run.build_files(specs, directory)
    return {name: open(path, "rb").read() for name, (path, _) in built.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = _write_all(workload, 7, tmp_path / "a")
    second = _write_all(workload, 7, tmp_path / "b")
    assert first == second
    assert _write_all(workload, 8, tmp_path / "c") != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_auto_dispatch_reaches_the_intended_solver(workload):
    for spec in workloads.plan(workload, 3):
        inst = workloads.build(spec)
        for objective, solver in spec.runs:
            if solver == "auto":
                assert cli.auto_solver_name(inst, objective) == EXPECTED_SOLVER[spec.family], spec.name


def test_source_truth_agrees_with_the_oracle():
    rng = random.Random(11)
    cases = []
    for want in (True, False):
        cases.append(("partition", "vertex", workloads._partition_source(rng, 5, want), want))
        cases.append(("partition", "edge", workloads._partition_source(rng, 4, want), want))
        cases.append(("three_partition", "isolated", workloads._three_partition_source(rng, 2, want), want))
        cases.append(("three_dim_matching", "split", workloads._matching_source(rng, 2, 3, want), want))
        # two clauses are always satisfiable; four over four variables need not be
        sat = workloads._one_in_three_source(rng, 4, 2 if want else 4, want)
        cases.append(("one_in_three_sat", "star_forest", sat, want))
    for kind, variant, fields, want in cases:
        inst = generate(workloads.SOURCES[kind](**fields), variant).instance
        assert brute_force_solve(inst).feasible == want, (kind, variant, fields)


def test_source_truth_helpers_on_known_inputs():
    assert truth.partition_exists([3, 1, 1, 2, 2, 1])
    assert not truth.partition_exists([2, 2, 6])
    assert truth.three_partition_exists([7, 8, 9, 9, 7, 8], 24)
    assert not truth.three_partition_exists([7, 7, 7, 9, 9, 9], 24)
    assert truth.one_in_three_assignment(3, [[1, 2, 3]]) is not None
    assert truth.one_in_three_assignment(4, [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]) is None
    assert truth.matching_exists(2, [(1, 1, 2), (2, 2, 1)])
    assert not truth.matching_exists(2, [(1, 1, 1), (2, 1, 2)])


def test_planted_instances_and_parity_twins_agree_with_the_oracle():
    rng = random.Random(5)
    for i in range(12):
        edges = workloads._treelike_graph(rng, 7, 1)
        adj = workloads._adjacency(7, edges)
        order, _ = workloads._elimination(7, edges)
        color_of = None
        while color_of is None:
            color_of = workloads._greedy_coloring(rng, order[::-1], adj, 3)
        planted = workloads._planted_fields(rng, "vertex", 7, edges, color_of, 3, 1 + i % 2, 2, True)
        spec = workloads._planted_spec(rng, "tiny", i, planted, workloads.BOTH, twin=i % 3 == 2)
        inst = workloads.build(spec)
        outcome = brute_force_solve(inst, "maximize")
        assert outcome.feasible == spec.feasible
        if spec.feasible:
            assert outcome.objective >= spec.planted_profit


def _job(tmp_path, feasible=True):
    rng = random.Random(3)
    spec = workloads._planted_spec(
        rng, "treelike", 0, workloads._planted_treelike(rng, 12, 3, 1), workloads.BOTH, twin=not feasible
    )
    built = run.build_files([spec], tmp_path)
    return run.Job(spec, *built[spec.name], "maximize", "auto")


def test_gate_accepts_the_real_solver(tmp_path):
    jobs = [_job(tmp_path)]
    _, results, _ = run.timed_round(jobs)
    assert run.check(results) == []


def test_gate_counts_a_wrong_verdict_and_a_crash_as_failures(tmp_path):
    jobs = [_job(tmp_path)]

    def wrong_verdict(path, objective, solver):
        return 0.001, 1, json.dumps({"status": "infeasible", "witness": None}), None

    def crash(path, objective, solver):
        return 0.001, None, "", RuntimeError("solver blew up")

    for fake in (wrong_verdict, crash):
        _, results, _ = run.timed_round(jobs, solve=fake)
        failures = run.check(results)
        assert len(failures) == 1, fake.__name__


def test_gate_rejects_bad_witnesses_and_low_objectives(tmp_path):
    job = _job(tmp_path)
    _, code, out, _ = run.cli_solve(job.path, job.objective, job.solver)
    doc = json.loads(out)

    def verdict(**changes):
        bad = dict(doc, **changes)
        return gate.failure(job.spec, job.instance, job.objective, code, json.dumps(bad), None)

    assert verdict() is None
    broken = list(doc["witness"]["color_of"])
    broken[0] = broken[0] % job.instance.k + 1
    assert verdict(witness={"color_of": broken}) is not None
    assert verdict(objective=doc["objective"] + 1) is not None
    assert gate.failure(job.spec, job.instance, job.objective, 2, "", None) == "exit 2"
    low = workloads.Spec(**{**job.spec.__dict__, "planted_profit": doc["objective"] + 1})
    assert gate.failure(low, job.instance, job.objective, code, out, None) is not None


def test_gate_accepts_an_infeasible_twin(tmp_path):
    job = _job(tmp_path, feasible=False)
    _, results, _ = run.timed_round([job])
    assert results[0][1] == 1
    assert run.check(results) == []


def test_traced_round_runs_the_real_cli_and_restores_it(tmp_path):
    import tracing
    from lbcolor import treewidth

    originals = (cli.main, cli.read_instance, treewidth.dp_vertex)
    jobs = [_job(tmp_path)]
    tracer = tracing.Tracer()
    _, results, _ = run.traced_round(jobs, tracer)
    assert (cli.main, cli.read_instance, treewidth.dp_vertex) == originals
    assert run.check(results) == []
    totals = tracer.totals()
    for name in ("cli.main", "codec.read_instance", "cli.auto_solver_name",
                 "treewidth.build_nice_decomposition", "treewidth.dp_vertex.maximize"):
        assert totals[name][1] == 1, name
    assert tracer.counters["solver.treewidth.calls"] == 1
    assert tracer.counters["treewidth.nodes_leaf"] >= 1
    assert {instance for *_, instance in tracer.spans} == {jobs[0].spec.name}


def test_layer_metrics_are_the_declared_ones(tmp_path):
    import tracing

    jobs = [_job(tmp_path)]
    tracer = tracing.Tracer()
    _, _, wall = run.traced_round(jobs, tracer)
    metrics = tracing.layer_metrics([(tracer, wall)], 0.0, tracing.Tracer(), tracing.Tracer())
    assert list(metrics) == list(tracing.declared_metrics())
    assert metrics["treewidth.dp_vertex.maximize_s"][0] > 0
    assert metrics["solver.treewidth.calls"][0] == 1
    assert metrics["codec.read_instance.calls"][0] == 1


def test_host_clock_scales_by_the_kernel_times_around_each_step(monkeypatch):
    import reference

    assert reference.kernel() == reference.KERNEL_RESULT
    times = iter([0.002, 0.003, 0.005])
    monkeypatch.setattr(reference, "kernel_seconds", lambda: next(times))
    clock = reference.HostClock()
    ref = reference.REFERENCE_SECONDS
    assert clock.scaled(1.0) == pytest.approx(2 * ref / 0.005)
    assert clock.scaled(1.0) == pytest.approx(2 * ref / 0.008)
    assert clock.kernel_total == pytest.approx(0.008)
