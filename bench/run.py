"""Seeded benchmark of ``lbcolor solve``: one workload, one seed, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload treelike --seed 1 --seconds 36 --trace 0

The timed pass is a closed loop with one caller on one thread: for each
instance file it calls ``lbcolor.cli.main(["solve", ...])`` in-process,
captures stdout, and times the call with its own ``perf_counter``.  Every
time is scaled to reference host speed by ``reference.HostClock``, which
times a fixed pure-Python kernel before and after each solve.  Whole rounds
over the workload's solves repeat, at least twice and then until the next
round would overrun ``--seconds``; each solve reports its median over the
rounds.  Every result of every round is checked against its known answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with traced rounds, which make the same ``cli.main`` calls
while ``tracing.patched`` records a span around each call of a library
function, and reports per-layer self times and counts for one round, plus
the tracing overhead.  Spans go to ``.bench_out/``.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the package sources under
``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# set-up is timed in chunks of this many instance files, each chunk scaled
# by the host speed measured around it
SETUP_CHUNK = 16
# every solve runs once per round and reports its median over the rounds
MIN_ROUNDS = 2


def _import_library():
    """Import lbcolor from this checkout's sources, never from elsewhere."""
    if not (SRC / "lbcolor" / "__init__.py").is_file():
        sys.exit(f"bench: no lbcolor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lbcolor

    if Path(lbcolor.__file__).resolve().parent != (SRC / "lbcolor").resolve():
        sys.exit(f"bench: lbcolor imported from {lbcolor.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Job:
    """One solve of the pass: an instance file under one objective and solver."""

    spec: object
    path: str
    instance: object
    objective: str
    solver: str


def time_import() -> float:
    """Interpreter start plus ``import lbcolor``, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lbcolor"], env=env, check=True)
    return time.perf_counter() - start


def build_files(specs, workdir, span=None):
    """Build each instance through the library and write its file into
    ``workdir``, which is made if it does not exist."""
    from lbcolor import write_instance

    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    span = span or (lambda name: contextlib.nullcontext())
    built = {}
    for spec in specs:
        instance = workloads.build(spec, span)
        path = str(workdir / f"{spec.name}.json")
        with span("codec.write_instance"):
            write_instance(instance, path)
        built[spec.name] = (path, instance)
    return built


def solve_argv(path, objective, solver):
    argv = ["solve", "--input", path, "--objective", objective]
    return argv if solver == "auto" else argv + ["--solver", solver]


def cli_solve(path, objective, solver):
    """One in-process ``lbcolor solve``; returns (seconds, exit code, stdout,
    exception).  Only the ``main`` call is timed."""
    from lbcolor import cli

    argv = solve_argv(path, objective, solver)
    out = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failure, never a verdict
            error = exc
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error


def timed_round(jobs, solve=cli_solve, tracer=None):
    """One round over ``jobs``: per-solve seconds at reference speed, the
    results, and the round's wall time less the reference kernel's.  With a
    ``tracer``, the spans of each solve are tagged with its instance."""
    samples, results = [], []
    clock = reference.HostClock()
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.instance = job.spec.name
        elapsed, code, out, error = solve(job.path, job.objective, job.solver)
        samples.append(clock.scaled(elapsed))
        results.append((job, code, out, error))
    return samples, results, time.perf_counter() - start - clock.kernel_total


def traced_round(jobs, tracer):
    """A timed round under ``tracing.patched``, then the solver counts."""
    import tracing

    with tracing.patched(tracer):
        samples, results, wall = timed_round(jobs, tracer=tracer)
    for _, _, out, _ in results:
        tracer.solved(out)
    return samples, results, wall


def check(results, span=None):
    """Failure reasons by instance name, for every wrong result."""
    import gate

    failures = []
    for job, code, out, error in results:
        reason = gate.failure(job.spec, job.instance, job.objective, code, out, error, span)
        if reason is not None:
            failures.append(f"{job.spec.name} [{job.objective}, {job.solver}]: {reason}")
    return failures


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _medians(per_job):
    return [statistics.median(samples) for samples in per_job]


def untraced_pass(jobs, seconds):
    """Rounds until the next would overrun ``seconds`` (at least MIN_ROUNDS).
    Returns each job's median time, the number of rounds and the failures.
    Each round is checked as soon as it ends, so that memory does not grow
    with the number of rounds."""
    per_job, rounds, failures = [[] for _ in jobs], 0, []
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        samples, results, _ = timed_round(jobs)
        for mine, sample in zip(per_job, samples):
            mine.append(sample)
        failures += check(results)
        rounds += 1
    return _medians(per_job), rounds, failures


def traced_pass(jobs, seconds):
    """Untraced and traced rounds in turn, until the next pair would overrun
    ``seconds`` (at least one pair).  Returns (tracer, wall) per traced
    round, the tracing overhead (the sum of each solve's median traced time
    over the sum of its median untraced time, minus one), a tracer of the
    checks, and the failures."""
    import tracing

    rounds, failures = [], []
    plain, traced = [[] for _ in jobs], [[] for _ in jobs]
    checks = tracing.Tracer()
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        samples, results, _ = timed_round(jobs)
        for mine, sample in zip(plain, samples):
            mine.append(sample)
        failures += check(results)
        tracer = tracing.Tracer()
        samples, results, wall = traced_round(jobs, tracer)
        for mine, sample in zip(traced, samples):
            mine.append(sample)
        failures += check(results, checks.span)
        rounds.append((tracer, wall))
    return rounds, sum(_medians(traced)) / sum(_medians(plain)) - 1.0, checks, failures


def set_up(specs, workdir):
    """Build the instance files SETUP_REPEATS times, each time into a fresh
    directory (overwriting files is slower, and slower the more often it is
    done), and time each chunk of SETUP_CHUNK files and one interpreter
    start with ``import lbcolor``, at reference speed.  Returns the last
    build and the set-up time: the sum over the chunks and the import of
    each one's median over the repeats."""
    chunks = [specs[lo : lo + SETUP_CHUNK] for lo in range(0, len(specs), SETUP_CHUNK)]
    per_step = [[] for _ in range(len(chunks) + 1)]
    for i in range(SETUP_REPEATS):
        clock = reference.HostClock()
        built = {}
        for chunk, times in zip(chunks, per_step):
            start = time.perf_counter()
            built.update(build_files(chunk, workdir / f"setup-{i}"))
            times.append(clock.scaled(time.perf_counter() - start))
        per_step[-1].append(clock.scaled(time_import()))
    return built, sum(_medians(per_step))


def run(workload, seed, seconds, trace):
    import tracing
    import workloads

    specs = workloads.plan(workload, seed)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        built, setup_s = set_up(specs, workdir)
        jobs = [
            Job(spec, *built[spec.name], objective, solver)
            for spec in specs
            for objective, solver in spec.runs
        ]
        # warm the in-process path (argument parser, lazy imports) once
        for job in jobs[:3]:
            cli_solve(job.path, job.objective, job.solver)

        if not trace:
            medians, rounds, failures = untraced_pass(jobs, seconds)
            attempted = len(jobs) * rounds
            peak = _peak_rss_mb()
            ms = sorted(x * 1000.0 for x in medians)
            p90 = statistics.quantiles(ms, n=10)[8]
            metrics = {
                "solve_ms_p50": (statistics.median(ms), "ms"),
                "solve_ms_p90": (p90, "ms"),
                "solves_per_s": (1000.0 * len(ms) / sum(ms), "1/s"),
                "peak_rss_mb": (peak, "MB"),
                "setup_s": (setup_s, "s"),
            }
            note = (
                f"rounds={rounds} solves per round={len(jobs)} "
                f"({sum(1 for x in ms if x > p90)} above p90)"
            )
        else:
            rounds, overhead, checks, failures = traced_pass(jobs, seconds)
            attempted = 2 * len(jobs) * len(rounds)
            build = tracing.Tracer()
            build_files(specs, workdir / "traced", build.span)
            metrics = tracing.layer_metrics(rounds, overhead, checks, build)
            with open(OUT / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as f:
                for i, (tracer, _) in enumerate(rounds):
                    tracer.dump(f, f"round-{i}")
                checks.dump(f, "check")
                build.dump(f, "build")
            name, share = tracing.largest_layer(rounds)
            note = f"traced rounds={len(rounds)} largest self time {name} = {share:.0%} of a traced round"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{workload} seed={seed}: instances={len(specs)} {note} "
        f"error_ratio={len(failures) / attempted:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more failures")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    _import_library()
    import workloads

    if ns.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {ns.workload!r}; choose from {workloads.WORKLOADS}")
    result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
