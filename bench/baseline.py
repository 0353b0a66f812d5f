"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads treelike cograph]
        [--seconds 36] [--trace 0] [--out bench/baseline/BENCH_<date>.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, from the
root of the checkout.  For every metric it prints the median over seeds and
the spread, the distance between the first and third quartile as a share
of the median.  ``--out`` also records the raw values together with the
Python version, the commit and the processor count, so that a later change
can quote its before and after against the same seeds.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("treelike", "cograph", "portfolio")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    ns = parser.parse_args(argv)

    record = {
        "date": datetime.date.today().isoformat(),
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": ns.seconds,
        "trace": ns.trace,
        "seeds": ns.seeds,
        "workloads": {},
    }
    for workload in ns.workloads:
        runs = []
        for seed in ns.seeds:
            cmd = [
                sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(ns.seconds), "--trace", str(ns.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "values": values, **summarise(values)}
            spread = summary[name]["spread"]
            print(f"  {workload:10s} {name:40s} median={summary[name]['median']:12.5f} "
                  f"spread={'n/a' if spread is None else f'{spread:.4f}'}")
        record["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
    if ns.out:
        ns.out.parent.mkdir(parents=True, exist_ok=True)
        ns.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
