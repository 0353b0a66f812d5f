"""Command-line front end: solve, generate, and check subcommands.

Exit codes: 0 feasible / valid, 1 infeasible / invalid coloring, 2 usage or
structural error or any other failure.  ``solve`` prints exactly one JSON
object on stdout.  The solver registry and auto-dispatch live in
``lbcolor.classify``; ``elapsed_ms`` covers dispatch and the solve.

``main(argv)`` returns the exit code and may be called in-process any number
of times: the parser is built once per process, on the first call, and
parsing never changes it, so no call sees another's options.  An argparse
usage error (unknown option or choice, missing required option) raises
``SystemExit(2)`` as argparse does.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback

from .classify import SOLVERS, auto_solver_name, solve_with
from .codec import _load, instance_to_doc, read_coloring, read_instance
from .errors import (
    DecompositionError,
    InstanceFormatError,
    NotACographError,
    OracleLimitError,
    UsageError,
)
from .generators import generate, source_from_doc
from .instance import validate_coloring


def cmd_solve(ns) -> int:
    inst = read_instance(ns.input)
    started = time.perf_counter()
    name = ns.solver
    if name == "auto":
        name = auto_solver_name(inst, ns.objective)
    outcome = solve_with(name, inst, ns.objective)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    print(solve_document(outcome, name, elapsed_ms))
    return 0 if outcome.feasible else 1


def solve_document(outcome, solver_used: str, elapsed_ms: int) -> str:
    """The solve output, exactly ``json.dumps(doc, indent=2)`` of the
    document {status, witness: {color_of} or null, objective, solver_used,
    elapsed_ms}, written out by hand: each scalar goes through the C encoder
    and the color list is joined directly.  The indenting encoder is pure
    Python, and every call of it leaves a reference cycle behind."""
    if not outcome.witness:
        witness = "null"
    elif colors := outcome.witness.color_of:
        witness = '{\n    "color_of": [\n      ' + ",\n      ".join(map(str, colors)) + "\n    ]\n  }"
    else:
        witness = '{\n    "color_of": []\n  }'
    return (
        f'{{\n  "status": {json.dumps(outcome.status)},\n  "witness": {witness},\n'
        f'  "objective": {json.dumps(outcome.objective)},\n  "solver_used": {json.dumps(solver_used)},\n'
        f'  "elapsed_ms": {json.dumps(elapsed_ms)}\n}}'
    )


def cmd_generate(ns) -> int:
    result = generate(source_from_doc(_load(ns.source)), ns.variant)
    out = instance_to_doc(result.instance)
    out["metadata"] = result.metadata
    print(json.dumps(out, indent=2))
    return 0


def cmd_check(ns) -> int:
    inst = read_instance(ns.input)
    col = read_coloring(ns.coloring)
    report = validate_coloring(inst, col)
    if report.ok:
        return 0
    print(report.violation, file=sys.stderr)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="lbcolor", description="Locally bounded list-coloring solvers and generators."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance document")
    ps.add_argument("--input", required=True, help="instance JSON path")
    ps.add_argument("--solver", default="auto", choices=["auto", *SOLVERS])
    ps.add_argument("--objective", default="decide", choices=["decide", "maximize", "minimize"])

    pg = sub.add_parser("generate", help="generate an instance from a source problem")
    pg.add_argument("--source", required=True, help="source problem JSON path")
    pg.add_argument("--variant", default=None)

    pc = sub.add_parser("check", help="validate a coloring against an instance")
    pc.add_argument("--input", required=True)
    pc.add_argument("--coloring", required=True)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    # looked up per call, not stored in the shared parser, so a wrapper set
    # on ``cli.cmd_solve`` later still sees every solve
    commands = {"solve": cmd_solve, "generate": cmd_generate, "check": cmd_check}
    try:
        return commands[ns.command](ns)
    except (
        UsageError,
        InstanceFormatError,
        DecompositionError,
        NotACographError,
        OracleLimitError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not exit 1 and read as "infeasible"
        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
