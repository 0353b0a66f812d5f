"""Command-line front end: solve, generate, and check subcommands.

Exit codes: 0 feasible / valid, 1 infeasible / invalid coloring, 2 usage or
structural error or any other failure.  ``solve`` prints exactly one JSON
object on stdout.  The solver registry and auto-dispatch live in
``lbcolor.classify``; ``elapsed_ms`` covers dispatch and the solve.

``main(argv)`` returns the exit code and may be called in-process any number
of times: the parsers are built once per process, on the first call, and
parsing never changes them, so no call sees another's options.  Each call is
parsed once: when ``argv[0]`` names a subcommand, that subcommand's parser
alone reads the rest, and the top-level parser runs only for an ``argv`` that
names none, which always ends in help or a usage error.  An argparse usage
error (unknown option or choice, missing required option) raises
``SystemExit(2)`` as argparse does, after printing the usage of the parser
that found it: ``lbcolor solve``'s for an error after ``solve``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import traceback
from json.encoder import encode_basestring_ascii

from .classify import SOLVERS, auto_solver_name, solve_with
from .codec import _indented_json, _load, instance_to_doc, read_coloring, read_instance
from .errors import (
    DecompositionError,
    InstanceFormatError,
    NotACographError,
    OracleLimitError,
    UsageError,
)
from .generators import generate, source_from_doc
from .instance import _is_int, validate_coloring


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
    elapsed_ms}, as every document the package writes (see ``lbcolor.codec``).
    It is written out by hand, not through ``codec._indented_json``, and
    every solve pays it: the color list is joined directly and each scalar
    is rendered as the C encoder renders it (``_scalar``), with no
    ``json.dumps`` call for a string, an int or ``None``."""
    if not outcome.witness:
        witness = "null"
    elif colors := outcome.witness.color_of:
        witness = '{\n    "color_of": [\n      ' + ",\n      ".join(map(str, colors)) + "\n    ]\n  }"
    else:
        witness = '{\n    "color_of": []\n  }'
    return (
        f'{{\n  "status": {_scalar(outcome.status)},\n  "witness": {witness},\n'
        f'  "objective": {_scalar(outcome.objective)},\n  "solver_used": {_scalar(solver_used)},\n'
        f'  "elapsed_ms": {_scalar(elapsed_ms)}\n}}'
    )


def _scalar(value) -> str:
    """``json.dumps(value)``: a string through the encoder's own escaping,
    an int that is not a bool through ``int.__repr__`` (which raises past
    the digit limit, as the encoder does), and anything else through
    ``json.dumps`` itself."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if _is_int(value):
        return int.__repr__(value)
    if value is None:
        return "null"
    return json.dumps(value)


def cmd_generate(ns) -> int:
    result = generate(source_from_doc(_load(ns.source)), ns.variant)
    out = instance_to_doc(result.instance)
    out["metadata"] = result.metadata
    print(_indented_json(out))
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
    """The CLI's parser, built on the first call and shared afterwards.  Its
    ``commands`` attribute maps each subcommand's name to its own parser."""
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
    parser.commands = {"solve": ps, "generate": pg, "check": pc}
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # the top-level parser would scan all of argv and hand the rest to the
    # subcommand's parser, which scans it again; an argv that names no
    # subcommand only gets help or a usage error from it
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        ns = parser.parse_args(argv)
    else:
        ns = sub.parse_args(argv[1:])
        ns.command = argv[0]
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
