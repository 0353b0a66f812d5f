"""Command-line front end: solve, generate, and check subcommands.

Exit codes: 0 feasible / valid, 1 infeasible / invalid coloring, 2 usage or
structural error or any other failure.  ``solve`` prints exactly one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from dataclasses import replace

from . import basic, cographs, split, treewidth
from .classify import classify_graph
from .codec import instance_to_doc, read_coloring, read_instance
from .errors import (
    DecompositionError,
    InstanceFormatError,
    NotACographError,
    OracleLimitError,
    UsageError,
)
from .generators import generate, source_from_doc
from .instance import ColoringInstance, SolveOutcome, validate_coloring
from .oracle import brute_force_solve

_DECIDE_ONLY = ("decide",)
_WITH_PROFIT = ("decide", "maximize", "minimize")


def _run_treewidth(inst, objective):
    dec, _ = treewidth.build_nice_decomposition(inst)
    return treewidth.dp_vertex(inst, dec, objective)


def _run_cograph(inst, objective):
    ct = cographs.build_cotree(inst)
    return cographs.dp_cograph(inst, ct, objective)


def _run_treewidth_edge(inst, objective):
    dec, _ = treewidth.build_nice_decomposition(inst)
    return treewidth.dp_edge(inst, dec, objective)


def _run_cograph_edge(inst):
    ct = cographs.build_cotree_graph(inst.n, inst.edges) if inst.n else None
    return cographs.solve_cograph_edges(inst, ct)


SOLVERS = {
    # name: (objectives, runner(inst, objective, clique_general))
    "oracle": (_WITH_PROFIT, lambda inst, obj, cg: brute_force_solve(inst, obj)),
    "components-k2": (_DECIDE_ONLY, lambda inst, obj, cg: basic.solve_components_k2(inst)),
    "isolated-unit": (_DECIDE_ONLY, lambda inst, obj, cg: basic.solve_isolated_unit(inst)),
    "isolated-kfixed": (_DECIDE_ONLY, lambda inst, obj, cg: basic.solve_isolated_k_fixed(inst)),
    "treewidth": (("decide", "maximize"), lambda inst, obj, cg: _run_treewidth(inst, obj)),
    "cograph": (("decide", "maximize"), lambda inst, obj, cg: _run_cograph(inst, obj)),
    "complete": (("decide", "maximize"), lambda inst, obj, cg: cographs.solve_complete_graph(inst)),
    "complete-bipartite": (
        _DECIDE_ONLY,
        lambda inst, obj, cg: cographs.solve_complete_bipartite(inst),
    ),
    "split-kfixed": (_DECIDE_ONLY, lambda inst, obj, cg: split.solve_split_k_fixed(inst)),
    "split-singular": (
        _DECIDE_ONLY,
        lambda inst, obj, cg: split.solve_split_singular(inst, clique_general=cg),
    ),
    "treewidth-edge": (("decide", "maximize"), lambda inst, obj, cg: _run_treewidth_edge(inst, obj)),
    "cograph-edge": (_DECIDE_ONLY, lambda inst, obj, cg: _run_cograph_edge(inst)),
    "split-edge": (_DECIDE_ONLY, lambda inst, obj, cg: split.solve_split_edges(inst)),
}


def auto_solver_name(inst: ColoringInstance, objective: str = "decide") -> str:
    """Most specific applicable solver, specialized classes before the DPs."""
    report = classify_graph(inst.n, inst.edges)
    if inst.mode == "edge":
        if objective != "decide":
            return "treewidth-edge"
        if report.split:
            return "split-edge"
        if report.cograph:
            return "cograph-edge"
        return "treewidth-edge"
    if objective == "decide":
        if report.complete:
            return "complete"
        if report.complete_bipartite:
            return "complete-bipartite"
        if report.edgeless:
            return "isolated-unit" if inst.unit_weights else "isolated-kfixed"
        if report.split:
            return "split-kfixed"
        if report.cograph:
            return "cograph"
        return "treewidth"
    if report.complete:
        return "complete"
    if report.cograph:
        return "cograph"
    return "treewidth"


def solve_with(name: str, inst: ColoringInstance, objective: str = "decide", clique_general: bool = False) -> SolveOutcome:
    """Run a registry solver; minimize runs as maximize over negated profits."""
    if name not in SOLVERS:
        raise UsageError(f"unknown solver {name!r}")
    objectives, runner = SOLVERS[name]
    effective = "maximize" if objective == "minimize" and name != "oracle" else objective
    if effective not in objectives:
        raise UsageError(f"solver {name!r} does not support objective {objective!r}")
    if objective in ("maximize", "minimize") and inst.profit is None:
        raise UsageError(f"objective {objective!r} requires a profit matrix")
    if objective == "minimize" and name != "oracle":
        negated = replace(inst, profit=tuple(tuple(-x for x in row) for row in inst.profit))
        outcome = runner(negated, "maximize", clique_general)
        if not outcome.feasible:
            return outcome
        return SolveOutcome.feasible_from(inst, outcome.witness.color_of)
    return runner(inst, objective, clique_general)


def cmd_solve(ns) -> int:
    inst = read_instance(ns.input)
    name = ns.solver
    if name == "auto":
        name = auto_solver_name(inst, ns.objective)
    started = time.perf_counter()
    outcome = solve_with(name, inst, ns.objective, ns.clique_general)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    doc = {
        "status": outcome.status,
        "witness": {"color_of": list(outcome.witness.color_of)} if outcome.witness else None,
        "objective": outcome.objective,
        "solver_used": name,
        "elapsed_ms": elapsed_ms,
    }
    print(json.dumps(doc, indent=2))
    return 0 if outcome.feasible else 1


def cmd_generate(ns) -> int:
    with open(ns.source, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"malformed JSON: {exc}") from exc
    result = generate(source_from_doc(doc), ns.variant)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbcolor", description="Locally bounded list-coloring solvers and generators."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance document")
    ps.add_argument("--input", required=True, help="instance JSON path")
    ps.add_argument("--solver", default="auto", choices=["auto", *SOLVERS])
    ps.add_argument("--objective", default="decide", choices=["decide", "maximize", "minimize"])
    ps.add_argument("--clique-general", action="store_true", dest="clique_general",
                    help="allow clique lists/weights in the singular-color solver")
    ps.set_defaults(fn=cmd_solve)

    pg = sub.add_parser("generate", help="generate an instance from a source problem")
    pg.add_argument("--source", required=True, help="source problem JSON path")
    pg.add_argument("--variant", default=None)
    pg.set_defaults(fn=cmd_generate)

    pc = sub.add_parser("check", help="validate a coloring against an instance")
    pc.add_argument("--input", required=True)
    pc.add_argument("--coloring", required=True)
    pc.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.fn(ns)
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
