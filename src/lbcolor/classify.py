"""Graph-class recognition and the solver auto-dispatch that reads it.

Runners call solver functions as module attributes (``treewidth.dp_vertex``),
so a wrapper set on such an attribute sees every call."""

from __future__ import annotations

from dataclasses import dataclass

from . import basic, cographs, split, treewidth
from .cographs import is_cograph, is_complete, is_complete_bipartite
from .errors import UsageError
from .instance import ColoringInstance, SolveOutcome
from .oracle import brute_force_solve
from .split import is_split


@dataclass(frozen=True)
class ClassReport:
    edgeless: bool
    complete: bool
    complete_bipartite: bool
    split: bool
    cograph: bool


def classify_graph(n: int, edges) -> ClassReport:
    return ClassReport(
        edgeless=not edges,
        complete=is_complete(n, edges),
        complete_bipartite=is_complete_bipartite(n, edges),
        split=is_split(n, edges),
        cograph=is_cograph(n, edges),
    )


# ---------------------------------------------------------------------------
# solver registry

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


SOLVERS = {
    # name: (objectives, runner(inst, objective))
    "oracle": (_WITH_PROFIT, lambda inst, obj: brute_force_solve(inst, obj)),
    "components-k2": (_DECIDE_ONLY, lambda inst, obj: basic.solve_components_k2(inst)),
    "isolated-unit": (_DECIDE_ONLY, lambda inst, obj: basic.solve_isolated_unit(inst)),
    "isolated-kfixed": (_DECIDE_ONLY, lambda inst, obj: basic.solve_isolated_k_fixed(inst)),
    "treewidth": (("decide", "maximize"), lambda inst, obj: _run_treewidth(inst, obj)),
    "cograph": (("decide", "maximize"), lambda inst, obj: _run_cograph(inst, obj)),
    "complete": (("decide", "maximize"), lambda inst, obj: cographs.solve_complete_graph(inst)),
    "complete-bipartite": (_DECIDE_ONLY, lambda inst, obj: cographs.solve_complete_bipartite(inst)),
    "split-kfixed": (_DECIDE_ONLY, lambda inst, obj: split.solve_split_k_fixed(inst)),
    "split-singular": (_DECIDE_ONLY, lambda inst, obj: split.solve_split_singular(inst)),
    "treewidth-edge": (("decide", "maximize"), lambda inst, obj: _run_treewidth_edge(inst, obj)),
    "cograph-edge": (_DECIDE_ONLY, lambda inst, obj: cographs.solve_cograph_edges(inst)),
    "split-edge": (_DECIDE_ONLY, lambda inst, obj: split.solve_split_edges(inst)),
}


def _instance_is_cograph(inst: ColoringInstance) -> bool:
    # recognition builds the instance's cotree, which the cotree solvers reuse
    return inst.n == 0 or isinstance(inst.cotree_or_prime, cographs.Cotree)


def auto_solver_name(inst: ColoringInstance, objective: str = "decide") -> str:
    """Most specific applicable solver, specialized classes before the DPs.
    Runs only the class tests the choice reads, in the order it reads them;
    the instance caches the split, complete-bipartite and cotree results for
    the solver it picks."""
    n, edges = inst.n, inst.edges
    if inst.mode == "edge":
        if objective != "decide":
            return "treewidth-edge"
        if inst.split_partition is not None:
            return "split-edge"
        if _instance_is_cograph(inst):
            return "cograph-edge"
        return "treewidth-edge"
    if objective == "decide":
        if is_complete(n, edges):
            return "complete"
        if inst.complete_bipartite_sides is not None:
            return "complete-bipartite"
        if not edges:
            return "isolated-unit" if inst.unit_weights else "isolated-kfixed"
        if inst.split_partition is not None:
            return "split-kfixed"
        if _instance_is_cograph(inst):
            return "cograph"
        return "treewidth"
    if is_complete(n, edges):
        return "complete"
    if _instance_is_cograph(inst):
        return "cograph"
    return "treewidth"


def solve_with(name: str, inst: ColoringInstance, objective: str = "decide") -> SolveOutcome:
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
        outcome = runner(inst.negated(), "maximize")
        if not outcome.feasible:
            return outcome
        return SolveOutcome.feasible_from(inst, outcome.witness.color_of)
    return runner(inst, objective)
