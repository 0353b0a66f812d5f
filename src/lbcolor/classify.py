"""Graph-class recognition and the solver auto-dispatch that reads it.

``ClassReport(inst)`` is the one view of an instance's graph classes: each
property reads the instance's cached class test on first access, so the
report, dispatch and the solvers share one run of each test.  Runners call
solver functions as module attributes (``treewidth.dp_vertex``), so a wrapper
set on such an attribute sees every call."""

from __future__ import annotations

from dataclasses import dataclass

from . import basic, cographs, split, treewidth
from .errors import UsageError
from .instance import ColoringInstance, SolveOutcome
from .oracle import brute_force_solve


@dataclass(frozen=True)
class ClassReport:
    """The graph classes of ``inst``, each tested lazily on the instance's
    cached results (``neighbor_masks``, ``split_partition``,
    ``complete_bipartite_sides``, ``cotree_or_prime``)."""

    inst: ColoringInstance

    @property
    def edgeless(self) -> bool:
        return not self.inst.edges

    @property
    def complete(self) -> bool:
        return cographs.is_complete(self.inst.n, self.inst.edges)

    @property
    def complete_bipartite(self) -> bool:
        return self.inst.complete_bipartite_sides is not None

    @property
    def split(self) -> bool:
        return self.inst.split_partition is not None

    @property
    def cograph(self) -> bool:
        # the empty graph's cotree has no nodes, so it counts as a cograph
        return isinstance(self.inst.cotree_or_prime, cographs.Cotree)


# ---------------------------------------------------------------------------
# solver registry

_DECIDE_ONLY = ("decide",)
_WITH_PROFIT = ("decide", "maximize", "minimize")


def _on_residual(inst, objective, solve):
    """Solve through ``basic.forced_residual``: ``solve(residual, objective)``
    runs only when elements are left unfixed, and its witness is lifted back
    onto ``inst``.  The residual's valid colorings are the restrictions of
    the instance's, so status and objective are those of ``inst``."""
    forced = basic.forced_residual(inst)
    if forced is None:
        return SolveOutcome.infeasible_outcome()
    color_of, residual, kept = forced
    if kept:
        outcome = solve(residual, objective)
        if not outcome.feasible:
            return outcome
        for e, c in zip(kept, outcome.witness.color_of):
            color_of[e] = c
    return SolveOutcome.feasible_from(inst, color_of)


# Each runner first makes, on the whole instance, the checks its
# decomposition or cotree build and its DP make, in their order: a residual
# may need no DP, and an error must not read as "infeasible".


def _check_supplied_decomposition(inst):
    if inst.decomposition is not None:
        treewidth.decomposition_tree(inst)  # DecompositionError, or UsageError in edge mode


def _run_treewidth(inst, objective):
    _check_supplied_decomposition(inst)
    if inst.mode != "vertex":
        raise UsageError("dp_vertex: requires a vertex-mode instance")
    return _on_residual(
        inst, objective, lambda r, obj: treewidth.dp_vertex(r, treewidth.build_nice_decomposition(r)[0], obj)
    )


def _run_cograph(inst, objective):
    if inst.mode != "vertex":
        raise UsageError("build_cotree: requires a vertex-mode instance")
    cographs.require_cograph(inst)
    return _on_residual(inst, objective, lambda r, obj: cographs.dp_cograph(r, cographs.build_cotree(r), obj))


def _run_treewidth_edge(inst, objective):
    _check_supplied_decomposition(inst)
    if inst.mode != "edge":
        raise UsageError("dp_edge: requires an edge-mode instance")
    return _on_residual(
        inst, objective, lambda r, obj: treewidth.dp_edge(r, treewidth.build_nice_decomposition(r)[0], obj)
    )


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


def auto_solver_name(inst: ColoringInstance, objective: str = "decide") -> str:
    """Most specific applicable solver, specialized classes before the DPs.
    Reads ``ClassReport(inst)`` in the order below, so only the class tests
    the choice reads run; the instance caches their results for the solver
    it picks."""
    report = ClassReport(inst)
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
