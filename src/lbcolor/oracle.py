"""Exhaustive brute-force solver, used as the reference oracle in tests."""

from __future__ import annotations

from itertools import product

from .errors import OracleLimitError, UsageError
from .instance import ColoringInstance, SolveOutcome, bits

DEFAULT_CAP = 10_000_000

OBJECTIVES = ("decide", "maximize", "minimize")


def brute_force_solve(
    inst: ColoringInstance, objective: str = "decide", cap: int = DEFAULT_CAP
) -> SolveOutcome:
    """Enumerate every total assignment and keep the first/best valid one.

    Assignments are scanned in lexicographic order of element colors, so
    ``decide`` returns the lexicographically smallest valid coloring and
    ``maximize``/``minimize`` break profit ties the same way; properness is
    tested on the conflicting pairs read off ``inst.conflict_masks``.
    Refuses to run when k ** num_elements exceeds ``cap``.
    """
    if objective not in OBJECTIVES:
        raise UsageError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    m = inst.num_elements
    if inst.k ** m > cap:
        raise OracleLimitError(
            f"instance too large for oracle: {inst.k}^{m} assignments exceed cap {cap}"
        )
    if objective != "decide" and inst.profit is None:
        raise UsageError(f"objective {objective!r} requires a profit matrix")

    conflicts = [(a, b) for a, mask in enumerate(inst.conflict_masks) for b in bits(mask) if a < b]
    target = list(inst.bounds_flat)
    slot = [(h - 1) * inst.k - 1 for h in inst.part_of]  # add color to get flat index
    weights = inst.weight
    # Assignments breaking list membership can never be valid, so enumerating
    # the product of allowed lists visits exactly the candidates that matter.
    choices = [sorted(colors) for colors in inst.allowed]

    best_cols = best_profit = None
    sign = -1 if objective == "minimize" else 1
    for cols in product(*choices):
        for a, b in conflicts:
            if cols[a] == cols[b]:
                break
        else:  # proper
            tally = [0] * len(target)
            for e in range(m):
                tally[slot[e] + cols[e]] += weights[e]
            if tally != target:
                continue
            if objective == "decide":
                return SolveOutcome.feasible_from(inst, cols)
            value = sign * sum(inst.profit[e][cols[e] - 1] for e in range(m))
            if best_profit is None or value > best_profit:
                best_profit = value
                best_cols = cols
    if best_cols is None:
        return SolveOutcome.infeasible_outcome()
    return SolveOutcome.feasible_from(inst, best_cols)
