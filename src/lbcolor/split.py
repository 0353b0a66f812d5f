"""Split-graph recognition and the split-graph solvers."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .basic import assign_parts, solve_by_components, solve_isolated_unit
from .errors import UsageError
from .instance import ColoringInstance, SolveOutcome
from .matching import AssignmentProblem, max_weight_perfect_assignment


@dataclass(frozen=True)
class SplitPartition:
    clique: tuple[int, ...]
    independent: tuple[int, ...]


@dataclass(frozen=True)
class SingularSpec:
    """Colors whose bound column deviates from the shared constant column B."""

    singular: tuple[int, ...]
    common_bound: int


def split_partition_masks(nbr) -> SplitPartition | None:
    """Split partition via the degree-sequence splittance test, over the
    neighbor bitmasks ``nbr``.

    Returns the partition with the largest clique side; edgeless graphs are
    reported with an empty clique.  None when the graph is not split.
    """
    n = len(nbr)
    if not any(nbr):
        return SplitPartition(clique=(), independent=tuple(range(n)))
    degree = [mask.bit_count() for mask in nbr]
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    degs = [degree[v] for v in order]
    m = max(i + 1 for i in range(n) if degs[i] >= i)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = sorted(order[:m])
    independent = sorted(order[m:])
    # at most one independent vertex can be adjacent to the whole clique
    clique_mask = sum(1 << u for u in clique)
    for v in independent:
        if nbr[v] & clique_mask == clique_mask:
            clique = sorted(clique + [v])
            independent = [u for u in independent if u != v]
            break
    return SplitPartition(clique=tuple(clique), independent=tuple(independent))


def infer_singular_spec(inst: ColoringInstance) -> SingularSpec:
    """Derive (B, singular colors) from the bound matrix.

    B is the most frequent value among constant columns (ties toward the
    smaller value); the singular colors are exactly the columns that are not
    constant at B.  With no constant column at all there is no candidate B.
    """
    constant_values = {}
    for c in range(1, inst.k + 1):
        column = {inst.bounds[h][c - 1] for h in range(inst.p)}
        if len(column) == 1:
            value = column.pop()
            constant_values[value] = constant_values.get(value, 0) + 1
    if not constant_values:
        raise UsageError("infer_singular_spec: no bound column is constant across parts")
    common = min(constant_values, key=lambda v: (-constant_values[v], v))
    singular = tuple(
        c
        for c in range(1, inst.k + 1)
        if any(inst.bounds[h][c - 1] != common for h in range(inst.p))
    )
    return SingularSpec(singular=singular, common_bound=common)


def _require_split(inst: ColoringInstance, op: str) -> SplitPartition:
    if inst.mode != "vertex":
        raise UsageError(f"{op}: requires a vertex-mode instance")
    sp = inst.split_partition
    if sp is None:
        raise UsageError(f"{op}: the graph is not a split graph")
    return sp


def solve_split_k_fixed(inst: ColoringInstance) -> SolveOutcome:
    """Enumerate the proper list-colorings of the clique; each one leaves an
    edgeless residual instance on the independent set."""
    sp = _require_split(inst, "solve_split_k_fixed")
    clique, indep = list(sp.clique), list(sp.independent)
    if len(clique) > inst.k:
        return SolveOutcome.infeasible_outcome()

    nbr = inst.neighbor_masks
    for combo in product(*[sorted(inst.allowed[u]) for u in clique]):
        if len(set(combo)) != len(combo):
            continue
        residual = [list(row) for row in inst.bounds]
        ok = True
        for u, c in zip(clique, combo):
            residual[inst.part_of[u] - 1][c - 1] -= inst.weight[u]
            if residual[inst.part_of[u] - 1][c - 1] < 0:
                ok = False
                break
        if not ok:
            continue
        lists = []
        for v in indep:
            taken = {c for u, c in zip(clique, combo) if nbr[v] >> u & 1}
            rest = inst.allowed[v] - taken
            if not rest:
                ok = False
                break
            lists.append(rest)
        if not ok:
            continue
        color_of = [0] * inst.n
        for u, c in zip(clique, combo):
            color_of[u] = c
        if assign_parts(inst, indep, lists, residual, color_of):
            return SolveOutcome.feasible_from(inst, color_of)
    return SolveOutcome.infeasible_outcome()


def solve_split_singular(inst: ColoringInstance) -> SolveOutcome:
    """Split graphs where all bound columns except a few singular ones share a
    common value B, independent-set vertices are unweighted and unrestricted.

    Guesses, for each singular color, which clique vertex takes it (or that
    none does); a matching gives the remaining clique vertices distinct
    non-singular colors from their lists, each within B, and B-symmetry makes
    any such matching as good as another.  The residual independent set is
    solved by one saturating flow.
    """
    sp = _require_split(inst, "solve_split_singular")
    clique, indep = list(sp.clique), list(sp.independent)
    for v in indep:
        if inst.weight[v] != 1:
            raise UsageError("solve_split_singular: independent-set vertices must have weight 1")
        if len(inst.allowed[v]) != inst.k:
            raise UsageError("solve_split_singular: independent-set vertices must allow every color")
    spec = infer_singular_spec(inst)
    if len(clique) > inst.k:
        return SolveOutcome.infeasible_outcome()

    singular = list(spec.singular)
    nonsingular = [c for c in range(1, inst.k + 1) if c not in set(singular)]
    nbr = inst.neighbor_masks

    for guess in product(range(len(clique) + 1), repeat=len(singular)):
        picked = [i for i in guess if i > 0]
        if len(set(picked)) != len(picked):
            continue
        chosen = {}  # clique vertex -> singular color
        ok = True
        for c, g in zip(singular, guess):
            if g == 0:
                continue
            u = clique[g - 1]
            if c not in inst.allowed[u]:
                ok = False
                break
            if inst.bounds[inst.part_of[u] - 1][c - 1] < inst.weight[u]:
                ok = False
                break
            chosen[u] = c
        if not ok:
            continue
        remaining = [u for u in clique if u not in chosen]
        if len(remaining) > len(nonsingular):
            continue
        ap = AssignmentProblem(
            weights=tuple((0,) * len(nonsingular) for _ in remaining),
            allowed=tuple(
                tuple(
                    c in inst.allowed[u] and spec.common_bound >= inst.weight[u]
                    for c in nonsingular
                )
                for u in remaining
            ),
        )
        result = max_weight_perfect_assignment(ap)
        if result is None:
            continue
        for u, col in zip(remaining, result.columns):
            chosen[u] = nonsingular[col]

        residual = [list(row) for row in inst.bounds]
        for u, c in chosen.items():
            residual[inst.part_of[u] - 1][c - 1] -= inst.weight[u]
        if any(x < 0 for row in residual for x in row):
            continue

        lists = []
        ok = True
        for v in indep:
            taken = frozenset(chosen[u] for u in clique if nbr[v] >> u & 1)
            rest = frozenset(range(1, inst.k + 1)) - taken
            if not rest:
                ok = False
                break
            lists.append(rest)
        if not ok:
            continue
        # every field is in checked form, and each residual row sums to the
        # weight of its part's independent vertices, so no check runs again
        sub = inst._derived(
            n=len(indep),
            edges=(),
            part_of=tuple(inst.part_of[v] for v in indep),
            weight=tuple(inst.weight[v] for v in indep),
            bounds=tuple(tuple(row) for row in residual),
            allowed=tuple(lists),
            profit=None,
            decomposition=None,
        )
        outcome = solve_isolated_unit(sub)
        if outcome.feasible:
            color_of = [0] * inst.n
            for u, c in chosen.items():
                color_of[u] = c
            for i, v in enumerate(indep):
                color_of[v] = outcome.witness.color_of[i]
            return SolveOutcome.feasible_from(inst, color_of)
    return SolveOutcome.infeasible_outcome()


def solve_split_edges(inst: ColoringInstance) -> SolveOutcome:
    """Edge coloring in split graphs with few colors: every edge touches the
    clique, so with at most k edges at each vertex there are ``O(k^2)`` edges,
    and ``solve_by_components`` lists their colorings."""
    if inst.mode != "edge":
        raise UsageError("solve_split_edges: requires an edge-mode instance")
    if inst.split_partition is None:
        raise UsageError("solve_split_edges: the graph is not a split graph")
    return solve_by_components(inst, "solve_split_edges")
