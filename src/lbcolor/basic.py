"""Solvers for edgeless instances and for two colors via per-component choices."""

from __future__ import annotations

from .errors import UsageError
from .instance import ColoringInstance, SolveOutcome, bits
from .matching import CapacitatedBipartiteNetwork, max_flow_saturate
from .packed import PackedBounds


def part_weight_assignment(weights, choices, bound_row):
    """Assign one color per item so color c gathers exactly bound_row[c-1] weight.

    ``choices[i]`` lists the colors item i may take.  Items are independent
    (no adjacency), so this is a reachability DP over packed partial weight
    vectors, one layer of reachable states per item.  The colors are
    recovered backwards from the target: item i takes the first color whose
    step leads back into layer i.  Returns the chosen colors or None.
    """
    packing = PackedBounds(bound_row, max(weights, default=0))
    # weights are positive, so an item's colors give distinct steps
    steps = [{packing.unit(c - 1, w): c for c in sorted(choices[i])} for i, w in enumerate(weights)]
    return packing.choose(steps, "part_weight_assignment")


def _require_edgeless_vertex(inst: ColoringInstance, op: str) -> None:
    if inst.mode != "vertex":
        raise UsageError(f"{op}: requires a vertex-mode instance")
    if inst.edges:
        raise UsageError(f"{op}: requires a graph with no edges")


def solve_isolated_unit(inst: ColoringInstance) -> SolveOutcome:
    """Edgeless unit-weight instances, via one saturating flow.

    Each vertex supplies one unit; each (part, color) slot demands its bound.
    A vertex can route to slot (h, c) iff it lies in part h and c is in its
    list, so a saturating flow is exactly a valid coloring.
    """
    _require_edgeless_vertex(inst, "solve_isolated_unit")
    if not inst.unit_weights:
        raise UsageError("solve_isolated_unit: requires all weights equal to 1")

    k = inst.k
    slots = inst.p * k
    arcs = []
    for v in range(inst.n):
        h = inst.part_of[v]
        for c in sorted(inst.allowed[v]):
            arcs.append((v, (h - 1) * k + (c - 1), 1))
    net = CapacitatedBipartiteNetwork(
        left_supply=(1,) * inst.n,
        right_demand=inst.bounds_flat if slots else (),
        arcs=tuple(arcs),
    )
    result = max_flow_saturate(net)
    if not result.saturated:
        return SolveOutcome.infeasible_outcome()
    color_of = [0] * inst.n
    for (v, slot, _cap), f in zip(net.arcs, result.arc_flow):
        if f:
            color_of[v] = slot % k + 1
    return SolveOutcome.feasible_from(inst, color_of)


def solve_isolated_k_fixed(inst: ColoringInstance) -> SolveOutcome:
    """Edgeless instances with arbitrary weights; each part is independent."""
    _require_edgeless_vertex(inst, "solve_isolated_k_fixed")
    color_of = [0] * inst.n
    for h in range(1, inst.p + 1):
        members = [v for v in range(inst.n) if inst.part_of[v] == h]
        colors = part_weight_assignment(
            [inst.weight[v] for v in members],
            [inst.allowed[v] for v in members],
            inst.bounds[h - 1],
        )
        if colors is None:
            return SolveOutcome.infeasible_outcome()
        for v, c in zip(members, colors):
            color_of[v] = c
    return SolveOutcome.feasible_from(inst, color_of)


def _components(n, nbr):
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v in bits(nbr[u]):
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def solve_components_k2(inst: ColoringInstance) -> SolveOutcome:
    """Two-color instances: each bipartite component has at most two proper
    colorings, and components combine through a DP over per-part color-1
    weights (color-2 weights are fixed by the part totals)."""
    if inst.mode != "vertex":
        raise UsageError("solve_components_k2: requires a vertex-mode instance")
    if inst.k != 2:
        raise UsageError("solve_components_k2: requires exactly 2 colors")

    nbr = inst.neighbor_masks
    caps = tuple(inst.bounds[h][0] for h in range(inst.p))
    # a component's color-1 weight in a part is at most the part's total weight
    packing = PackedBounds(caps, max(sum(row) for row in inst.bounds))

    options_per_comp = []
    comps = _components(inst.n, nbr)
    for comp in comps:
        side = {comp[0]: 0}
        stack = [comp[0]]
        while stack:
            u = stack.pop()
            for v in bits(nbr[u]):
                if v not in side:
                    side[v] = side[u] ^ 1
                    stack.append(v)
                elif side[v] == side[u]:
                    return SolveOutcome.infeasible_outcome()  # odd cycle
        options = {}
        for flip in (0, 1):
            coloring = {v: (side[v] ^ flip) + 1 for v in comp}
            if any(coloring[v] not in inst.allowed[v] for v in comp):
                continue
            vec = [0] * inst.p
            for v in comp:
                if coloring[v] == 1:
                    vec[inst.part_of[v] - 1] += inst.weight[v]
            options.setdefault(packing.pack(vec), coloring)
        if not options:
            return SolveOutcome.infeasible_outcome()
        options_per_comp.append(options)

    chosen = packing.choose(options_per_comp, "solve_components_k2")
    if chosen is None:
        return SolveOutcome.infeasible_outcome()
    color_of = [0] * inst.n
    for coloring in chosen:
        for v, c in coloring.items():
            color_of[v] = c
    return SolveOutcome.feasible_from(inst, color_of)
