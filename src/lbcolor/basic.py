"""Solvers for edgeless instances, the per-component enumerator behind the
two-color and the cograph and split edge-coloring solvers, and the forced
colors that the DPs fix before they run."""

from __future__ import annotations

from .errors import UsageError
from .instance import ColoringInstance, RawDecomposition, SolveOutcome, bits
from .matching import CapacitatedBipartiteNetwork, max_flow_saturate
from .packed import PackedBounds


def part_weight_assignment(weights, choices, bound_row):
    """Assign one color per item so color c gathers exactly bound_row[c-1] weight.

    ``choices[i]`` holds the distinct colors item i may take.  An item with
    one color takes it before any DP: its weight leaves that color's entry
    of a plain-int copy of the row, and an entry below zero answers None.
    The other items are independent (no adjacency), so they are a
    reachability DP over packed partial weight vectors within the reduced
    row, one layer of reachable states per item.  Their colors are recovered
    backwards from the target: item i takes the first color whose step leads
    back into layer i.  Every prefix of a path to the target is reachable in
    any item order, so taking the fixed items out changes no choice.
    Returns the chosen colors, in item order, or None.
    """
    row = list(bound_row)
    chosen = []
    free = []  # (position, weight, colors) of the items left to the DP
    for i, (w, colors) in enumerate(zip(weights, choices)):
        if len(colors) == 1:
            (c,) = colors
            # plain ints: a packed sum of many fixed units could carry past a guard bit
            row[c - 1] -= w
            if row[c - 1] < 0:
                return None
            chosen.append(c)
        else:
            free.append((i, w, colors))
            chosen.append(0)
    packing = PackedBounds(row, max((w for _, w, _ in free), default=0))
    # weights are positive, so an item's colors give distinct steps
    steps = [{packing.unit(c - 1, w): c for c in sorted(colors)} for _, w, colors in free]
    picked = packing.choose(steps, "part_weight_assignment")
    if picked is None:
        return None
    for (i, _, _), c in zip(free, picked):
        chosen[i] = c
    return chosen


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


def assign_parts(inst: ColoringInstance, elements, lists, bounds, color_of) -> bool:
    """Color independent ``elements`` part by part, part 1 first: element
    ``elements[i]`` takes a color from ``lists[i]`` and each part h's colors
    gather exactly the row ``bounds[h-1]`` (``part_weight_assignment``).
    Writes the colors into ``color_of``; False when some part cannot fit.
    """
    for h, row in enumerate(bounds, start=1):
        members = [i for i, e in enumerate(elements) if inst.part_of[e] == h]
        colors = part_weight_assignment(
            [inst.weight[elements[i]] for i in members], [lists[i] for i in members], row
        )
        if colors is None:
            return False
        for i, c in zip(members, colors):
            color_of[elements[i]] = c
    return True


def solve_isolated_k_fixed(inst: ColoringInstance) -> SolveOutcome:
    """Edgeless instances with arbitrary weights; each part is independent."""
    _require_edgeless_vertex(inst, "solve_isolated_k_fixed")
    color_of = [0] * inst.n
    if not assign_parts(inst, range(inst.n), inst.allowed, inst.bounds, color_of):
        return SolveOutcome.infeasible_outcome()
    return SolveOutcome.feasible_from(inst, color_of)


def _fitting_colorings(order, earlier, units, packing) -> dict:
    """The proper list colorings of one component that fit the bounds, as
    {packed state: colors of ``order``}, the first found kept per state.

    ``earlier[i]`` lists the positions in ``order`` before i whose elements
    conflict with ``order[i]``.  Depth-first with an explicit stack of
    candidate lists, one per colored position, colors tried in increasing
    order.  A component of one element needs no stack: its fitting units,
    colors ascending, are its colorings, listed up to the target as the
    search would list them.
    """
    offset, guard, target = packing.offset, packing.guard, packing.target
    if len(order) == 1:
        found = {}
        for c, unit in units[order[0]].items():
            if not (unit + offset) & guard:
                found[unit] = (c,)
                if unit == target:
                    break
        return found
    last = len(order) - 1
    color = [0] * len(order)

    def candidates(i, state):
        # largest color first: pop() takes them in increasing order
        taken = {color[j] for j in earlier[i]}
        return [
            (c, x)
            for c, unit in reversed(units[order[i]].items())
            if c not in taken and not ((x := state + unit) + offset) & guard
        ]

    found = {}
    stack = [candidates(0, 0)]
    while stack:
        options = stack[-1]
        if not options:
            stack.pop()
            continue
        c, state = options.pop()
        i = len(stack) - 1
        color[i] = c
        if i == last:
            found.setdefault(state, tuple(color))
            if state == target:
                # it carries all the weight, so it is the only component
                break
        else:
            stack.append(candidates(i + 1, state))
    return found


def solve_by_components(inst: ColoringInstance, where: str) -> SolveOutcome:
    """Decide by listing, per connected component of the conflict graph, the
    colorings that fit the bounds, and combining the components' packed
    weight states through ``PackedBounds.choose``.

    Components have few colorings where the callers use this: at most two at
    k = 2, and few in edge mode once no vertex has more than k edges (more is
    infeasible at once).  Each component is walked breadth-first from its
    lowest element over ``conflict_masks``, neighbors in increasing order,
    so every later element conflicts with an earlier one and at k = 2 has at
    most one color left.  The walk of a component, and the positions of each
    element's earlier conflicts, are made inside the steps that ``choose``
    reads, so no component after an empty layer is walked or listed.
    ``where`` names the caller in errors.
    """
    if inst.mode == "edge" and any(mask.bit_count() > inst.k for mask in inst.neighbor_masks):
        return SolveOutcome.infeasible_outcome()
    m = inst.num_elements
    conflict = inst.conflict_masks
    units, packing = inst.units, inst.packing
    comps = []

    def listings():
        rank = [m] * m  # position in its component's walk, m until walked
        seen = 0
        for start in range(m):
            if seen >> start & 1:
                continue
            seen |= 1 << start
            order = [start]
            earlier = []
            for i, u in enumerate(order):  # the list grows while it is read: breadth-first
                rank[u] = i
                mask = conflict[u]
                earlier.append([r for j in bits(mask) if (r := rank[j]) < i])
                fresh = mask & ~seen
                seen |= fresh
                order.extend(bits(fresh))
            comps.append(order)
            yield _fitting_colorings(order, earlier, units, packing)

    chosen = packing.choose(listings(), where)
    if chosen is None:
        return SolveOutcome.infeasible_outcome()
    color_of = [0] * m
    for order, colors in zip(comps, chosen):
        for e, c in zip(order, colors):
            color_of[e] = c
    return SolveOutcome.feasible_from(inst, color_of)


def solve_components_k2(inst: ColoringInstance) -> SolveOutcome:
    """Two-color instances: a connected component has at most two proper
    colorings (none on an odd cycle), listed and combined by
    ``solve_by_components``."""
    if inst.mode != "vertex":
        raise UsageError("solve_components_k2: requires a vertex-mode instance")
    if inst.k != 2:
        raise UsageError("solve_components_k2: requires exactly 2 colors")
    return solve_by_components(inst, "solve_components_k2")


# ---------------------------------------------------------------------------
# forced colors


def forced_residual(inst: ColoringInstance):
    """Fix the colors that the lists and the bounds force, and return
    ``(color_of, residual, kept)``, or None when no valid coloring exists.

    Three rules run until none applies; each removes only colors that no
    valid coloring uses:

    - weight: color c leaves the list of element e when w(e) is more than
      what the fixed elements leave of the bound of (part(e), c);
    - singleton: an element with one color left takes it; its weight leaves
      that bound, and the color leaves its conflict neighbors' lists;
    - empty list: no valid coloring exists.

    ``color_of`` holds the fixed colors and 0 for the elements left unfixed,
    which ``kept`` lists in increasing order: element i of ``residual`` is
    element ``kept[i]`` of ``inst``, with its pruned list, under what is left
    of the bounds.  In vertex mode ``residual`` is the induced subgraph,
    relabelled in order, and carries a supplied decomposition restricted to
    it (bags less the fixed vertices) and, when the instance has cached one,
    the cotree restricted to it (``Cotree.restricted``), so the cotree is not
    built again; in edge mode it is G less the fixed edges, on which a
    supplied decomposition stays valid.  The valid
    colorings of ``inst`` are exactly the fixed colors joined with a valid
    coloring of ``residual``; with nothing kept, ``color_of`` is one, and
    the residual has no elements, no edges and all-zero bounds, built
    without a walk of the edges or a restricted cotree.
    """
    m, k = inst.num_elements, inst.k
    weight, part_of = inst.weight, inst.part_of
    conflict = inst.conflict_masks
    left = list(inst.bounds_flat)
    lists = [0] * m  # per element, its colors as a bitmask: color c is bit c - 1
    holders = [0] * k  # per color, the unfixed elements whose lists hold it
    for e, colors in enumerate(inst.allowed):
        for c in colors:
            lists[e] |= 1 << (c - 1)
            holders[c - 1] |= 1 << e
    color_of = [0] * m
    # per part, its elements heaviest first: the ones too heavy for what is
    # left of a bound are a prefix, which only grows as the bound falls
    heavy = [[] for _ in range(inst.p)]
    for e in sorted(range(m), key=weight.__getitem__, reverse=True):
        heavy[part_of[e] - 1].append(e)
    cut = [0] * len(left)  # per (part, color) slot, the prefix whose lists lost the color
    pending = list(range(len(left)))  # every bound is checked before the first fix
    single = [e for e in range(m) if not lists[e] & (lists[e] - 1)]
    while pending or single:
        if pending:
            slot, losers = pending.pop(), 0
        else:
            e = single.pop()
            c = lists[e].bit_length() - 1
            lists[e] = 0
            holders[c] ^= 1 << e
            color_of[e] = c + 1
            slot = (part_of[e] - 1) * k + c
            left[slot] -= weight[e]
            losers = conflict[e]
        # the weight rule on the bound that fell, so a fixed element always fits its bound
        members, end = heavy[slot // k], cut[slot]
        while end < len(members) and weight[members[end]] > left[slot]:
            losers |= 1 << members[end]
            end += 1
        cut[slot] = end
        c = slot % k
        bit = 1 << c
        for f in bits(losers & holders[c]):
            lists[f] ^= bit
            holders[c] ^= 1 << f
            if not lists[f]:
                return None
            if not lists[f] & (lists[f] - 1):
                single.append(f)

    kept = [e for e in range(m) if lists[e]]
    colors = {}  # per list bitmask, its frozenset, built once: few lists differ
    for e in kept:
        if lists[e] not in colors:
            colors[lists[e]] = frozenset([c + 1 for c in bits(lists[e])])
    allowed = tuple([colors[lists[e]] for e in kept])
    if len(kept) == m:
        residual = inst._derived(allowed=allowed)
        # the graph and the bounds are unchanged, and so is every cache but
        # the packed units of the lists
        for name, value in inst.__dict__.items():
            if name != "units":
                residual.__dict__.setdefault(name, value)
        return color_of, residual, kept

    def rows(seq):
        return tuple([seq[e] for e in kept])

    changes = {
        "part_of": rows(part_of),
        "weight": rows(weight),
        "allowed": allowed,
        "bounds": tuple([tuple(left[i : i + k]) for i in range(0, len(left), k)]),
        "profit": None if inst.profit is None else rows(inst.profit),
    }
    if inst.mode == "edge":
        changes["edges"] = rows(inst.edges)
    else:
        new = {v: i for i, v in enumerate(kept)}
        changes["n"] = len(kept)
        # a fully fixed instance leaves nothing to solve: its edges are not walked
        changes["edges"] = (
            tuple([(new[u], new[v]) for u, v in inst.edges if u in new and v in new]) if kept else ()
        )
        raw = inst.decomposition
        if raw is not None:
            # a decomposition of G restricts to one of the induced subgraph;
            # the treewidth runners check the supplied one before they get here
            bags = [[new[v] for v in bag if v in new] for bag in raw.bags]
            changes["decomposition"] = RawDecomposition(bags=bags, tree_edges=raw.tree_edges, root=raw.root)
    residual = inst._derived(**changes)
    found = inst.__dict__.get("cotree_or_prime")
    if kept and inst.mode == "vertex" and found is not None and not isinstance(found, list):
        # a cached cotree (not a prime module) restricts to the induced
        # subgraph's; an empty residual is never solved, so it needs none
        residual.__dict__["cotree_or_prime"] = found.restricted(kept)
    return color_of, residual, kept
