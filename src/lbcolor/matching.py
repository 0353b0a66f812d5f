"""Bipartite flow and assignment primitives for the special-case solvers."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceFormatError


@dataclass(frozen=True)
class CapacitatedBipartiteNetwork:
    """Bipartite supply/demand network; arcs are (left, right, capacity)."""

    left_supply: tuple[int, ...]
    right_demand: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "left_supply", tuple(self.left_supply))
        object.__setattr__(self, "right_demand", tuple(self.right_demand))
        object.__setattr__(self, "arcs", tuple(tuple(a) for a in self.arcs))
        if any(s < 0 for s in self.left_supply) or any(d < 0 for d in self.right_demand):
            raise InstanceFormatError("network: supplies and demands must be non-negative")
        for i, (l, r, cap) in enumerate(self.arcs):
            if not (0 <= l < len(self.left_supply) and 0 <= r < len(self.right_demand)):
                raise InstanceFormatError(f"network.arcs[{i}]: endpoint out of range")
            if cap < 1:
                raise InstanceFormatError(f"network.arcs[{i}]: capacity must be positive")


@dataclass(frozen=True)
class FlowResult:
    value: int
    arc_flow: tuple[int, ...]
    saturated: bool


def max_flow_saturate(net: CapacitatedBipartiteNetwork) -> FlowResult:
    """Integral max flow by shortest augmenting paths (BFS).

    ``saturated`` is true iff the flow value equals the total left supply.
    """
    nl, nr = len(net.left_supply), len(net.right_demand)
    source, sink = nl + nr, nl + nr + 1
    size = nl + nr + 2
    # edge list with residuals: [to, capacity]; paired edges at 2i / 2i+1
    edge_to: list[int] = []
    edge_cap: list[int] = []
    adj: list[list[int]] = [[] for _ in range(size)]

    def add_edge(u, v, cap):
        adj[u].append(len(edge_to))
        edge_to.append(v)
        edge_cap.append(cap)
        adj[v].append(len(edge_to))
        edge_to.append(u)
        edge_cap.append(0)

    for i, s in enumerate(net.left_supply):
        if s > 0:
            add_edge(source, i, s)
    arc_edge_id = []
    for (l, r, cap) in net.arcs:
        arc_edge_id.append(len(edge_to))
        add_edge(l, nl + r, cap)
    for j, d in enumerate(net.right_demand):
        if d > 0:
            add_edge(nl + j, sink, d)

    value = 0
    while True:
        prev_edge = [-1] * size
        prev_edge[source] = -2
        queue = deque([source])
        while queue and prev_edge[sink] == -1:
            u = queue.popleft()
            for eid in adj[u]:
                v = edge_to[eid]
                if edge_cap[eid] > 0 and prev_edge[v] == -1:
                    prev_edge[v] = eid
                    queue.append(v)
        if prev_edge[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            eid = prev_edge[v]
            bottleneck = edge_cap[eid] if bottleneck is None else min(bottleneck, edge_cap[eid])
            v = edge_to[eid ^ 1]
        v = sink
        while v != source:
            eid = prev_edge[v]
            edge_cap[eid] -= bottleneck
            edge_cap[eid ^ 1] += bottleneck
            v = edge_to[eid ^ 1]
        value += bottleneck

    flows = tuple(edge_cap[eid ^ 1] for eid in arc_edge_id)
    return FlowResult(value=value, arc_flow=flows, saturated=value == sum(net.left_supply))


@dataclass(frozen=True)
class AssignmentProblem:
    """Row-to-column assignment with weights to maximize; forbidden cells masked out."""

    weights: tuple[tuple[int, ...], ...]
    allowed: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(r) for r in self.weights))
        object.__setattr__(self, "allowed", tuple(tuple(r) for r in self.allowed))
        if len(self.weights) != len(self.allowed):
            raise InstanceFormatError("assignment: weights and allowed differ in row count")
        cols = {len(r) for r in self.weights} | {len(r) for r in self.allowed}
        if len(cols) > 1:
            raise InstanceFormatError("assignment: ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.weights)

    @property
    def cols(self) -> int:
        return len(self.weights[0]) if self.weights else 0


@dataclass(frozen=True)
class AssignmentResult:
    columns: tuple[int, ...]  # column matched to each row
    total: int


def max_weight_perfect_assignment(ap: AssignmentProblem) -> AssignmentResult | None:
    """Maximum-weight assignment matching every row, or None if no row-perfect
    assignment avoids the forbidden cells.

    Solved by a potentials-based augmenting scheme (the Hungarian method),
    which tests check against exhaustive search over injections.
    """
    if ap.rows == 0:
        return AssignmentResult(columns=(), total=0)
    if ap.rows > ap.cols:
        return None
    return _hungarian_assignment(ap)


def _hungarian_assignment(ap: AssignmentProblem) -> AssignmentResult | None:
    # Minimization form with 1-based sentinels; forbidden cells get a cost so
    # large that any assignment using one is worse than every clean assignment.
    rows, cols = ap.rows, ap.cols
    all_w = [w for row in ap.weights for w in row]
    top = max(all_w)
    spread = top - min(all_w) + 1
    big = spread * (rows + 1) + 1
    cost = [
        [top - ap.weights[r][c] if ap.allowed[r][c] else big for c in range(cols)]
        for r in range(rows)
    ]
    INF = big * (rows + 2)
    u = [0] * (rows + 1)
    v = [0] * (cols + 1)
    match = [0] * (cols + 1)  # row matched to column (1-based), 0 = free
    for r in range(1, rows + 1):
        match[0] = r
        j0 = 0
        minv = [INF] * (cols + 1)
        used = [False] * (cols + 1)
        prev = [0] * (cols + 1)
        while True:
            used[j0] = True
            r0 = match[j0]
            delta = INF
            j1 = -1
            for j in range(1, cols + 1):
                if used[j]:
                    continue
                cur = cost[r0 - 1][j - 1] - u[r0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    # remember where the best reduced cost came from
                    prev[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(cols + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = prev[j0]
            match[j0] = match[j1]
            j0 = j1
    columns = [-1] * rows
    total = 0
    for j in range(1, cols + 1):
        if match[j]:
            r = match[j] - 1
            if not ap.allowed[r][j - 1]:
                return None
            columns[r] = j - 1
            total += ap.weights[r][j - 1]
    if any(c < 0 for c in columns):
        return None
    return AssignmentResult(columns=tuple(columns), total=total)
