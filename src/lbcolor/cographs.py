"""Cotrees, the cograph coloring DP, and the complete/complete-bipartite solvers."""

from __future__ import annotations

from dataclasses import dataclass

from .basic import part_weight_assignment, solve_by_components
from .errors import NotACographError, UsageError
from .instance import ColoringInstance, SolveOutcome, bits
from .matching import AssignmentProblem, max_weight_perfect_assignment
from .packed import first_predecessor


@dataclass(frozen=True)
class Cotree:
    """Binary cotree: leaves carry graph vertices, internal nodes are union/join.
    The empty graph's cotree has no nodes (root -1)."""

    kinds: tuple[str, ...]  # "leaf" | "union" | "join"
    children: tuple[tuple[int, ...], ...]
    vertex: tuple[int | None, ...]
    root: int

    def post_order(self):
        order = []
        stack = [self.root] if self.kinds else []
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        order.reverse()
        return order

    def leaves_under(self):
        """Per node, the sorted tuple of graph vertices below it."""
        below = [None] * len(self.kinds)
        for node in self.post_order():
            if self.kinds[node] == "leaf":
                below[node] = (self.vertex[node],)
            else:
                acc = []
                for ch in self.children[node]:
                    acc.extend(below[ch])
                below[node] = tuple(sorted(acc))
        return below

    def restricted(self, kept) -> "Cotree":
        """The cotree of the subgraph induced on ``kept`` (increasing),
        vertex ``kept[i]`` relabelled i: the other leaves are dropped and a
        node left with one child is replaced by it.  Two kept vertices keep
        their lowest common ancestor, and with it their adjacency."""
        new = {v: i for i, v in enumerate(kept)}
        kinds, children, vertex = [], [], []
        image = [-1] * len(self.kinds)  # per node, its node in the restriction, or -1
        for node in self.post_order():
            if self.kinds[node] == "leaf":
                v = new.get(self.vertex[node])
                if v is None:
                    continue
                kids = ()
            else:
                kids = tuple([image[ch] for ch in self.children[node] if image[ch] >= 0])
                if len(kids) < 2:
                    image[node] = kids[0] if kids else -1
                    continue
                v = None
            image[node] = len(kinds)
            kinds.append(self.kinds[node])
            children.append(kids)
            vertex.append(v)
        # the root's image is the last node made (-1 when nothing is kept)
        return Cotree(kinds=tuple(kinds), children=tuple(children), vertex=tuple(vertex), root=len(kinds) - 1)


def find_induced_p4(vertices, nbr):
    """An induced path a-b-c-d among ``vertices``, the lexicographically
    first by (a, b, c, d), so reported from its smaller end; None if there is
    none.  ``nbr`` holds each vertex's neighbor bitmask; the search is a
    depth-first search along those masks over the vertices."""
    vertices = sorted(vertices)
    inside = sum(1 << v for v in vertices)
    nbr = {v: nbr[v] & inside for v in vertices}
    for a in vertices:
        not_a = ~(nbr[a] | 1 << a)
        for b in bits(nbr[a]):
            for c in bits(nbr[b] & not_a):
                ds = nbr[c] & not_a & ~(nbr[b] | 1 << b)
                if ds:
                    return a, b, c, (ds & -ds).bit_length() - 1
    return None


def _cotree_or_prime(n: int, nbr) -> Cotree | list[int]:
    """Cotree construction over the neighbor bitmasks ``nbr``, with an
    explicit stack, so deep cotrees (threshold graphs) never recurse.  Off
    cographs it returns the sorted vertices of the first module that is
    neither a union nor a join (it contains an induced P4).  Modules are
    vertex bitmasks, and each level costs one mask step per vertex.  A
    union's parts are connected and a join's co-connected, so below the
    root each module needs one pass: a part of a union splits only in the
    complement, a part of a join only in G, and one part means prime.

    A module of one or two vertices closes at once, without a search: a
    leaf, or two leaves under a join if they are adjacent and a union if not
    (two vertices are connected only when adjacent, co-connected only when
    not).  After a large part, the small parts that follow it fold into the
    running node where they stand, in the order and with the node numbers
    the frames would give them."""
    kinds, children, vertex = [], [], []

    def add(kind, kids=(), v=None):
        kinds.append(kind)
        children.append(tuple(kids))
        vertex.append(v)
        return len(kinds) - 1

    def small(vset):
        """The node of the module ``vset`` when it has one or two vertices,
        else None (and no node is made)."""
        rest = vset & (vset - 1)
        if not rest:
            return add("leaf", v=vset.bit_length() - 1)
        if rest & (rest - 1):
            return None
        a, b = (vset ^ rest).bit_length() - 1, rest.bit_length() - 1
        left = add("leaf", v=a)
        return add("join" if nbr[a] >> b & 1 else "union", (left, add("leaf", v=b)))

    def comps(vset, complement):
        """The components of G[vset], or of its complement, lowest vertex first."""
        left = vset
        out = []
        while left:
            seen = frontier = left & -left
            while frontier and seen != left:
                low = frontier & -frontier
                frontier ^= low
                reach = nbr[low.bit_length() - 1]
                new = (~reach if complement else reach) & left & ~seen
                seen |= new
                frontier |= new
            out.append(seen)
            left &= ~seen
        return out

    def split_module(vset, parent):
        """How the module ``vset``, a part of a ``parent`` node (None at the
        root), splits."""
        if parent != "union":
            parts = comps(vset, False)
            if len(parts) > 1:
                return "union", parts
            if parent == "join":
                return "prime", None
        parts = comps(vset, True)
        if len(parts) == 1:
            return "prime", None
        return "join", parts

    if n == 0:  # the empty graph is a cograph whose cotree has no nodes
        return Cotree(kinds=(), children=(), vertex=(), root=-1)
    # frames [kind, parts, next part, node so far]; parts fold left into binary nodes
    frames = []
    vset = (1 << n) - 1
    while True:
        while (node := small(vset)) is None:
            kind, parts = split_module(vset, frames[-1][0] if frames else None)
            if kind == "prime":
                return list(bits(vset))
            frames.append([kind, parts, 1, None])
            vset = parts[0]
        while frames:
            frame = frames[-1]
            kind, parts, nxt, top = frame
            if top is not None:
                node = add(kind, (top, node))
            while nxt < len(parts) and (part := small(parts[nxt])) is not None:
                node = add(kind, (node, part))
                nxt += 1
            if nxt < len(parts):
                frame[2:] = [nxt + 1, node]
                vset = parts[nxt]
                break
            frames.pop()
        else:
            return Cotree(kinds=tuple(kinds), children=tuple(children), vertex=tuple(vertex), root=node)


def require_cograph(inst: ColoringInstance) -> Cotree:
    """The instance's cotree; off cographs, NotACographError naming an
    induced P4."""
    found = inst.cotree_or_prime
    if not isinstance(found, Cotree):
        raise NotACographError(find_induced_p4(found, inst.neighbor_masks))
    return found


def build_cotree(inst: ColoringInstance) -> Cotree:
    """The instance's cotree (built once per instance, see
    ``ColoringInstance.cotree_or_prime``)."""
    if inst.mode != "vertex":
        raise UsageError("build_cotree: requires a vertex-mode instance")
    return require_cograph(inst)


# ---------------------------------------------------------------------------
# cotree DP


def dp_cograph(inst: ColoringInstance, ct: Cotree, objective: str = "decide") -> SolveOutcome:
    """Coloring DP over a cotree.

    A node's table maps its subgraph's reachable packed weight vectors (see
    ``packed``) to the best profit each reaches; to decide, every profit is
    0 (``ColoringInstance.color_profits``), so decide is maximize over zero
    profits.  At union nodes child states simply add; at join nodes they add
    under the exclusivity rule that each color draws weight from at most one
    child, which is what keeps the combined coloring proper across the join.
    The witness is recovered top-down: each state splits into a left state
    and its complement in the right table with the same total profit.
    """
    if inst.mode != "vertex":
        raise UsageError("dp_cograph: requires a vertex-mode instance")
    if objective not in ("decide", "maximize"):
        raise UsageError(f"dp_cograph: objective must be decide or maximize, got {objective!r}")
    maximize = objective == "maximize"
    if maximize and inst.profit is None:
        raise UsageError("dp_cograph: maximize requires a profit matrix")
    if not ct.kinds:  # the empty graph: its bounds are all zero, met by the empty coloring
        return SolveOutcome.feasible_from(inst, [])

    packing = inst.packing
    k = inst.k
    tables: list = [None] * len(ct.kinds)

    units = inst.units
    profits = inst.color_profits(maximize)
    # adding half - 1 to a field sets its guard bit iff the field is nonzero;
    # folding the parts' blocks onto the first leaves one guard bit per color
    nonzero = packing.guard - (packing.guard >> (packing.width - 1))
    block = k * packing.width
    first_block = packing.mask(range(k))

    # shifts of 1, 2, 4, ... blocks: after j of them the first block holds
    # the OR of the first 2^j blocks, and the blocks past the p-th are zero
    folds = [block << j for j in range((inst.p - 1).bit_length())]

    def colors(state):
        """The guard bits of the colors that carry weight in some part."""
        used = (state + nonzero) & packing.guard
        for shift in folds:
            used |= used >> shift
        return used & first_block

    def by_colors(table):
        """The table split by the colors its states use."""
        groups = {}
        for state, q in table.items():
            groups.setdefault(colors(state), {})[state] = q
        return groups

    for node in ct.post_order():
        kind = ct.kinds[node]
        if kind == "leaf":
            v = ct.vertex[node]
            # one field per color, so no two colors make the same state
            table = {u: profits[v][c] for c, u in units[v].items() if packing.fits(u)}
        elif kind == "union":
            lt, rt = (tables[child] for child in ct.children[node])
            table = packing.best_sums(lt, rt)
        else:  # join: pair only states whose colors are disjoint
            lgroups, rgroups = (by_colors(tables[child]) for child in ct.children[node])
            table = {}
            for lmask, lt in lgroups.items():
                for rmask, rt in rgroups.items():
                    if not lmask & rmask:
                        packing.best_sums(lt, rt, table)
        tables[node] = table

    target = packing.target
    if target not in tables[ct.root]:
        return SolveOutcome.infeasible_outcome()

    color_of = [0] * inst.n
    stack = [(ct.root, target)]
    while stack:
        node, state = stack.pop()
        if ct.kinds[node] == "leaf":
            v = ct.vertex[node]
            color_of[v] = first_predecessor((c for c, u in units[v].items() if u == state), "dp_cograph leaf")
            continue
        profit = tables[node][state]
        left, right = ct.children[node]
        lt, rt = tables[left], tables[right]
        joining = ct.kinds[node] == "join"
        a = first_predecessor(
            (
                a
                for a, pa in lt.items()
                if rt.get(b := state - a) == profit - pa and not (joining and colors(a) & colors(b))
            ),
            "dp_cograph",
        )
        stack.append((left, a))
        stack.append((right, state - a))
    return SolveOutcome.feasible_from(inst, color_of)


# ---------------------------------------------------------------------------
# complete graphs


def is_complete(n: int, edges) -> bool:
    return len(edges) == n * (n - 1) // 2


def solve_complete_graph(inst: ColoringInstance) -> SolveOutcome:
    """Complete graphs: every color is used exactly once, so after dropping
    all-zero bound columns, vertices match to compatible colors via a
    maximum-weight assignment (weights are profits when supplied)."""
    if inst.mode != "vertex":
        raise UsageError("solve_complete_graph: requires a vertex-mode instance")
    if not is_complete(inst.n, inst.edges):
        raise UsageError("solve_complete_graph: the graph is not complete")

    kept = [c for c in range(1, inst.k + 1) if any(inst.bounds[h][c - 1] for h in range(inst.p))]
    if len(kept) != inst.n:
        return SolveOutcome.infeasible_outcome()
    owner = {}
    for c in kept:
        positive = [h for h in range(1, inst.p + 1) if inst.bounds[h - 1][c - 1] > 0]
        if len(positive) != 1:
            return SolveOutcome.infeasible_outcome()
        owner[c] = positive[0]

    weights = []
    allowed = []
    for v in range(inst.n):
        wrow, arow = [], []
        for c in kept:
            h = owner[c]
            ok = (
                c in inst.allowed[v]
                and inst.part_of[v] == h
                and inst.weight[v] == inst.bounds[h - 1][c - 1]
            )
            arow.append(ok)
            wrow.append(inst.profit_of(v, c))
        weights.append(tuple(wrow))
        allowed.append(tuple(arow))
    result = max_weight_perfect_assignment(
        AssignmentProblem(weights=tuple(weights), allowed=tuple(allowed))
    )
    if result is None:
        return SolveOutcome.infeasible_outcome()
    return SolveOutcome.feasible_from(inst, [kept[c] for c in result.columns])


# ---------------------------------------------------------------------------
# complete bipartite graphs


def complete_bipartite_masks(nbr):
    """Sides (A, B) when the graph with neighbor bitmasks ``nbr`` is complete
    bipartite with edges, else None: B must be N(0), A the rest, and every
    vertex must see exactly the other side."""
    side_b = nbr[0] if nbr else 0
    if not side_b:
        return None
    side_a = (1 << len(nbr)) - 1 & ~side_b
    for v, mask in enumerate(nbr):
        if mask != (side_a if side_b >> v & 1 else side_b):
            return None
    return tuple(bits(side_a)), tuple(bits(side_b))


def solve_complete_bipartite(inst: ColoringInstance) -> SolveOutcome:
    """Complete bipartite graphs with few colors: commit every color to one
    side, after which the two sides decouple into edgeless per-part
    subproblems (``part_weight_assignment``).

    A depth-first search fixes colors k, k-1, ..., 1 in turn, side A before
    side B, so it meets the commitments in the ascending order of a k-bit
    mask (bit c-1 set: color c on side B) and returns the first one that
    works.  Colors whose bounds are all zero stay on side A: they cannot
    carry weight, so their side changes no outcome.  A branch is cut when
    some (part, side) can no longer be completed:

    - sum: the bounds committed to it exceed its members' weight (at a leaf
      every remainder is then zero, so each side's bounds equal its weight);
    - reach: a color with a positive bound in the part is committed to it,
      but none of its members lists that color;
    - list: a member has no listed color left on its side with a positive
      bound in its part (weights are positive, so it needs one).

    At a leaf each (part, side) is checked with ``part_weight_assignment``,
    memoized on the side's colors with a positive bound in the part: the
    other colors fit no state, so they change neither the answer nor the
    witness.  Most members then have one usable color; the check takes it
    for them before its layered DP, so only the members with two or more
    colors cost a layer.
    """
    if inst.mode != "vertex":
        raise UsageError("solve_complete_bipartite: requires a vertex-mode instance")
    sides = inst.complete_bipartite_sides
    if sides is None:
        raise UsageError("solve_complete_bipartite: the graph is not complete bipartite")

    # group g = 2 * (h - 1) + s is part h on side s, in the order the leaf checks them
    groups = [
        [v for v in side if inst.part_of[v] == h]
        for h in range(1, inst.p + 1)
        for side in sides
    ]
    positive = [sum(1 << (c - 1) for c, b in enumerate(row, start=1) if b) for row in inst.bounds]
    color_bits = [sum(1 << (c - 1) for c in inst.allowed[v]) for v in range(inst.n)]
    lists = [{color_bits[v] & positive[g >> 1] for v in members} for g, members in enumerate(groups)]
    reach = [0] * len(groups)
    for g, members in enumerate(groups):
        for v in members:
            reach[g] |= color_bits[v]
    # per color: (group on side A, its bound) for each part where it is positive
    hits = {
        c: [(2 * h, row[c - 1]) for h, row in enumerate(inst.bounds) if row[c - 1]]
        for c in range(1, inst.k + 1)
    }
    order = [c for c in range(inst.k, 0, -1) if hits[c]]

    def commit(need, taken, c, s):
        """The remainders after color c joins side s (``taken[s]`` already
        holds it), or None when a cut applies."""
        bit = 1 << (c - 1)
        need = list(need)
        for a, b in hits[c]:
            g = a + s
            need[g] -= b
            if need[g] < 0 or not reach[g] & bit:
                return None
            for listed in lists[a + 1 - s]:
                if listed & bit and not listed & ~taken[s]:
                    return None
        return need

    memo = {}

    def assign(g, side_mask):
        members = groups[g]
        row = inst.bounds[g >> 1]
        side_colors = frozenset(c for c in range(1, inst.k + 1) if side_mask >> (c - 1) & 1)
        return part_weight_assignment(
            [inst.weight[v] for v in members],
            [inst.allowed[v] & side_colors for v in members],
            tuple(b if side_mask >> (c - 1) & 1 else 0 for c, b in enumerate(row, start=1)),
        )

    def leaf(taken):
        color_of = [0] * inst.n
        for g, members in enumerate(groups):
            key = (g, taken[g & 1] & positive[g >> 1])
            if key not in memo:
                memo[key] = assign(*key)
            colors = memo[key]
            if colors is None:
                return None
            for v, c in zip(members, colors):
                color_of[v] = c
        return color_of

    need = [sum(inst.weight[v] for v in members) for members in groups]
    # taken[s]: the bitmask of the colors committed to side s so far
    stack = [(0, need, [0, 0])]
    while stack:
        depth, need, taken = stack.pop()
        if depth == len(order):
            color_of = leaf(taken)
            if color_of is not None:
                return SolveOutcome.feasible_from(inst, color_of)
            continue
        c = order[depth]
        for s in (1, 0):  # side B is pushed first, so side A is searched first
            grown = taken[:]
            grown[s] |= 1 << (c - 1)
            child = commit(need, grown, c, s)
            if child is not None:
                stack.append((depth + 1, child, grown))
    return SolveOutcome.infeasible_outcome()


# ---------------------------------------------------------------------------
# cograph edge coloring


def solve_cograph_edges(inst: ColoringInstance) -> SolveOutcome:
    """Edge coloring in cographs with few colors: a component's diameter is at
    most two, so with at most k edges at each vertex it is small, and
    ``solve_by_components`` lists each component's edge colorings."""
    if inst.mode != "edge":
        raise UsageError("solve_cograph_edges: requires an edge-mode instance")
    require_cograph(inst)
    return solve_by_components(inst, "solve_cograph_edges")
