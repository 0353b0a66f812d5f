"""Nice tree decompositions and the coloring DPs that run over them.

A nice decomposition is a rooted binary tree of bags whose nodes are leaf,
forget(v), introduce(v), or join nodes; leaf and root bags are empty, so
every element gets its color where it is introduced.
``build_nice_decomposition`` makes every one with a single ``nice_from_tree``
call on a rooted tree of bitmask bags over the instance's elements: a
computed tree is the clique tree of the min-fill elimination order, played
on the bitmasks of the 2-core of the conflict graph; a supplied one is
checked and rooted in one bitmask pass (``check_raw_decomposition``).  In
edge mode two edges conflict when they share an end, so a computed tree
decomposes the line graph L(G) over edge ids, a supplied tree of G is
lifted to the edges inside its bags, and the edge DP is the vertex DP on
L(G): ``dp_vertex`` and ``dp_edge`` share one body.  The DPs run on any
decomposition, so min-fill's upper bound on the tree-width is all they
need.  Elements are forgotten early, children join on the union of the bags
they keep, and the rest of a bag is introduced after the joins, so no
element is introduced on both branches of a join.

Before a computed tree is built, ``peel`` removes, again and again, every
element with at most one conflict left (the degree-0 and degree-1 rules of
Bodlaender, Koster and van den Eijkhof's pre-processing for triangulation);
what is left is the 2-core, and only the core gets nodes, its connected
components hung under one root with an empty bag when there are two or
more.  The peeled elements form pendant trees, which the DP folds bottom-up
into rows per color of the element they hang from (``_pendant_fold``): the
trees hanging from a bagged element are summed, once, onto rows that hold
it, where the joins on its bag begin, and the trees that hang from nothing
meet the rows below the root at the target by lookup (``_conflict_dp``).  The DP keeps sparse
tables: per node, a map from bag coloring to a row that maps the reachable
packed part-by-color weight vectors (see ``packed``) to the best profit
each reaches; to decide, every profit is 0, so decide is maximize over zero
profits.  Rows store no predecessors: the witness is recovered top-down
from the matched states, finding at each node, and at each element of a
pendant tree, a child state that rebuilds it with the same profit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DecompositionError, UsageError
from .instance import ColoringInstance, RawDecomposition, SolveOutcome, _first_conflict, _incidence_masks, bits
from .packed import first_predecessor


@dataclass(frozen=True)
class NiceDecomposition:
    kinds: tuple[str, ...]  # "leaf" | "forget" | "introduce" | "join"
    bags: tuple[tuple[int, ...], ...]  # each bag sorted ascending
    children: tuple[tuple[int, ...], ...]
    vertex: tuple[int | None, ...]  # the forgotten/introduced vertex
    root: int

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def size(self) -> int:
        return len(self.kinds)

    def post_order(self):
        order = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self.children[node])
        order.reverse()
        return order


# ---------------------------------------------------------------------------
# elimination orders


def _fill_key(adj, v: int) -> tuple[int, int, int]:
    # (fill edges eliminating v would add, degree of v, v) in the graph `adj`
    nbrs = adj[v]
    degree = nbrs.bit_count()
    inside = 0  # twice the edges already present among the neighbors
    rest = nbrs
    while rest:
        low = rest & -rest
        inside += (adj[low.bit_length() - 1] & nbrs).bit_count()
        rest ^= low
    return (degree * (degree - 1) - inside) // 2, degree, v


def min_fill_order(nbr) -> list[int]:
    """Greedy elimination order of the graph with neighbor bitmasks ``nbr``:
    each step eliminates the remaining vertex with the least key (fill,
    degree, v), where fill counts the non-adjacent pairs of its remaining
    neighbors and ties go to lower degree, then to the lower label.

    The elimination runs on a copy of ``nbr``, and keys sit in a heap whose
    stale entries are skipped when popped.  Eliminating v changes the degree
    and neighborhood only of N(v), and adds fill edges only inside N(v), so
    only N(v) and those neighbors of N(v) that see both ends of a new fill
    edge get new keys.
    """
    adj = list(nbr)
    # a vertex without neighbors has the least keys, (0, 0, v), so it goes first
    order = [v for v, nbrs in enumerate(adj) if not nbrs]
    key = [_fill_key(adj, v) if nbrs else None for v, nbrs in enumerate(adj)]
    heap = [entry for entry in key if entry is not None]
    heapq.heapify(heap)
    while heap:
        entry = heapq.heappop(heap)
        v = entry[2]
        if key[v] != entry:
            continue  # stale, or v already eliminated
        key[v] = None
        order.append(v)
        nbrs = adj[v]
        gone = 1 << v
        filled = 0  # the neighbors of v that gain a fill edge
        rest = nbrs
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            before = adj[u] & ~gone
            adj[u] = (before | nbrs) & ~low
            if adj[u] != before:
                filled |= low
            rest ^= low
        touched = nbrs
        rest = filled
        while rest:
            low = rest & -rest
            touched |= adj[low.bit_length() - 1]
            rest ^= low
        while touched:
            low = touched & -touched
            u = low.bit_length() - 1
            touched ^= low
            if not low & nbrs and (adj[u] & filled).bit_count() < 2:
                continue  # a new fill edge needs both ends among u's neighbors
            fresh = _fill_key(adj, u)
            if fresh != key[u]:
                key[u] = fresh
                heapq.heappush(heap, fresh)
    return order


def elimination_tree(nbr, order) -> tuple[list[int], list[list[int]], int]:
    """Clique tree of an elimination order, as (bag masks, children, root).

    Plays the elimination game on the neighbor bitmasks ``nbr``: each
    eliminated vertex v that has a neighbor gets the next node, whose bag is
    v with the neighbors that remain after the fill of the earlier steps, and
    whose parent is the node of the earliest eliminated of those neighbors.
    A vertex with no neighbor gets no node: the DPs color such vertices apart
    from the tree.  ``decomposition_tree`` hands over the masks of the
    2-core, in which every peeled vertex has none, so the peeled vertices
    get no node.  A vertex left with no neighbor closes a connected
    component; when two or more components have nodes, their roots hang, in
    elimination order, under one last node with an empty bag, the root.
    Children are listed in elimination order.  With no node at all, the tree
    is one empty bag.
    """
    node_of = [0] * len(order)
    nodes = 0
    for v in order:
        if nbr[v]:
            node_of[v] = nodes
            nodes += 1
    adj = list(nbr)
    remaining = (1 << len(order)) - 1
    bags = []
    children = [[] for _ in range(nodes)]
    roots = []
    for v in order:
        remaining ^= 1 << v
        if not nbr[v]:
            continue
        nbrs = adj[v] & remaining
        bags.append(nbrs | 1 << v)
        parent = nodes
        for u in bits(nbrs):
            adj[u] |= nbrs  # fill; u's own bit is masked off by `remaining`
            if node_of[u] < parent:
                parent = node_of[u]
        if nbrs:
            children[parent].append(node_of[v])
        else:
            roots.append(node_of[v])
    if len(roots) == 1:
        return bags, children, roots[0]
    bags.append(0)
    children.append(roots)
    return bags, children, len(bags) - 1


def peel(nbr, keep: int = 0) -> tuple[list[int], list[int], int]:
    """Peel the graph with neighbor bitmasks ``nbr``: repeatedly remove a
    vertex outside the mask ``keep`` that has at most one neighbor left
    (the islet and twig rules of Bodlaender, Koster and van den Eijkhof,
    Comput. Intell. 2005).  Returns (order, parent, left): the peeled
    vertices in the order removed, so a vertex comes after every neighbor
    peeled before it; per vertex, the one neighbor it still had when peeled,
    -1 for none and for the vertices not peeled; and the mask of the
    vertices left.  With ``keep`` empty, what is left is the 2-core, and
    the peeled vertices form trees, each hanging from its parent or from
    nothing.  A vertex that a removal leaves with one neighbor goes next;
    otherwise the lowest label does.
    """
    n = len(nbr)
    degree = [mask.bit_count() for mask in nbr]
    left = (1 << n) - 1
    stack = [v for v in range(n - 1, -1, -1) if degree[v] < 2 and not keep >> v & 1]
    order = []
    parent = [-1] * n
    while stack:
        v = stack.pop()
        order.append(v)
        left ^= 1 << v
        rest = nbr[v] & left
        if rest:
            u = rest.bit_length() - 1
            parent[v] = u
            degree[u] -= 1
            if degree[u] == 1 and not keep >> u & 1:
                stack.append(u)
    return order, parent, left


# ---------------------------------------------------------------------------
# supplied decompositions, and their lift to the line graph


def check_raw_decomposition(n: int, edges, raw: RawDecomposition) -> tuple[list[int], list[list[int]], list[int]]:
    """Check a supplied decomposition of the graph (n, edges) and return its
    bag masks; hung from ``raw.root``, each bag's children: its other tree
    neighbors in the order the tree edges list them; and per bag, the mask
    of the edge ids inside it (``_edges_inside``), its lift to L(G).

    Checks the tree shape, then the three tree-decomposition conditions in
    order: (1) every vertex lies in a bag, (2) every edge lies inside one,
    and (3) no vertex is new to two bags, new meaning held by the bag and
    not by its parent, which makes the bags holding a vertex connected.
    Raises DecompositionError at the first failure.
    """
    nb = len(raw.bags)
    if nb == 0:
        raise DecompositionError("decomposition: needs at least one bag")
    if not 0 <= raw.root < nb:
        raise DecompositionError(f"decomposition: root {raw.root} out of range")
    bags = []
    for i, bag in enumerate(raw.bags):
        mask = 0
        for v in bag:
            if not 0 <= v < n:
                raise DecompositionError(f"decomposition: bags[{i}] mentions unknown vertex {v}")
            mask |= 1 << v
        if mask.bit_count() != len(bag):
            raise DecompositionError(f"decomposition: bags[{i}] repeats a vertex")
        bags.append(mask)
    if len(raw.tree_edges) != nb - 1:
        raise DecompositionError(
            f"decomposition: {nb} bags need {nb - 1} tree edges, got {len(raw.tree_edges)}"
        )
    nbrs = [[] for _ in range(nb)]
    for i, j in raw.tree_edges:
        if not (0 <= i < nb and 0 <= j < nb) or i == j:
            raise DecompositionError(f"decomposition: bad tree edge ({i}, {j})")
        nbrs[i].append(j)
        nbrs[j].append(i)

    children = [[] for _ in range(nb)]
    placed = [False] * nb
    placed[raw.root] = True
    held = bags[raw.root]  # the vertices new to some bag so far; all the root's are
    twice = 0  # the vertices new to two bags
    stack = [raw.root]
    while stack:
        node = stack.pop()
        for w in nbrs[node]:
            if not placed[w]:
                placed[w] = True
                children[node].append(w)
                stack.append(w)
                new = bags[w] & ~bags[node]
                twice |= held & new
                held |= new
    if not all(placed):
        raise DecompositionError("decomposition: tree edges do not connect all bags")
    everything = (1 << n) - 1
    if held != everything:
        raise DecompositionError(f"condition (1): vertices {list(bits(everything & ~held))} appear in no bag")
    lifted = _edges_inside(n, edges, bags)
    inside = 0
    for mask in lifted:
        inside |= mask
    if missing := ((1 << len(edges)) - 1) & ~inside:
        u, v = edges[(missing & -missing).bit_length() - 1]
        raise DecompositionError(f"condition (2): edge ({u}, {v}) is inside no bag")
    if twice:
        v = (twice & -twice).bit_length() - 1
        raise DecompositionError(f"condition (3): bags containing vertex {v} are not connected")
    return bags, children, lifted


def _edges_inside(n: int, edges, bags) -> list[int]:
    """Per vertex bag mask, the mask of the edge ids with both ends in it.

    The bags holding edge uv are those holding u and v, an intersection of
    two subtrees and so a subtree; once every two adjacent edges share a bag,
    the lifted bags form a tree decomposition of the line graph.
    """
    incident = _incidence_masks(n, edges)
    lifted = []
    for bag in bags:
        once = inside = 0  # edges meeting the bag at one end so far, at both ends
        for v in bits(bag):
            inside |= once & incident[v]
            once |= incident[v]
        lifted.append(inside)
    return lifted


# ---------------------------------------------------------------------------
# nice form


def nice_from_tree(bags, children, root: int) -> NiceDecomposition:
    """Nice form of a rooted tree of bitmask bags.

    Forget early, join on the kept bag, introduce after the joins.  A leaf
    of the tree becomes a leaf node with an empty bag, whose vertices are
    introduced on the way to its parent.  At every other node
    the children are taken in order: each forgets (ascending) the vertices
    that leave the node's bag, and they join one at a time on the union of
    what they kept, each side of a join first introducing just the kept
    vertices the other side has.  The rest of the node's bag is introduced
    once, above the last join: at the root, or below the forgets that lead
    to its parent; a node whose bag lies inside its parent's forgets nothing
    and leaves those introductions to the parent's joins.  So no vertex is
    introduced on both branches of a join.  Above the root's introductions
    its whole bag is forgotten, so the root bag is empty too.
    """
    kinds = []
    nice_bags = []
    nice_children = []
    vertex = []

    def add(kind, mask, kids, v=None) -> int:
        kinds.append(kind)
        nice_bags.append(tuple(bits(mask)))
        nice_children.append(kids)
        vertex.append(v)
        return len(kinds) - 1

    def chain(kind, top, mask, flip) -> int:
        # forget (or introduce) the vertices of `flip` one by one, ascending
        while flip:
            low = flip & -flip
            mask ^= low
            top = add(kind, mask, (top,), low.bit_length() - 1)
            flip ^= low
        return top

    pre_order = []
    stack = [root]
    while stack:
        node = stack.pop()
        pre_order.append(node)
        stack.extend(children[node])
    # per tree node, the nice node above its joins and the bag it carries,
    # which lacks the introductions still to come
    head = [0] * len(bags)
    held = [0] * len(bags)
    for node in reversed(pre_order):
        bag = bags[node]
        if not children[node]:
            head[node], held[node] = add("leaf", 0, ()), 0
            continue
        joined = None
        for child in children[node]:
            top, kept = head[child], held[child]
            leaving = bags[child] & ~bag
            if leaving:
                top = chain("introduce", top, kept, bags[child] & ~kept)
                top = chain("forget", top, bags[child], leaving)
                kept = bags[child] & bag
            if joined is None:
                joined, union = top, kept
                continue
            joined = chain("introduce", joined, union, kept & ~union)
            top = chain("introduce", top, kept, union & ~kept)
            union |= kept
            joined = add("join", union, (joined, top))
        head[node], held[node] = joined, union
    top = chain("introduce", head[root], held[root], bags[root] & ~held[root])
    top = chain("forget", top, bags[root], bags[root])
    return NiceDecomposition(
        kinds=tuple(kinds),
        bags=tuple(nice_bags),
        children=tuple(nice_children),
        vertex=tuple(vertex),
        root=top,
    )


def decomposition_tree(inst: ColoringInstance) -> tuple[list[int], list[list[int]], int]:
    """The rooted tree of bitmask bags over the instance's elements that
    ``build_nice_decomposition`` makes nice, as (bags, children, root).

    Without a supplied decomposition, it is the clique tree of the min-fill
    elimination order of the 2-core of the conflict graph, straight from
    the elimination game (``elimination_tree``) on the core's bitmasks; in
    edge mode that decomposes the line graph L(G) over edge ids.  The
    elements that ``peel`` removes, an isolated one or an edge that no
    other edge touches among them, get no node: they form pendant trees,
    which the DP folds into per-color rows (``_pendant_fold``), so a forest
    decomposes to one empty bag.  A supplied one
    (``inst.decomposition``, always one of G) is checked and rooted by
    ``check_raw_decomposition``; in edge mode its bags are replaced by their
    lift, the edges inside them, which must gather every two adjacent
    edges into one bag (the OR of the bags holding an edge covers its
    conflict mask), or UsageError names the first pair left apart.
    """
    raw = inst.decomposition
    if raw is None:
        _, _, core = peel(inst.conflict_masks)
        nbr = [mask & core if core >> v & 1 else 0 for v, mask in enumerate(inst.conflict_masks)]
        return elimination_tree(nbr, min_fill_order(nbr))
    bags, children, lifted = check_raw_decomposition(inst.n, inst.edges, raw)
    if inst.mode == "edge":
        gathered = [0] * len(inst.edges)  # per edge, the OR of the bags holding it
        for bag in lifted:
            for a in bits(bag):
                gathered[a] |= bag
        if split := _first_conflict(inst, [mask & ~got for mask, got in zip(inst.conflict_masks, gathered)]):
            a, b = split
            raise UsageError(
                "dp_edge: the decomposition never gathers adjacent edges "
                f"{inst.edges[a]} and {inst.edges[b]} into one bag; build one "
                "over the conflict closure (omit the supplied decomposition)"
            )
        bags = lifted
    return bags, children, raw.root


def build_nice_decomposition(inst: ColoringInstance) -> tuple[NiceDecomposition, int]:
    """Build (or check and root) a tree decomposition of the instance
    (``decomposition_tree``) and return its nice form with its width;
    ``nice_from_tree`` runs once.  The width is that of the whole
    decomposition the DP works over: a conflict between two elements in no
    bag, an edge of a pendant tree, stands for a bag of two."""
    nice = nice_from_tree(*decomposition_tree(inst))
    if nice.width < 1 and any(inst.conflict_masks):
        return nice, 1
    return nice, nice.width


# ---------------------------------------------------------------------------
# the DP, on the conflict graph of the elements


def _best_of(rows) -> dict:
    """Per state of any of ``rows``, the best profit it has in them; one row
    is returned as it is, since no row changes once built."""
    first, *rest = rows or ({},)
    if not rest:
        return first
    best = dict(first)
    get = best.get
    for row in rest:
        best.update({s: p for s, p in row.items() if p > get(s, p - 1)})
    return best


def _pendant_fold(inst: ColoringInstance, dec: NiceDecomposition, profits, name: str):
    """Fold the elements in no bag of ``dec`` into per-color rows, bottom
    up, and return (hang, rows, sums, hung).

    ``peel``, with every bagged element kept, must remove all of them, or
    UsageError is raised: they then form pendant trees, each element hanging
    from the one element it still conflicts with when peeled, or from
    nothing (-1).  ``hang`` maps an element, or -1, to the peeled elements
    hanging from it, in peel order.  ``rows[v]`` maps each color c of the
    element v hangs from (0 for nothing) to the best-profit sums of the
    colorings of v's tree that avoid c at v.  ``sums[v][c]`` layers the rows
    hanging from v, for color c of v, onto v's unit and profit at c
    (``PackedBounds.layers``), so its last layer is v's tree with v colored
    c.

    A bagged u's pendant trees are summed in at one node, ``hung[node] =
    (u, layers)``, where ``layers[c]`` sums the rows hanging from u for
    color c of u from the zero state: its last layer is what the trees add
    when u has color c.  The node is found from u's forget, the one node
    where u occurs once, down through introduces and the left branch of
    each join: it is the first forget below, whose child rows all hold u
    (the head of the first branch that enters the joins of u's bag), or
    u's own introduce when no join lies between.  A decomposition of the
    whole graph joins the trees there too, as the first children of u's
    bag, since min-fill eliminates peeled vertices first; summing them at
    u's forget instead, onto rows that all of u's joins have grown, took
    1.7 times the pairs on a 120-vertex tree-like graph.  The trees that
    hang from nothing (isolated elements among them) are left to
    ``_conflict_dp``, as their rows ``rows[r][0]``.  The witness splits a
    state back over the same layers (``PackedBounds.split``).
    """
    covered = 0  # every vertex in a bag is introduced, as leaf and root bags are empty
    forget = {}  # per bagged element, its forget node
    for node, (kind, v) in enumerate(zip(dec.kinds, dec.vertex)):
        if kind == "introduce":
            covered |= 1 << v
        elif kind == "forget":
            forget[v] = node
    order, parent, left = peel(inst.conflict_masks, covered)
    if stray := left & ~covered:
        v = (stray & -stray).bit_length() - 1
        raise UsageError(f"{name}: vertex {v} lies in no bag and on no pendant tree")
    packing = inst.packing
    offset, guard = packing.offset, packing.guard
    units = inst.units
    hang: dict[int, list[int]] = {}
    for v in order:
        hang.setdefault(parent[v], []).append(v)
    rows, sums = {}, {}
    for v in order:  # the elements hanging from v are peeled before it
        u = parent[v]
        colors = units[u] if u >= 0 else (0,)
        own, gain = units[v], profits[v]
        kids = hang.get(v)
        if kids is None:  # a leaf: distinct colors are distinct states
            own = {d: unit for d, unit in own.items() if not (unit + offset) & guard}
            sums[v] = {d: [{unit: gain[d]}] for d, unit in own.items()}
            rows[v] = {c: {unit: gain[d] for d, unit in own.items() if d != c} for c in colors}
            continue
        sums[v] = layered = {}
        tops = {}
        for d, unit in own.items():
            layers = packing.layers({unit: gain[d]}, (rows[w][d] for w in kids))
            if layers[-1]:
                layered[d] = layers
                tops[d] = layers[-1]
        anyhow = _best_of(list(tops.values()))
        rows[v] = {c: _best_of([top for d, top in tops.items() if d != c]) if c in tops else anyhow for c in colors}
    hung = {}
    for u, kids in hang.items():
        if u in forget:
            node = forget[u]
            while True:  # down to the first branch that enters u's joins
                node = dec.children[node][0]
                if dec.kinds[node] == "forget" or dec.kinds[node] == "introduce" and dec.vertex[node] == u:
                    break
            hung[node] = u, {c: packing.layers({0: 0}, (rows[w][c] for w in kids)) for c in units[u]}
    return hang, rows, sums, hung


def _vertex_tables(inst: ColoringInstance, dec: NiceDecomposition, profits, hung):
    """The rows of every node below the root join, or of every node when
    the root is no join; ``profits`` is ``inst.color_profits(maximize)``,
    and ``hung`` is ``_pendant_fold``'s: at each of its nodes, the pendant
    trees of its element u, their last layer for u's color, are summed onto
    every child row before a forget, and onto every row u is introduced to
    at u's introduce."""
    packing = inst.packing
    offset, guard = packing.offset, packing.guard
    nbr = inst.conflict_masks
    units = inst.units
    tables: list[dict] = [None] * dec.size
    order = dec.post_order()
    if dec.kinds[dec.root] == "join":
        order.pop()  # the root comes last; _conflict_dp meets its children at the target

    for node in order:
        kind = dec.kinds[node]
        bag = dec.bags[node]
        table: dict = {}

        if kind == "leaf":
            table[()] = {0: 0}

        elif kind == "introduce":
            child = dec.children[node][0]
            v = dec.vertex[node]
            pos = bag.index(v)
            nbr_pos = [i for i, u in enumerate(dec.bags[child]) if nbr[v] >> u & 1]
            options = [(c, unit, profits[v][c]) for c, unit in units[v].items()]
            extra = None
            if node in hung:  # v's unit and pendant trees, per color, summed onto each row
                extra = {c: {h + unit: p + q for h, p in hung[node][1][c][-1].items()} for c, unit, q in options}
            for ckey, crow in tables[child].items():
                taken = {ckey[i] for i in nbr_pos}
                for c, unit, q in options:
                    if c in taken:
                        continue
                    if extra is not None:
                        row = packing.best_sums(extra[c], crow)  # the small row outside
                    else:  # adding one unit shifts a row injectively, so no two sums meet
                        row = {x: p + q for s, p in crow.items() if not ((x := s + unit) + offset) & guard}
                    if row:
                        table[ckey[:pos] + (c,) + ckey[pos:]] = row

        elif kind == "forget":
            child = dec.children[node][0]
            pos = dec.bags[child].index(dec.vertex[node])
            if node in hung:
                u, hanging = hung[node]
                upos = dec.bags[child].index(u)
            else:
                hanging = None
            for ckey, crow in tables[child].items():
                key = ckey[:pos] + ckey[pos + 1 :]
                row = table.get(key)
                if hanging is not None:  # u's pendant trees, summed once, onto a row holding u
                    row = packing.best_sums(hanging[ckey[upos]][-1], crow, row)  # the small row outside
                    if row:
                        table[key] = row
                elif row is None:
                    table[key] = dict(crow)
                else:
                    row.update({s: p for s, p in crow.items() if p > row.get(s, p - 1)})

        else:  # join: child states each count the bag weight and profit once, so subtract one copy
            left, right = dec.children[node]
            rt = tables[right]
            for key, arow in tables[left].items():
                brow = rt.get(key)
                if brow is None:
                    continue
                bag_w = sum(units[v][c] for v, c in zip(bag, key))
                bag_profit = sum(profits[v][c] for v, c in zip(bag, key))
                row = packing.best_sums({a - bag_w: p - bag_profit for a, p in arow.items()}, brow)
                if row:
                    table[key] = row

        tables[node] = table
    return tables


def dp_vertex(inst: ColoringInstance, dec: NiceDecomposition, objective: str = "decide") -> SolveOutcome:
    """Vertex-coloring DP over a nice decomposition; decide or maximize
    profit (``_conflict_dp``)."""
    if inst.mode != "vertex":
        raise UsageError("dp_vertex: requires a vertex-mode instance")
    return _conflict_dp(inst, dec, objective, "dp_vertex")


def dp_edge(inst: ColoringInstance, dec: NiceDecomposition, objective: str = "decide") -> SolveOutcome:
    """Edge-coloring DP: the vertex DP on the line graph L(G)
    (``_conflict_dp``).

    ``dec`` decomposes L(G), over the instance's edge ids, as
    build_nice_decomposition returns for edge-mode instances.
    """
    if inst.mode != "edge":
        raise UsageError("dp_edge: requires an edge-mode instance")
    return _conflict_dp(inst, dec, objective, "dp_edge")


def _conflict_dp(inst: ColoringInstance, dec: NiceDecomposition, objective: str, name: str) -> SolveOutcome:
    """The DP over a nice decomposition of the elements' conflict graph:
    G in vertex mode, L(G) in edge mode; ``name``, the caller, heads its
    error messages.

    Every row maps states to their best profit; to decide, every profit
    is 0 (``ColoringInstance.color_profits``).  The elements in no bag must
    form pendant trees (a computed decomposition gives every element outside
    the 2-core no node); ``_pendant_fold`` folds them bottom-up into
    per-color rows, summed once onto rows that hold the bagged element a
    tree hangs from.  The target is met, not tabled: the rows of the trees that
    hang from nothing (isolated elements among them) and the root join's two
    child rows, or else the root row, are dealt, largest first, to the half
    whose product of row sizes is smaller; each half is summed smallest row
    first (``PackedBounds.layers``), and each state x of the larger sum looks up
    target - x in the smaller (meet in the middle); of three rows, the two
    smaller are summed.  The root join's own table is never built.
    """
    if objective not in ("decide", "maximize"):
        raise UsageError(f"{name}: objective must be decide or maximize, got {objective!r}")
    maximize = objective == "maximize"
    if maximize and inst.profit is None:
        raise UsageError(f"{name}: maximize requires a profit matrix")
    profits = inst.color_profits(maximize)
    hang, rows, sums, hung = _pendant_fold(inst, dec, profits, name)
    # the rows that meet at the target: the trees that hang from nothing,
    # and the root join's two child rows, or else the root row
    sides = [(rows[r][0], r, None) for r in hang.get(-1, ())]
    if not all(row for row, _, _ in sides):
        return SolveOutcome.infeasible_outcome()
    tables = _vertex_tables(inst, dec, profits, hung)
    root = dec.root
    starts = dec.children[root] if dec.kinds[root] == "join" else (root,)
    sides += [(tables[node].get((), {}), None, node) for node in starts]
    # two halves of about equal size product, each summed smallest row first
    halves, sizes = ([], []), [1, 1]
    for side in sorted(sides, key=lambda side: -len(side[0])):
        half = sizes[1] < sizes[0]
        halves[half].append(side)
        sizes[half] *= len(side[0])
    packing = inst.packing
    steps = [[row for row, _, _ in reversed(half)] for half in halves]  # smallest row first
    layers = [packing.layers({0: 0}, half) for half in steps]
    big, small = sorted((0, 1), key=lambda i: -len(layers[i][-1]))
    target = packing.target
    lookup = layers[small][-1]
    found = best = None
    for x, q in layers[big][-1].items():
        r = lookup.get(target - x)
        if r is not None and (found is None or q + r > best):
            found, best = x, q + r
    if found is None:
        return SolveOutcome.infeasible_outcome()

    # witness: split the matched state over the rows that met; from each
    # tree row's state down, find at each node the child state (and child
    # key) that rebuilds it with the same profit, every vertex getting its
    # color where it is introduced; split a tree's state, and where a bag
    # element's pendant trees were summed in (a forget, or the element's
    # introduce) the part they add, over the trees that hang there, and walk
    # each tree down the same way
    units = inst.units
    color_of = [0] * inst.num_elements
    pendant = []  # (peeled element, color it must avoid, its tree's state)
    stack = []
    for i, state in ((big, found), (small, target - found)):
        for (_, r, node), s in zip(reversed(halves[i]), packing.split(layers[i], steps[i], state, f"{name} meet")):
            if node is None:
                pendant.append((r, 0, s))
            else:
                stack.append((node, (), s))

    def split_hanging(kids, layers, c, state):
        # the states of the trees ``kids`` at color c that sum to state
        steps = [rows[w][c] for w in kids]
        pendant.extend((w, c, s) for w, s in zip(kids, packing.split(layers, steps, state, f"{name} fold")))

    while stack:
        node, key, state = stack.pop()
        kind = dec.kinds[node]
        bag = dec.bags[node]
        if kind == "introduce":
            pos = bag.index(dec.vertex[node])
            v, c = bag[pos], key[pos]
            color_of[v] = c
            child, ckey, state = dec.children[node][0], key[:pos] + key[pos + 1 :], state - units[v][c]
            if node in hung:  # split off what v's pendant trees add
                crow, layers = tables[child][ckey], hung[node][1][c]
                profit = tables[node][key][state + units[v][c]] - profits[v][c]
                h = first_predecessor(
                    (h for h, p in layers[-1].items() if crow.get(state - h) == profit - p), f"{name} introduce"
                )
                split_hanging(hang[v], layers, c, h)
                state -= h
            stack.append((child, ckey, state))
        elif kind == "forget":
            child = dec.children[node][0]
            v = dec.vertex[node]
            pos = dec.bags[child].index(v)
            crows = tables[child]
            profit = tables[node][key][state]
            u, hanging = hung.get(node, (v, None))
            upos = dec.bags[child].index(u)
            ckeys = (key[:pos] + (c,) + key[pos:] for c in units[v])  # colors in sorted order
            ckey, h = first_predecessor(
                (
                    (ck, h)
                    for ck in ckeys
                    if ck in crows
                    for h, ph in (hanging[ck[upos]][-1] if hanging else {0: 0}).items()
                    if crows[ck].get(state - h) == profit - ph
                ),
                f"{name} forget",
            )
            if hanging:
                split_hanging(hang[u], hanging[ckey[upos]], ckey[upos], h)
            stack.append((child, ckey, state - h))
        elif kind == "join":  # an empty leaf colors nothing
            left, right = dec.children[node]
            arow, brow = tables[left][key], tables[right][key]
            bag_w = sum(units[v][c] for v, c in zip(bag, key))
            profit = tables[node][key][state] + sum(profits[v][c] for v, c in zip(bag, key))
            a = first_predecessor(
                (a for a, pa in arow.items() if brow.get(state + bag_w - a) == profit - pa), f"{name} join"
            )
            stack.append((left, key, a))
            stack.append((right, key, state + bag_w - a))
    while pendant:
        v, c, state = pendant.pop()
        profit = rows[v][c][state]
        d = first_predecessor(
            (d for d, layers in sums[v].items() if d != c and layers[-1].get(state) == profit), f"{name} fold"
        )
        color_of[v] = d
        if v in hang:
            split_hanging(hang[v], sums[v][d], d, state)
    return SolveOutcome.feasible_from(inst, color_of)
