"""Shared random corpus samplers and independent ground-truth helpers."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from lbcolor import ColoringInstance, DecompositionError, RawDecomposition, SolveOutcome, validate_coloring
from lbcolor.cographs import Cotree
from lbcolor.instance import adjacency_masks, bits
from lbcolor.matching import AssignmentResult
from lbcolor.packed import PackedBounds, first_predecessor
from lbcolor.split import SplitPartition
from lbcolor.treewidth import _pendant_fold, _vertex_tables, dp_vertex, min_fill_order


def assert_outcome(inst, outcome):
    """Shared harness: every feasible outcome must carry a valid witness."""
    if outcome.feasible:
        assert outcome.witness is not None
        report = validate_coloring(inst, outcome.witness)
        assert report.ok, report.violation
        if inst.profit is not None:
            value = sum(
                inst.profit[e][outcome.witness.color_of[e] - 1]
                for e in range(inst.num_elements)
            )
            assert outcome.objective == value
    else:
        assert outcome.witness is None


def order_to_raw(n, edges, order):
    """Clique-tree decomposition induced by an elimination order, eliminating
    over Python sets.  It covers every vertex: when two or more connected
    components remain, their roots hang under one last bag, an empty one.
    On a graph without isolated vertices it is the reference for
    ``treewidth.elimination_tree`` (see ``computed_tree_reference``)."""
    if n == 0:
        return RawDecomposition(bags=((),), tree_edges=(), root=0)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    position = {v: i for i, v in enumerate(order)}
    remaining = set(range(n))
    bags = []
    tree_edges = []
    pending_roots = []
    for v in order:
        nbrs = sorted(adj[v] & remaining, key=lambda u: position[u])
        bags.append(tuple(sorted([v] + nbrs)))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        remaining.discard(v)
        if nbrs:
            tree_edges.append((position[v], position[nbrs[0]]))
        else:
            pending_roots.append(position[v])
    if len(pending_roots) == 1:
        return RawDecomposition(bags=tuple(bags), tree_edges=tuple(tree_edges), root=pending_roots[0])
    # the roots of the connected components hang under one empty bag
    root = len(bags)
    tree_edges.extend((root, r) for r in pending_roots)
    return RawDecomposition(bags=(*bags, ()), tree_edges=tuple(tree_edges), root=root)


def conflict_pairs(inst):
    """The pairs of elements that must receive different colors, built from
    the edge list alone: in vertex mode the edges, in ``inst.edges`` order;
    in edge mode, per vertex in increasing order, every two edges at it,
    ids increasing.  The reference for the conflict masks' readers, whose
    named pair is the first of this list that fails."""
    if inst.mode == "vertex":
        return inst.edges
    incident = [[] for _ in range(inst.n)]
    for idx, (u, v) in enumerate(inst.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    return tuple(pair for ids in incident for pair in combinations(ids, 2))


def line_graph_instance(inst):
    """The vertex-mode instance on the line graph L(G) of an edge-mode
    instance, built through the checking constructor: vertex i is edge i,
    two are adjacent when their edges share an end, and the lists, weights,
    parts, bounds and profits are the edges'."""
    m = len(inst.edges)
    pairs = tuple((a, b) for b in range(m) for a in range(b) if set(inst.edges[a]) & set(inst.edges[b]))
    return ColoringInstance(
        mode="vertex", n=m, edges=pairs, k=inst.k, p=inst.p, part_of=inst.part_of, weight=inst.weight,
        bounds=inst.bounds, allowed=inst.allowed, profit=inst.profit,
    )


def isolated_vertices(n, edges):
    """The vertices of the graph (n, edges) with no neighbor."""
    return set(range(n)) - {v for edge in edges for v in edge}


def without_isolated(n, edges):
    """The graph less its isolated vertices, relabelled in order, as
    (labels, edges): its vertex i is vertex labels[i] of the graph."""
    labels = sorted({v for edge in edges for v in edge})
    new = {v: i for i, v in enumerate(labels)}
    return labels, tuple((new[u], new[v]) for u, v in edges)


def two_core_edges(n, edges):
    """The edges of the graph's 2-core, over Python sets: what is left after
    repeatedly removing a vertex with at most one neighbor left.  A computed
    decomposition gives the vertices outside it, which no core edge touches,
    no bag."""
    adj = _adjacency_sets(n, edges)
    gone = set()
    queue = [v for v in range(n) if len(adj[v]) < 2]
    while queue:
        v = queue.pop()
        if v in gone:
            continue
        gone.add(v)
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) < 2:
                queue.append(u)
    return tuple((u, v) for u, v in edges if u not in gone and v not in gone)


def computed_tree_reference(n, edges, order):
    """What ``treewidth.elimination_tree`` computes for an elimination order:
    ``order_to_raw`` on the graph less its isolated vertices, under the order
    restricted to them, with its bags relabelled back.  The isolated vertices
    lie in no bag, so it is no decomposition of the whole graph."""
    labels, sub = without_isolated(n, edges)
    new = {v: i for i, v in enumerate(labels)}
    raw = order_to_raw(len(labels), sub, [new[v] for v in order if v in new])
    bags = tuple(tuple(labels[v] for v in bag) for bag in raw.bags)
    return RawDecomposition(bags=bags, tree_edges=raw.tree_edges, root=raw.root)


def validate_raw_decomposition(n, edges, raw):
    """Check tree shape plus the three tree-decomposition conditions over
    Python sets, raising DecompositionError at the first failure: the
    reference for the bitmask ``treewidth.check_raw_decomposition``."""
    nb = len(raw.bags)
    if nb == 0:
        raise DecompositionError("decomposition: needs at least one bag")
    if not 0 <= raw.root < nb:
        raise DecompositionError(f"decomposition: root {raw.root} out of range")
    for i, bag in enumerate(raw.bags):
        for v in bag:
            if not 0 <= v < n:
                raise DecompositionError(f"decomposition: bags[{i}] mentions unknown vertex {v}")
        if len(set(bag)) != len(bag):
            raise DecompositionError(f"decomposition: bags[{i}] repeats a vertex")
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
    seen = {raw.root}
    stack = [raw.root]
    while stack:
        u = stack.pop()
        for w in nbrs[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nb:
        raise DecompositionError("decomposition: tree edges do not connect all bags")

    covered = set()
    for bag in raw.bags:
        covered.update(bag)
    if covered != set(range(n)):
        missing = sorted(set(range(n)) - covered)
        raise DecompositionError(f"condition (1): vertices {missing} appear in no bag")
    bag_sets = [set(b) for b in raw.bags]
    for u, v in edges:
        if not any(u in b and v in b for b in bag_sets):
            raise DecompositionError(f"condition (2): edge ({u}, {v}) is inside no bag")
    for v in range(n):
        holders = [i for i in range(nb) if v in bag_sets[i]]
        start = holders[0]
        seen = {start}
        stack = [start]
        holder_set = set(holders)
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w in holder_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(holders):
            raise DecompositionError(f"condition (3): bags containing vertex {v} are not connected")


def min_fill_width(n, edges):
    """Width of the min-fill decomposition (an upper bound on tree-width)."""
    raw = order_to_raw(n, edges, min_fill_order(adjacency_masks(n, edges)))
    return max(len(b) for b in raw.bags) - 1


def conflict_closure_sets(n, edges):
    """Edges of G plus a pair for every two vertices with a common neighbor
    (the square of G), as a sorted edge tuple built over Python sets.  Two
    edges sharing a vertex span a triangle of it, so any tree decomposition
    of it, supplied with an edge-mode instance, gathers them in one bag."""
    closed = set(tuple(e) for e in edges)
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)
    for v in range(n):
        mates = sorted(nbr[v])
        for i in range(len(mates)):
            for j in range(i + 1, len(mates)):
                closed.add((mates[i], mates[j]))
    return tuple(sorted(closed))


def min_fill_order_rescan(n, edges):
    """Min-fill order by rescanning every remaining vertex at every step, the
    reference for the incremental ``treewidth.min_fill_order``."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    remaining = set(range(n))
    order = []
    while remaining:
        best_v = None
        best_key = None
        for v in sorted(remaining):
            nbrs = adj[v] & remaining
            fill = 0
            nb = sorted(nbrs)
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    if nb[j] not in adj[nb[i]]:
                        fill += 1
            key = (fill, len(nbrs), v)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        nbrs = sorted(adj[best_v] & remaining)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        remaining.discard(best_v)
        order.append(best_v)
    return order


def _adjacency_sets(n, edges):
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def cotree_or_prime_sets(n, edges):
    """Cotree or sorted prime module from the components of each module and of
    its complement, recomputed over Python sets at every level: the reference
    for the bitmask ``cographs._cotree_or_prime``."""
    adjacency = _adjacency_sets(n, edges)
    kinds, children, vertex = [], [], []

    def add(kind, kids=(), v=None):
        kinds.append(kind)
        children.append(tuple(kids))
        vertex.append(v)
        return len(kinds) - 1

    def comps(vertices, neighbors):
        left = set(vertices)
        out = []
        while left:
            start = min(left)
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in neighbors(u):
                    if w in left and w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(sorted(seen))
            left -= seen
        return out

    def split_module(vertices):
        vset = set(vertices)
        parts = comps(vertices, lambda u: adjacency[u] & vset)
        if len(parts) > 1:
            return "union", parts
        parts = comps(vertices, lambda u: vset - adjacency[u] - {u})
        if len(parts) == 1:
            return "prime", None
        return "join", parts

    frames = []
    vertices = list(range(n))
    while True:
        while len(vertices) > 1:
            kind, parts = split_module(vertices)
            if kind == "prime":
                return vertices
            frames.append([kind, parts, 1, None])
            vertices = parts[0]
        node = add("leaf", v=vertices[0])
        while frames:
            frame = frames[-1]
            kind, parts, nxt, top = frame
            if top is not None:
                node = add(kind, (top, node))
            if nxt < len(parts):
                frame[2:] = [nxt + 1, node]
                vertices = parts[nxt]
                break
            frames.pop()
        else:
            return Cotree(kinds=tuple(kinds), children=tuple(children), vertex=tuple(vertex), root=node)


def cotree_or_prime_two_pass(n, nbr):
    """``cographs._cotree_or_prime`` as it was before each module got one
    pass: every module of two or more vertices first splits into the
    components of G, and only when G is connected into those of the
    complement; every breadth-first search runs until its frontier is
    empty.  The bitmask reference for the one-pass build."""
    kinds, children, vertex = [], [], []

    def add(kind, kids=(), v=None):
        kinds.append(kind)
        children.append(tuple(kids))
        vertex.append(v)
        return len(kinds) - 1

    def comps(vset, complement):
        left = vset
        out = []
        while left:
            seen = frontier = left & -left
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                reach = nbr[low.bit_length() - 1]
                new = (~reach if complement else reach) & left & ~seen
                seen |= new
                frontier |= new
            out.append(seen)
            left &= ~seen
        return out

    def split_module(vset):
        parts = comps(vset, False)
        if len(parts) > 1:
            return "union", parts
        parts = comps(vset, True)
        if len(parts) == 1:
            return "prime", None
        return "join", parts

    if n == 0:
        return Cotree(kinds=(), children=(), vertex=(), root=-1)
    frames = []
    vset = (1 << n) - 1
    while True:
        while vset & (vset - 1):
            kind, parts = split_module(vset)
            if kind == "prime":
                return list(bits(vset))
            frames.append([kind, parts, 1, None])
            vset = parts[0]
        node = add("leaf", v=vset.bit_length() - 1)
        while frames:
            frame = frames[-1]
            kind, parts, nxt, top = frame
            if top is not None:
                node = add(kind, (top, node))
            if nxt < len(parts):
                frame[2:] = [nxt + 1, node]
                vset = parts[nxt]
                break
            frames.pop()
        else:
            return Cotree(kinds=tuple(kinds), children=tuple(children), vertex=tuple(vertex), root=node)


def split_partition_sets(n, edges):
    """Split partition by the degree-sequence test over adjacency sets: the
    reference for ``split.split_partition_masks``."""
    if not edges:
        return SplitPartition(clique=(), independent=tuple(range(n)))
    adjacency = _adjacency_sets(n, edges)
    order = sorted(range(n), key=lambda v: (-len(adjacency[v]), v))
    degs = [len(adjacency[v]) for v in order]
    m = max(i + 1 for i in range(n) if degs[i] >= i)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    clique = sorted(order[:m])
    independent = sorted(order[m:])
    for v in independent:
        if all(u in adjacency[v] for u in clique):
            clique = sorted(clique + [v])
            independent = [u for u in independent if u != v]
            break
    return SplitPartition(clique=tuple(clique), independent=tuple(independent))


def bipartition(n, edges):
    """Two-color the graph; returns the side tuples, or None if an odd cycle exists."""
    adjacency = _adjacency_sets(n, edges)
    side = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    stack.append(w)
                elif side[w] == side[u]:
                    return None
    a = tuple(v for v in range(n) if side[v] == 0)
    b = tuple(v for v in range(n) if side[v] == 1)
    return a, b


def complete_bipartite_sides_sets(n, edges):
    """Sides (A, B) by two-coloring and checking every cross pair: the
    reference for ``cographs.complete_bipartite_masks``."""
    if n < 2 or not edges:
        return None
    sides = bipartition(n, edges)
    if sides is None:
        return None
    a, b = sides
    if not a or not b or len(edges) != len(a) * len(b):
        return None
    edge_set = set(edges)
    if any((min(u, v), max(u, v)) not in edge_set for u in a for v in b):
        return None
    return a, b


def graph_instance(n, edges):
    """A plain vertex-mode instance on the graph (n, edges), for the class
    tests: p = 1, k = 1, unit weights, bounds ((n,),)."""
    return ColoringInstance(mode="vertex", n=n, edges=tuple(edges), k=1, p=1, part_of=(1,) * n,
                            weight=(1,) * n, bounds=((n,),), allowed=(frozenset({1}),) * n)


def relabel(rng, n, edges):
    """The edges under a random permutation of the vertices, sorted."""
    label = rng.sample(range(n), n)
    return tuple(sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges))


def squares_and_edges(squares, singles):
    """(n, edges): ``squares`` disjoint 4-cycles and then ``singles``
    disjoint edges, the shape of the one-in-three ``cycles_edges`` graphs;
    in the line graph each single edge is a component of one element."""
    n = 4 * squares + 2 * singles
    edges = [(b, b + 1) for b in range(0, n, 2)]  # the single edges and two sides of each square
    edges += [e for b in range(0, 4 * squares, 4) for e in ((b + 1, b + 2), (b, b + 3))]
    return n, edges


def threshold_edges(rng, n):
    """A random threshold graph with shuffled labels: each vertex in turn
    joins as an isolated vertex or as one adjacent to all earlier ones."""
    return relabel(rng, n, [(u, v) for v in range(1, n) if rng.random() < 0.5 for u in range(v)])


def random_graph_for_orders(rng, n_max=40):
    """(n, edges) in one of three shapes: G(n, p) at any density, a disjoint
    union of two such graphs with shuffled labels, or a shuffled random tree
    plus a few chords."""
    n = rng.randint(0, n_max)
    shape = rng.choice(("gnp", "union", "tree"))
    pairs = set()
    if shape == "gnp":
        density = rng.random()
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
    elif shape == "union":
        cut = rng.randint(0, n)
        for lo, hi in ((0, cut), (cut, n)):
            density = rng.random()
            pairs |= {(u, v) for u in range(lo, hi) for v in range(u + 1, hi) if rng.random() < density}
    else:
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n // 4) if n > 1 else 0):
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
    label = list(range(n))
    rng.shuffle(label)
    edges = sorted({tuple(sorted((label[u], label[v]))) for u, v in pairs})
    return n, tuple(edges)


def cycles_with_pendant_trees(rng, cycles_max=3, trees_max=8, isolated_max=3):
    """(n, edges): 0 to ``cycles_max`` cycles of 3 to 5 vertices, a chord in
    about a third of those of 4 or more, each after the first sharing a
    vertex with an earlier one, or joined to one by an edge, or apart; then
    up to ``trees_max`` vertices, each hung from an earlier vertex (a pendant
    tree, or a free tree grown) or starting a free tree; then up to
    ``isolated_max`` isolated vertices; labels shuffled.  The cycles make the
    2-core, and sharing a vertex makes joins inside it."""
    edges, n = set(), 0
    for i in range(rng.randint(0, cycles_max)):
        size = rng.randint(3, 5)
        link = rng.choice(("share", "edge", "apart")) if i else "apart"
        ring = [rng.randrange(n)] if link == "share" else []
        ring += range(n, n + size - len(ring))
        if link == "edge":
            edges.add((rng.randrange(n), n))
        edges |= {(min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])}
        if size >= 4 and rng.random() < 1 / 3:
            edges.add((min(ring[0], ring[2]), max(ring[0], ring[2])))
        n = ring[-1] + 1
    for _ in range(rng.randint(0, trees_max)):
        if n and rng.random() < 0.8:
            edges.add((rng.randrange(n), n))
        n += 1
    n += rng.randint(0, isolated_max)
    return n, relabel(rng, n, edges)


def tree_plus_chords_corpus(count=60, seed=2026):
    """A fixed, seeded corpus of graphs (n, edges) shaped like the tree-like
    benchmark's: a random tree on 24 to 48 vertices plus n // 8 chords,
    labels shuffled."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(24, 48)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < n - 1 + n // 8:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        graphs.append((n, relabel(rng, n, edges)))
    return graphs


def random_allowed(rng, k):
    return frozenset(rng.sample(range(1, k + 1), rng.randint(1, k)))


def bounds_of(k, p, part_of, weight, cols):
    bounds = [[0] * k for _ in range(p)]
    for e in range(len(weight)):
        bounds[part_of[e] - 1][cols[e] - 1] += weight[e]
    return tuple(tuple(row) for row in bounds)


def bounds_from_assignment(rng, k, p, part_of, weight, allowed, listful=0.6):
    """Bound matrix induced by a random (not necessarily proper) assignment."""
    if rng.random() < listful:
        cols = [rng.choice(sorted(allowed[e])) for e in range(len(weight))]
    else:
        cols = [rng.randint(1, k) for _ in range(len(weight))]
    return bounds_of(k, p, part_of, weight, cols)


def plant(rng, k, p, part_of, weight, allowed, conflicts):
    """(allowed, bounds) around a greedy coloring of the conflict graph in
    breadth-first order from random roots (proper on forests with two
    colors), each element taking a random color its colored neighbors leave
    free (any color when none is free); each list gains its element's color.
    The instance is feasible whenever that coloring is proper."""
    m = len(weight)
    nbrs = [set() for _ in range(m)]
    for a, b in conflicts:
        nbrs[a].add(b)
        nbrs[b].add(a)
    order, seen = [], set()
    for root in rng.sample(range(m), m):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for e in queue:
            for f in rng.sample(sorted(nbrs[e]), len(nbrs[e])):
                if f not in seen:
                    seen.add(f)
                    queue.append(f)
        order += queue
    cols = [0] * m
    for e in order:
        free = sorted(set(range(1, k + 1)) - {cols[f] for f in nbrs[e]})
        cols[e] = rng.choice(free or range(1, k + 1))
    allowed = tuple(a | {c} for a, c in zip(allowed, cols))
    return allowed, bounds_of(k, p, part_of, weight, cols)


def random_vertex_instance(
    rng,
    n_max=7,
    k_max=3,
    p_max=2,
    w_max=3,
    edge_p=0.35,
    tw_cap=None,
    profit=False,
    edges=None,
    n=None,
    k=None,
    planted=False,
):
    n = n if n is not None else rng.randint(1, n_max)
    k = k if k is not None else rng.randint(1, k_max)
    p = rng.randint(1, p_max)
    if edges is None:
        while True:
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_p
            )
            if tw_cap is None or min_fill_width(n, edges) <= tw_cap:
                break
    weight = tuple(rng.randint(1, w_max) for _ in range(n))
    part_of = tuple(rng.randint(1, p) for _ in range(n))
    allowed = tuple(random_allowed(rng, k) for _ in range(n))
    if planted:
        allowed, bounds = plant(rng, k, p, part_of, weight, allowed, edges)
    else:
        bounds = bounds_from_assignment(rng, k, p, part_of, weight, allowed)
    prof = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n)) if profit else None
    return ColoringInstance(
        mode="vertex", n=n, edges=edges, k=k, p=p, part_of=part_of,
        weight=weight, bounds=bounds, allowed=allowed, profit=prof,
    )


def random_edge_instance(
    rng, n_max=6, m_max=7, k_max=3, p_max=2, w_max=3, profit=False, edges=None, n=None,
    k=None, planted=False,
):
    if edges is None:
        n = n if n is not None else rng.randint(2, n_max)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        edges = tuple(sorted(pairs[: rng.randint(1, min(m_max, len(pairs)))]))
    m = len(edges)
    k = k if k is not None else rng.randint(1, k_max)
    p = rng.randint(1, p_max)
    weight = tuple(rng.randint(1, w_max) for _ in range(m))
    part_of = tuple(rng.randint(1, p) for _ in range(m))
    allowed = tuple(random_allowed(rng, k) for _ in range(m))
    if planted:
        conflicts = [(a, b) for a in range(m) for b in range(a) if set(edges[a]) & set(edges[b])]
        allowed, bounds = plant(rng, k, p, part_of, weight, allowed, conflicts)
    else:
        bounds = bounds_from_assignment(rng, k, p, part_of, weight, allowed)
    prof = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(m)) if profit else None
    return ColoringInstance(
        mode="edge", n=n, edges=edges, k=k, p=p, part_of=part_of,
        weight=weight, bounds=bounds, allowed=allowed, profit=prof,
    )


def random_edgeless_instance(rng, n_max=7, k_max=3, p_max=2, w_max=3, unit=False):
    return random_vertex_instance(
        rng, n_max=n_max, k_max=k_max, p_max=p_max, w_max=1 if unit else w_max, edges=()
    )


def random_complete_instance(rng, n_max=6, p_max=2, w_max=3, profit=False):
    n = rng.randint(1, n_max)
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    k = rng.randint(n, n + 2)
    p = rng.randint(1, p_max)
    weight = tuple(rng.randint(1, w_max) for _ in range(n))
    part_of = tuple(rng.randint(1, p) for _ in range(n))
    allowed = tuple(random_allowed(rng, k) for _ in range(n))
    if rng.random() < 0.6:
        # distinct colors: often feasible
        cols = rng.sample(range(1, k + 1), n)
    else:
        cols = [rng.randint(1, k) for _ in range(n)]
    prof = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n)) if profit else None
    return ColoringInstance(
        mode="vertex", n=n, edges=edges, k=k, p=p, part_of=part_of,
        weight=weight, bounds=bounds_of(k, p, part_of, weight, cols), allowed=allowed, profit=prof,
    )


def random_complete_bipartite_instance(rng, side_max=3, k_max=3, p_max=2, w_max=3):
    a = rng.randint(1, side_max)
    b = rng.randint(1, side_max)
    n = a + b
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    k = rng.randint(2, k_max) if k_max >= 2 else 1
    p = rng.randint(1, p_max)
    weight = tuple(rng.randint(1, w_max) for _ in range(n))
    part_of = tuple(rng.randint(1, p) for _ in range(n))
    allowed = tuple(random_allowed(rng, k) for _ in range(n))
    if rng.random() < 0.6:
        # side-committed colors: often feasible
        side_of_color = [rng.randint(0, 1) for _ in range(k)]
        cols = []
        for v in range(n):
            side = 0 if v < a else 1
            fits = [c for c in sorted(allowed[v]) if side_of_color[c - 1] == side]
            cols.append(rng.choice(fits) if fits else rng.randint(1, k))
    else:
        cols = [rng.randint(1, k) for _ in range(n)]
    return ColoringInstance(
        mode="vertex", n=n, edges=edges, k=k, p=p, part_of=part_of,
        weight=weight, bounds=bounds_of(k, p, part_of, weight, cols), allowed=allowed,
    )


def random_split_instance(rng, clique_max=3, indep_max=4, k_max=3, p_max=2, w_max=3):
    kk = rng.randint(1, clique_max)
    ss = rng.randint(1, indep_max)
    n = kk + ss
    labels = list(range(n))
    rng.shuffle(labels)
    clique, indep = labels[:kk], labels[kk:]
    edges = {(min(x, y), max(x, y)) for i, x in enumerate(clique) for y in clique[i + 1 :]}
    for v in indep:
        for u in clique:
            if rng.random() < 0.5:
                edges.add((min(u, v), max(u, v)))
    return random_vertex_instance(
        rng, k_max=k_max, p_max=p_max, w_max=w_max, edges=tuple(sorted(edges)), n=n
    )


def random_cograph_edges(rng, n):
    """Edge set of a random cograph built from a random union/join tree."""
    if n == 1:
        return ()
    cut = rng.randint(1, n - 1)
    left = random_cograph_edges(rng, cut)
    right = tuple((u + cut, v + cut) for u, v in random_cograph_edges(rng, n - cut))
    edges = set(left) | set(right)
    if rng.random() < 0.5:
        edges |= {(u, v) for u in range(cut) for v in range(cut, n)}
    return tuple(sorted(edges))


def random_cograph_instance(rng, n_max=7, k_max=3, p_max=2, w_max=3, profit=False):
    n = rng.randint(1, n_max)
    return random_vertex_instance(
        rng, k_max=k_max, p_max=p_max, w_max=w_max, profit=profit,
        edges=random_cograph_edges(rng, n), n=n,
    )


def random_bipartite_k2_instance(rng, n_max=7, p_max=2, w_max=3):
    n = rng.randint(1, n_max)
    sides = [rng.randint(0, 1) for _ in range(n)]
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if sides[u] != sides[v] and rng.random() < 0.4
    )
    return random_vertex_instance(rng, p_max=p_max, w_max=w_max, edges=edges, n=n, k=2)


def reconstruct_graph(ct):
    """Rebuild (n, edges) from a cotree; join nodes add all cross edges."""
    below = ct.leaves_under()
    edges = set()
    for node in ct.post_order():
        if ct.kinds[node] == "join":
            left, right = ct.children[node]
            for u in below[left]:
                for v in below[right]:
                    edges.add((u, v) if u < v else (v, u))
    n = len(below[ct.root])
    return n, tuple(sorted(edges))


# ---------------------------------------------------------------------------
# join rows of the tree-decomposition DP, recomputed field by field


def fieldwise_sums(inst, lefts, rights):
    """{a + b : a in lefts, b in rights, within the bounds}, over unpacked tuples."""
    bounds = inst.bounds_flat
    out = set()
    for qa in lefts:
        for qb in rights:
            fields = tuple(x + y for x, y in zip(qa, qb))
            if all(f <= b for f, b in zip(fields, bounds)):
                out.add(fields)
    return out


def loose_sums(inst, dec):
    """S: the weight vectors, unpacked, of the whole trees that the elements
    in no bag of ``dec`` form and that conflict with no bagged element, each
    colored properly from its lists in every way (by enumeration), summed
    within the bounds."""
    dim = len(inst.bounds_flat)
    covered = {v for bag in dec.bags for v in bag}
    adj = _adjacency_sets(inst.num_elements, conflict_pairs(inst))
    sums = {(0,) * dim}
    seen = set(covered)
    for start in range(inst.num_elements):
        if start in seen:
            continue
        seen.add(start)
        tree = [start]
        for v in tree:
            for u in sorted(adj[v] - seen):
                seen.add(u)
                tree.append(u)
        if any(adj[v] & covered for v in tree):
            continue  # it hangs from a bagged element
        vectors = set()
        for colors in product(*(sorted(inst.allowed[v]) for v in tree)):
            color_of = dict(zip(tree, colors))
            if any(color_of[v] == color_of[u] for v in tree for u in adj[v]):
                continue
            vector = [0] * dim
            for v, c in color_of.items():
                vector[inst.flat_index(inst.part_of[v], c)] += inst.weight[v]
            vectors.add(tuple(vector))
        sums = fieldwise_sums(inst, sums, vectors)
    return sums


def dp_tables(inst, dec, maximize=False):
    """``treewidth._vertex_tables`` as the DP builds them: with the pendant
    trees of the elements in no bag folded in where their element is first
    introduced."""
    profits = inst.color_profits(maximize)
    hung = _pendant_fold(inst, dec, profits, "dp_tables")[3]
    return _vertex_tables(inst, dec, profits, hung)


def root_meet_mismatch(inst, dec, tables) -> bool:
    """Whether ``dp_vertex``'s verdict differs from target in S + left +
    right, recomputed one unpacked field at a time: S is ``loose_sums``,
    and left and right are the rows of the root join's children (the join's
    own table is not built)."""
    sums = loose_sums(inst, dec)
    for child in dec.children[dec.root]:
        sums = fieldwise_sums(inst, sums, [inst.packing.unpack(s) for s in tables[child].get((), ())])
    return dp_vertex(inst, dec).feasible != (inst.bounds_flat in sums)


def join_row_mismatches(inst, dec, tables, maximize=False):
    """Recompute every join row of ``treewidth._vertex_tables`` from its
    children's rows, one unpacked field at a time.  A row must be exactly
    {a + b - bag weight : a in the left row, b in the right row, within the
    bounds} (sound and complete), each state carrying the best left profit
    plus right profit less the bag's profit (0 unless ``maximize``), every
    child state must hold the bag weight in every field, and a join key
    needs a row in both children.  The root join's table is not built; that
    join is checked by ``root_meet_mismatch`` instead, and counts among the
    mismatches only.  Returns (bag colorings checked, mismatches)."""
    unpack = inst.packing.unpack
    bounds = inst.bounds_flat
    checked = mismatches = 0
    for node in range(dec.size):
        if dec.kinds[node] != "join":
            continue
        if node == dec.root:
            assert tables[node] is None
            mismatches += root_meet_mismatch(inst, dec, tables)
            continue
        left, right = dec.children[node]
        table, lt, rt = tables[node], tables[left], tables[right]
        mismatches += sum(1 for key in table if key not in lt or key not in rt)
        for key in lt.keys() & rt.keys():
            bag_w = [0] * len(bounds)
            for v, c in zip(dec.bags[node], key):
                bag_w[inst.flat_index(inst.part_of[v], c)] += inst.weight[v]
            bag_profit = sum(inst.profit_of(v, c) for v, c in zip(dec.bags[node], key)) if maximize else 0
            lefts = [(unpack(a), pa) for a, pa in lt[key].items()]
            rights = [(unpack(b), pb) for b, pb in rt[key].items()]
            mismatches += sum(1 for q, _ in lefts + rights if any(x < w for x, w in zip(q, bag_w)))
            want = {}
            for qa, pa in lefts:
                for qb, pb in rights:
                    fields = tuple(x + y - w for x, y, w in zip(qa, qb, bag_w))
                    if all(f <= b for f, b in zip(fields, bounds)):
                        want[fields] = max(want.get(fields, pa + pb), pa + pb)
            got = {unpack(s): q for s, q in table.get(key, {}).items()}
            mismatches += got != {fields: q - bag_profit for fields, q in want.items()}
            checked += 1
    return checked, mismatches


# ---------------------------------------------------------------------------
# independent treewidth oracle (exhaustive elimination orders)


def treewidth_by_elimination_orders(n, edges):
    if n == 0:
        return -1
    best = n
    base = [set() for _ in range(n)]
    for u, v in edges:
        base[u].add(v)
        base[v].add(u)
    for order in permutations(range(n)):
        adj = [set(s) for s in base]
        remaining = set(range(n))
        width = 0
        for v in order:
            nbrs = adj[v] & remaining
            width = max(width, len(nbrs))
            if width >= best:
                break
            ns = sorted(nbrs)
            for i in range(len(ns)):
                for j in range(i + 1, len(ns)):
                    adj[ns[i]].add(ns[j])
                    adj[ns[j]].add(ns[i])
            remaining.discard(v)
        else:
            best = min(best, width)
    return best


# ---------------------------------------------------------------------------
# reference assignment (exhaustive search over injections)


def exhaustive_assignment(ap):
    best = None
    best_total = None
    for perm in permutations(range(ap.cols), ap.rows):
        total = 0
        ok = True
        for r, c in enumerate(perm):
            if not ap.allowed[r][c]:
                ok = False
                break
            total += ap.weights[r][c]
        if ok and (best_total is None or total > best_total):
            best_total = total
            best = perm
    if best is None:
        return None
    return AssignmentResult(columns=tuple(best), total=best_total)


def solve_by_components_by_pairs(inst, where):
    """``basic.solve_by_components`` as it was built from the conflict pair
    list: every component walked and ranked up front, each element's earlier
    conflicts gathered from ``conflict_pairs(inst)``, and every component,
    one-element ones included, listed by the depth-first search.  The
    reference for the enumerator that walks the conflict masks one
    component at a time."""
    if inst.mode == "edge" and any(mask.bit_count() > inst.k for mask in inst.neighbor_masks):
        return SolveOutcome.infeasible_outcome()
    m = inst.num_elements
    conflict = inst.conflict_masks
    comps = []
    rank = [0] * m
    seen = 0
    for start in range(m):
        if seen >> start & 1:
            continue
        seen |= 1 << start
        order = [start]
        for i, u in enumerate(order):
            rank[u] = i
            fresh = conflict[u] & ~seen
            seen |= fresh
            order.extend(bits(fresh))
        comps.append(order)
    earlier = [[] for _ in range(m)]
    for a, b in conflict_pairs(inst):
        if rank[a] < rank[b]:
            earlier[b].append(rank[a])
        else:
            earlier[a].append(rank[b])
    units, packing = inst.units, inst.packing
    offset, guard = packing.offset, packing.guard

    def fitting(order):
        last = len(order) - 1
        color = [0] * len(order)

        def candidates(i, state):
            taken = {color[j] for j in earlier[order[i]]}
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
                if state == packing.target:
                    break
            else:
                stack.append(candidates(i + 1, state))
        return found

    chosen = packing.choose((fitting(order) for order in comps), where)
    if chosen is None:
        return SolveOutcome.infeasible_outcome()
    color_of = [0] * m
    for order, colors in zip(comps, chosen):
        for e, c in zip(order, colors):
            color_of[e] = c
    return SolveOutcome.feasible_from(inst, color_of)


# ---------------------------------------------------------------------------
# reference complete-bipartite solver (every commitment of colors to sides)


def part_weight_assignment_unfolded(weights, choices, bound_row):
    """``basic.part_weight_assignment`` with every item, single-color ones
    included, a layer of the packed DP over the whole row: the reference
    for the fold that settles single-color items before the DP."""
    packing = PackedBounds(bound_row, max(weights, default=0))
    steps = [{packing.unit(c - 1, w): c for c in sorted(choices[i])} for i, w in enumerate(weights)]
    return packing.choose(steps, "part_weight_assignment")


def choose_by_sets(packing, steps, where):
    """``PackedBounds.choose`` on set-valued layers: layer i holds the
    fitting sums of the first i steps, a step that leaves none ends the
    search, and the walk back from the target takes, in each step's map
    order, the first state that leads into the layer below.  The reference
    for ``choose`` on zero-profit rows of ``layers`` and ``split``."""
    layers = [{0}]
    read = []
    for options in steps:
        nxt = {x for a in layers[-1] for b in options if packing.fits(x := a + b)}
        if not nxt:
            return None
        layers.append(nxt)
        read.append(options)
    state = packing.target
    if state not in layers[-1]:
        return None
    chosen = []
    for layer, options in zip(reversed(layers[:-1]), reversed(read)):
        step = first_predecessor((d for d in options if state - d in layer), where)
        state -= step
        chosen.append(options[step])
    chosen.reverse()
    return chosen


def complete_bipartite_by_masks(inst):
    """``cographs.solve_complete_bipartite`` by trying all 2^k commitments of
    colors to sides in ascending mask order (bit c-1 set: color c on side B),
    checking each (part, side) by its weight sum and
    ``part_weight_assignment_unfolded``."""
    side_a, side_b = inst.complete_bipartite_sides
    k = inst.k
    part_members = {
        (h, s): [v for v in (side_a if s == 0 else side_b) if inst.part_of[v] == h]
        for h in range(1, inst.p + 1)
        for s in (0, 1)
    }
    for mask in range(1 << k):
        side_colors = (
            frozenset(c for c in range(1, k + 1) if not mask >> (c - 1) & 1),
            frozenset(c for c in range(1, k + 1) if mask >> (c - 1) & 1),
        )
        color_of = [0] * inst.n
        ok = True
        for h in range(1, inst.p + 1):
            for s in (0, 1):
                members = part_members[(h, s)]
                masked_row = tuple(
                    inst.bounds[h - 1][c - 1] if c in side_colors[s] else 0
                    for c in range(1, k + 1)
                )
                if sum(masked_row) != sum(inst.weight[v] for v in members):
                    ok = False
                    break
                colors = part_weight_assignment_unfolded(
                    [inst.weight[v] for v in members],
                    [inst.allowed[v] & side_colors[s] for v in members],
                    masked_row,
                )
                if colors is None:
                    ok = False
                    break
                for v, c in zip(members, colors):
                    color_of[v] = c
            if not ok:
                break
        if ok:
            return SolveOutcome.feasible_from(inst, color_of)
    return SolveOutcome.infeasible_outcome()


# ---------------------------------------------------------------------------
# independent source-problem answers


def partition_answer(values, target):
    n = len(values)
    return any(
        sum(values[i] for i in range(n) if mask >> i & 1) == target for mask in range(1 << n)
    )


def three_partition_answer(values, target):
    def rec(remaining):
        if not remaining:
            return True
        first = min(remaining)
        rest = sorted(remaining - {first})
        for a, b in combinations(rest, 2):
            if values[first] + values[a] + values[b] == target and rec(remaining - {first, a, b}):
                return True
        return False

    return rec(set(range(len(values))))


def one_in_three_answer(num_variables, clauses):
    for bits in product([False, True], repeat=num_variables):
        if all(sum(bits[x - 1] for x in clause) == 1 for clause in clauses):
            return True
    return False


def three_dim_matching_answer(size, triples):
    for combo in combinations(range(len(triples)), size):
        picked = [triples[i] for i in combo]
        if all(len({t[d] for t in picked}) == size for d in range(3)):
            return True
    return False


# ---------------------------------------------------------------------------
# source samplers


def random_partition_source(rng, n_max=6, v_max=8):
    from lbcolor import PartitionSource

    n = rng.randint(1, n_max)
    while True:
        values = [rng.randint(1, v_max) for _ in range(n)]
        if sum(values) % 2 == 0:
            return PartitionSource(values=tuple(values), target=sum(values) // 2)


def random_three_partition_source(rng, groups=2):
    """3n values strictly between target/4 and target/2 summing to n*target."""
    from lbcolor import ThreePartitionSource

    n = groups
    while True:
        target = rng.randint(8, 24)
        lo, hi = target // 4 + 1, (target - 1) // 2
        if lo > hi:
            continue
        values = [rng.randint(lo, hi) for _ in range(3 * n - 1)]
        last = n * target - sum(values)
        if lo <= last <= hi:
            values.append(last)
            rng.shuffle(values)
            return ThreePartitionSource(values=tuple(values), target=target)


def random_one_in_three_source(rng, nu_max=4, mu_max=3):
    from lbcolor import OneInThreeSatSource

    nu = rng.randint(3, nu_max)
    mu = rng.randint(1, mu_max)
    clauses = tuple(tuple(sorted(rng.sample(range(1, nu + 1), 3))) for _ in range(mu))
    return OneInThreeSatSource(num_variables=nu, clauses=clauses)


def random_three_dim_source(rng, size_max=2, triples_max=3):
    """Sources where every element occurs in some triple and |T| >= 2."""
    from lbcolor import ThreeDimMatchingSource

    size = rng.randint(1, size_max)
    count = rng.randint(2, max(2, triples_max))
    while True:
        triples = [tuple(rng.randint(1, size) for _ in range(3)) for _ in range(count)]
        covered = all(
            any(t[d] == e for t in triples) for d in range(3) for e in range(1, size + 1)
        )
        if covered:
            return ThreeDimMatchingSource(size=size, triples=tuple(triples))
