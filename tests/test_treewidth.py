import dataclasses
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.approximation import treewidth_min_degree, treewidth_min_fill_in

from lbcolor import (
    ColoringInstance,
    DecompositionError,
    RawDecomposition,
    UsageError,
    brute_force_solve,
    build_nice_decomposition,
    dp_edge,
    dp_vertex,
)
from lbcolor.instance import adjacency_masks, bits
from lbcolor import treewidth
from lbcolor.treewidth import (
    check_raw_decomposition,
    elimination_tree,
    min_fill_order,
    nice_from_tree,
)

from corpus import (
    assert_outcome,
    computed_tree_reference,
    conflict_closure_sets,
    conflict_pairs,
    cycles_with_pendant_trees,
    dp_tables,
    isolated_vertices,
    join_row_mismatches,
    line_graph_instance,
    min_fill_order_rescan,
    min_fill_width,
    order_to_raw,
    random_edge_instance,
    random_graph_for_orders,
    random_vertex_instance,
    root_meet_mismatch,
    tree_plus_chords_corpus,
    treewidth_by_elimination_orders,
    two_core_edges,
    validate_raw_decomposition,
    without_isolated,
)


def supplied(inst, raw):
    """``inst`` carrying the decomposition ``raw``, as a document supplies one."""
    return dataclasses.replace(inst, decomposition=raw)


def full(k):
    return frozenset(range(1, k + 1))


def uncovered(dec, n):
    """The vertices of 0..n-1 in no bag of ``dec``."""
    return set(range(n)) - {v for bag in dec.bags for v in bag}


def relabelled(dec, labels):
    """``dec`` with vertex v renamed labels[v] (labels increasing)."""
    return dataclasses.replace(
        dec,
        bags=tuple(tuple(labels[v] for v in bag) for bag in dec.bags),
        vertex=tuple(None if v is None else labels[v] for v in dec.vertex),
    )


def vertex_inst(n, edges, k, p, part_of, weight, bounds, allowed=None, profit=None):
    return ColoringInstance(mode="vertex", n=n, edges=tuple(edges), k=k, p=p,
                            part_of=part_of, weight=weight, bounds=bounds,
                            allowed=allowed or (full(k),) * n, profit=profit)


# ---------------------------------------------------------------------------
# construction


def test_path_has_width_one():
    inst = vertex_inst(3, ((0, 1), (1, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    _, width = build_nice_decomposition(inst)
    assert width == 1


def test_triangle_has_width_two():
    inst = vertex_inst(3, ((0, 1), (1, 2), (0, 2)), 3, 1, (1,) * 3, (1,) * 3, ((1, 1, 1),))
    _, width = build_nice_decomposition(inst)
    assert width == 2


def test_heuristic_width_at_least_exact():
    rng = random.Random(47)
    for _ in range(25):
        n = 8
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3)
        exact = treewidth_by_elimination_orders(n, edges)
        assert min_fill_width(n, edges) >= exact


def test_min_fill_order_matches_rescan_reference():
    rng = random.Random(53)
    for _ in range(2000):
        n, edges = random_graph_for_orders(rng)
        nbr = adjacency_masks(n, edges)
        order = min_fill_order(nbr)
        reference = min_fill_order_rescan(n, edges)
        assert order == reference, (n, edges)
        assert nbr == adjacency_masks(n, edges)  # the caller's masks are not eliminated
        # computed trees are min-fill on the 2-core and give the rest no
        # node: compare on the core, where a pendant tree's edge counts as a
        # bag of two in the width.  Min-fill eliminates every peeled vertex
        # (fill 0, degree at most 1) before any vertex of the core, adding no
        # fill, so its order on the core is the whole graph's, restricted
        inst = vertex_inst(n, edges, 1, 1, (1,) * n, (1,) * n, ((n,),))
        core = two_core_edges(n, edges)
        labels, sub = without_isolated(n, core)
        m, new = len(labels), {v: i for i, v in enumerate(labels)}
        sub_inst = vertex_inst(m, sub, 1, 1, (1,) * m, (1,) * m, ((m,),))
        raw = order_to_raw(m, sub, [new[v] for v in reference if v in new])
        expected, _ = build_nice_decomposition(supplied(sub_inst, raw))
        expected = relabelled(expected, labels)
        width = expected.width if expected.width > 0 or not edges else 1
        assert build_nice_decomposition(inst) == (expected, width)
        assert uncovered(expected, n) == isolated_vertices(n, core)


def test_peel_leaves_the_2_core_and_hangs_each_peeled_vertex_once():
    rng = random.Random(57)
    for _ in range(1000):
        n, edges = random_graph_for_orders(rng, n_max=30)
        nbr = adjacency_masks(n, edges)
        order, parent, left = treewidth.peel(nbr)
        core = two_core_edges(n, edges)
        assert set(bits(left)) == set(range(n)) - isolated_vertices(n, core)
        assert sorted(order) == sorted(set(range(n)) - set(bits(left)))
        place = {v: i for i, v in enumerate(order)}
        for v in range(n):
            u = parent[v]
            if v not in place:
                assert u == -1
                continue
            # its parent is a neighbor peeled later or left, and every other
            # neighbor was peeled before it and hangs from it
            assert u == -1 or (nbr[v] >> u & 1 and place.get(u, n) > place[v])
            for w in bits(nbr[v]):
                assert w == u or (place[w] < place[v] and parent[w] == v)
        kept = rng.getrandbits(n) if n else 0
        order, parent, left = treewidth.peel(nbr, kept)
        assert left & kept == kept and not set(order) & set(bits(kept))


def test_a_forest_decomposes_to_the_empty_root():
    # every vertex of a forest, and every edge of a linear forest in edge
    # mode, is folded: no nice node but the empty root, width 1 with an edge
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 40)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        dec, width = build_nice_decomposition(vertex_inst(n, edges, 1, 1, (1,) * n, (1,) * n, ((n,),)))
        assert (dec.kinds, dec.bags, dec.root) == (("leaf",), ((),), 0)
        assert width == (1 if edges else -1)
        paths = [(v - 1, v) for v in range(1, n) if rng.random() < 0.8]
        inst = random_edge_instance(rng, edges=tuple(paths), n=n) if paths else None
        if inst is not None:
            assert build_nice_decomposition(inst) == (dec, 1 if conflict_pairs(inst) else -1)


def test_tree_plus_chords_corpus_builds_few_nice_nodes():
    # pendant trees get no node: on this corpus the nice trees of the whole
    # graphs had 7,727 nodes; those of the 2-cores have 2,889
    nodes = 0
    for n, edges in tree_plus_chords_corpus():
        dec, _ = build_nice_decomposition(vertex_inst(n, edges, 1, 1, (1,) * n, (1,) * n, ((n,),)))
        nodes += dec.size
    assert nodes <= 2889


def edges_inside_reference(edges, bag):
    """The mask of the edge ids with both ends in the vertex bag ``bag``."""
    return sum(1 << i for i, (u, v) in enumerate(edges) if bag >> u & 1 and bag >> v & 1)


def test_edge_decomposition_is_min_fill_over_the_line_graph():
    rng = random.Random(67)
    for _ in range(300):
        inst = random_edge_instance(rng, n_max=rng.choice((6, 14)), m_max=rng.choice((7, 30)))
        m, pairs = len(inst.edges), conflict_pairs(inst)
        core = two_core_edges(m, pairs)  # of L(G)
        raw = computed_tree_reference(m, core, min_fill_order_rescan(m, core))
        bags = [sum(1 << e for e in bag) for bag in raw.bags]
        expected = nice_from_tree(bags, rooted_children(raw), raw.root)
        width = expected.width if expected.width > 0 or not pairs else 1
        assert build_nice_decomposition(inst) == (expected, width), (inst.n, inst.edges)


def test_min_fill_order_on_a_large_tree():
    # the rescan is quadratic in n here; the incremental order stays local
    rng = random.Random(59)
    n = 3000
    label = list(range(n))
    rng.shuffle(label)
    edges = tuple(
        tuple(sorted((label[v], label[rng.randrange(v)]))) for v in range(1, n)
    )
    raw = order_to_raw(n, edges, min_fill_order(adjacency_masks(n, edges)))
    check_raw_decomposition(n, edges, raw)
    assert max(len(b) for b in raw.bags) - 1 == 1


def rooted_children(raw):
    """Per bag, its tree neighbors other than its parent when the tree hangs
    from ``raw.root``, in the order the tree edges list them."""
    nbrs = [[] for _ in raw.bags]
    for i, j in raw.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent = {raw.root: None}
    queue = [raw.root]
    for node in queue:
        for w in nbrs[node]:
            if w != parent[node]:
                parent[w] = node
                queue.append(w)
    return [[w for w in nbrs[node] if w != parent[node]] for node in range(len(raw.bags))]


def test_elimination_tree_matches_order_to_raw():
    rng = random.Random(89)
    for _ in range(2000):
        n, edges = random_graph_for_orders(rng)
        order = min_fill_order(adjacency_masks(n, edges)) if rng.random() < 0.5 else rng.sample(range(n), n)
        bags, children, root = elimination_tree(adjacency_masks(n, edges), order)
        raw = computed_tree_reference(n, edges, order)
        assert [tuple(bits(b)) for b in bags] == list(raw.bags), (n, edges, order)
        assert root == raw.root
        assert children == rooted_children(raw), (n, edges, order)
        covered = {v for bag in raw.bags for v in bag}
        assert set(range(n)) - covered == isolated_vertices(n, edges)


def nice_invariants(dec, n, edges, uncovered=frozenset()):
    """``dec`` is a nice decomposition of the graph less ``uncovered``, a set
    of vertices that no edge touches and that lie in no bag (computed trees
    give every vertex outside the 2-core none: ``edges`` is then the core's)."""
    seen = set()
    for bag in dec.bags:
        seen.update(bag)
        assert list(bag) == sorted(set(bag))
    assert seen == set(range(n)) - uncovered
    assert not uncovered & {v for edge in edges for v in edge}
    for u, v in edges:
        assert any(u in bag and v in bag for bag in dec.bags)
    # per-vertex occurrences form a connected subtree
    parent = [-1] * dec.size
    for i in range(dec.size):
        for ch in dec.children[i]:
            parent[ch] = i
    for v in seen:
        holders = [i for i in range(dec.size) if v in dec.bags[i]]
        tops = [i for i in holders if parent[i] not in holders]
        assert len(tops) == 1, f"vertex {v} occurrences split"
    assert dec.bags[dec.root] == ()
    for i in range(dec.size):
        kids = dec.children[i]
        kind = dec.kinds[i]
        if kind == "leaf":
            assert kids == () and dec.bags[i] == ()
        elif kind == "join":
            assert len(kids) == 2
            assert dec.bags[kids[0]] == dec.bags[i] == dec.bags[kids[1]]
        elif kind == "forget":
            (j,) = kids
            assert set(dec.bags[j]) - set(dec.bags[i]) == {dec.vertex[i]}
            assert len(dec.bags[j]) == len(dec.bags[i]) + 1
        else:
            (j,) = kids
            assert set(dec.bags[i]) - set(dec.bags[j]) == {dec.vertex[i]}
            assert len(dec.bags[i]) == len(dec.bags[j]) + 1


def joins_meet_on_kept_bags(dec):
    """Each join's bag is the union of the bags reached from its two children
    through introduce nodes only, so no vertex is introduced on both sides."""
    def below_introduces(node):
        while dec.kinds[node] == "introduce":
            (node,) = dec.children[node]
        return set(dec.bags[node])

    for i, kind in enumerate(dec.kinds):
        if kind == "join":
            left, right = dec.children[i]
            assert set(dec.bags[i]) == below_introduces(left) | below_introduces(right), i


def test_nice_form_invariants_on_random_graphs():
    rng = random.Random(53)
    for _ in range(30):
        inst = random_vertex_instance(rng, n_max=8)
        dec, width = build_nice_decomposition(inst)
        core = two_core_edges(inst.n, inst.edges)
        nice_invariants(dec, inst.n, core, isolated_vertices(inst.n, core))
        joins_meet_on_kept_bags(dec)
        assert dec.size <= 4 * (inst.n + 1) * (width + 2)


def reshuffled(rng, raw):
    """The same tree decomposition rooted at a random bag, its tree edges
    listed in a random order and direction."""
    tree_edges = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in raw.tree_edges]
    rng.shuffle(tree_edges)
    return RawDecomposition(bags=raw.bags, tree_edges=tuple(tree_edges), root=rng.randrange(len(raw.bags)))


def test_joins_meet_on_kept_bags():
    rng = random.Random(97)
    joins = 0
    for _ in range(200):
        n, edges = random_graph_for_orders(rng, n_max=24)
        inst = vertex_inst(n, edges, 1, 1, (1,) * n, (1,) * n, ((n,),))
        computed, _ = build_nice_decomposition(inst)
        raw = reshuffled(rng, order_to_raw(n, edges, rng.sample(range(n), n)))
        given_dec, _ = build_nice_decomposition(supplied(inst, raw))
        core = two_core_edges(n, edges)
        for dec, graph, loose in ((computed, core, isolated_vertices(n, core)), (given_dec, edges, set())):
            nice_invariants(dec, n, graph, loose)
            joins_meet_on_kept_bags(dec)
            joins += dec.kinds.count("join")
    for _ in range(150):
        inst = random_edge_instance(rng, n_max=8, m_max=12)
        line = line_graph_instance(inst)
        dec, _ = build_nice_decomposition(inst)
        core = two_core_edges(line.n, line.edges)
        nice_invariants(dec, line.n, core, isolated_vertices(line.n, core))
        joins_meet_on_kept_bags(dec)
        joins += dec.kinds.count("join")
    assert joins > 0


def assert_nx_tree_decomposition(dec, graph):
    """networkx's view: the nice tree is a tree, and its bags cover every
    vertex and edge of ``graph`` and hold each vertex on a connected subtree."""
    tree = nx.Graph()
    tree.add_nodes_from(range(dec.size))
    tree.add_edges_from((i, c) for i in range(dec.size) for c in dec.children[i])
    assert nx.is_tree(tree)
    for v in graph.nodes:
        holders = [i for i, bag in enumerate(dec.bags) if v in bag]
        assert holders and nx.is_connected(tree.subgraph(holders)), v
    for u, v in graph.edges:
        assert any(u in bag and v in bag for bag in dec.bags), (u, v)


def test_nice_bags_form_a_tree_decomposition_by_networkx():
    rng = random.Random(101)
    for _ in range(300):
        n, edges = random_graph_for_orders(rng, n_max=rng.choice((10, 30)))
        graph = nx.empty_graph(n)
        graph.add_edges_from(edges)
        inst = vertex_inst(n, edges, 1, 1, (1,) * n, (1,) * n, ((n,),))
        dec, width = build_nice_decomposition(inst)
        # a pendant tree's edge counts as a bag of two
        assert width == (dec.width if dec.width > 0 or not edges else 1)
        # computed trees give the vertices outside the 2-core no node: they
        # alone lie in no bag, and the bags decompose the core
        core = nx.k_core(graph, 2)
        assert uncovered(dec, n) == set(graph) - set(core)
        assert_nx_tree_decomposition(dec, core)
        if n <= 10:
            assert width <= treewidth_min_fill_in(graph)[0]
            assert width <= treewidth_min_degree(graph)[0]
    for _ in range(150):
        inst = random_edge_instance(rng, n_max=8, m_max=12)
        graph = nx.empty_graph(inst.n)
        graph.add_edges_from(inst.edges)
        dec, _ = build_nice_decomposition(inst)
        line = nx.line_graph(graph)
        line = nx.relabel_nodes(line, {e: inst.edges.index(tuple(sorted(e))) for e in line})
        assert sorted(map(sorted, line.edges)) == sorted(map(list, line_graph_instance(inst).edges))
        # the edges outside the 2-core of L(G), among them an edge that no
        # other edge touches, lie in no bag
        core = nx.k_core(line, 2)
        assert uncovered(dec, len(inst.edges)) == set(line) - set(core)
        assert_nx_tree_decomposition(dec, core)


def test_computed_decompositions_build_no_raw_decomposition(monkeypatch):
    rng = random.Random(103)
    vertex = [random_vertex_instance(rng, n_max=16, edge_p=0.2) for _ in range(20)]
    edge = [random_edge_instance(rng) for _ in range(20)]

    def refuse(self):
        raise AssertionError("a RawDecomposition was built")

    monkeypatch.setattr(RawDecomposition, "__post_init__", refuse)
    for inst in vertex:
        dp_vertex(inst, build_nice_decomposition(inst)[0])
    for inst in edge:
        dp_edge(inst, build_nice_decomposition(inst)[0])


def test_supplied_decomposition_validation_errors():
    edges = ((0, 1), (1, 2))
    with pytest.raises(DecompositionError, match=r"condition \(1\)"):
        check_raw_decomposition(3, edges, RawDecomposition(((0, 1),), (), 0))
    with pytest.raises(DecompositionError, match=r"condition \(2\)"):
        check_raw_decomposition(
            3, edges, RawDecomposition(((0, 1), (2,)), ((0, 1),), 0)
        )
    with pytest.raises(DecompositionError, match=r"condition \(3\)"):
        check_raw_decomposition(
            3, edges,
            RawDecomposition(((0, 1), (2,), (1, 2)), ((0, 1), (1, 2)), 0),
        )
    with pytest.raises(DecompositionError, match="tree"):
        check_raw_decomposition(
            3, edges, RawDecomposition(((0, 1), (1, 2)), (), 0)
        )


def corrupted(rng, n, edges, raw):
    """``raw`` with one random fault of its tree or of a condition; a fault
    that finds nothing to act on leaves it valid."""
    bags = [list(bag) for bag in raw.bags]
    tree_edges = list(raw.tree_edges)
    root = raw.root
    nb = len(bags)
    bag = bags[rng.randrange(nb)]
    fault = rng.randrange(11)
    if fault == 0:  # a vertex out of range
        bag.insert(rng.randrange(len(bag) + 1), rng.choice((-1, n, n + 2)))
    elif fault == 1 and bag:  # a repeated vertex
        bag.insert(rng.randrange(len(bag) + 1), rng.choice(bag))
    elif fault == 2 and tree_edges:  # a dropped tree edge
        tree_edges.pop(rng.randrange(len(tree_edges)))
    elif fault == 3:  # an extra tree edge
        tree_edges.insert(rng.randrange(len(tree_edges) + 1), (rng.randrange(nb), rng.randrange(-1, nb + 1)))
    elif fault == 4 and tree_edges:  # a tree edge moved: bad, or disconnecting
        tree_edges[rng.randrange(len(tree_edges))] = (rng.randrange(nb), rng.randrange(-1, nb + 1))
    elif fault == 5:  # a bad root
        root = rng.choice((-1, nb, nb + 3))
    elif fault == 6 and n:  # an uncovered vertex
        v = rng.randrange(n)
        bags = [[u for u in b if u != v] for b in bags]
    elif fault == 7 and edges:  # an edge inside no bag
        u, v = rng.choice(edges)
        for b in bags:
            if u in b and v in b:
                b.remove(rng.choice((u, v)))
    elif fault == 8 and n:  # a split holder subtree, unless the bag joins it
        v = rng.randrange(n)
        if v not in bag:
            bag.append(v)
    elif fault == 9 and bag:  # a vertex dropped from one bag: any of (1)-(3)
        bag.remove(rng.choice(bag))
    elif fault == 10:
        bags, tree_edges = [], []
    return RawDecomposition(bags=tuple(map(tuple, bags)), tree_edges=tuple(tree_edges), root=root)


def checked(check, n, edges, raw):
    try:
        return check(n, edges, raw)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def test_check_raw_decomposition_matches_set_reference():
    rng = random.Random(109)
    messages = set()
    accepted = 0
    for _ in range(2400):
        n, edges = random_graph_for_orders(rng, n_max=12)
        raw = order_to_raw(n, edges, rng.sample(range(n), n))
        if rng.random() < 0.5:
            raw = reshuffled(rng, raw)
        if rng.random() < 0.7:
            raw = corrupted(rng, n, edges, raw)
        expected = checked(validate_raw_decomposition, n, edges, raw)
        got = checked(check_raw_decomposition, n, edges, raw)
        if expected is None:
            bags, children, lifted = got
            assert bags == [sum(1 << v for v in bag) for bag in raw.bags]
            assert children == rooted_children(raw), (n, edges, raw)
            assert lifted == [edges_inside_reference(edges, bag) for bag in bags]
            accepted += 1
        else:
            assert got == expected, (n, edges, raw)
            messages.add(re.sub(r"\[[-\d, ]*\]|-?\d+", "#", expected[1]))
    assert accepted > 500
    assert len(messages) == 10, messages  # every check fires


def test_nice_from_tree_runs_once_per_decomposition(monkeypatch):
    calls = []
    make_nice = treewidth.nice_from_tree

    def counted(*args):
        calls.append(args)
        return make_nice(*args)

    monkeypatch.setattr(treewidth, "nice_from_tree", counted)
    rng = random.Random(113)
    instances = [random_vertex_instance(rng, n_max=8) for _ in range(15)]
    instances += [random_edge_instance(rng) for _ in range(15)]
    for inst in instances:
        # a decomposition of the conflict closure gathers adjacent edges
        graph = inst.edges if inst.mode == "vertex" else conflict_closure_sets(inst.n, inst.edges)
        raw = reshuffled(rng, order_to_raw(inst.n, graph, rng.sample(range(inst.n), inst.n)))
        for given_raw in (None, raw):
            calls.clear()
            dec, _ = build_nice_decomposition(supplied(inst, given_raw))
            assert len(calls) == 1, (inst.mode, given_raw)
            if inst.mode == "edge":
                calls.clear()
                dp_edge(inst, dec)
                assert calls == []


def test_supplied_decomposition_is_used():
    inst = vertex_inst(3, ((0, 1), (1, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    raw = RawDecomposition(bags=((0, 1), (1, 2)), tree_edges=((0, 1),), root=0)
    dec, width = build_nice_decomposition(supplied(inst, raw))
    assert width == 1
    out = dp_vertex(inst, dec)
    assert out.feasible and out.witness.color_of == (1, 2, 1)


# ---------------------------------------------------------------------------
# vertex DP


def test_dp_vertex_path_matches_forced_coloring():
    inst = vertex_inst(3, ((0, 1), (1, 2)), 2, 1, (1,) * 3, (1,) * 3, ((2, 1),))
    dec, _ = build_nice_decomposition(inst)
    out = dp_vertex(inst, dec)
    assert out.feasible and out.witness.color_of == (1, 2, 1)


def test_dp_vertex_star_with_pinned_center():
    star = ((0, 1), (0, 2), (0, 3))
    lists = (frozenset({1}),) + (full(2),) * 3
    feasible = vertex_inst(4, star, 2, 1, (1,) * 4, (1,) * 4, ((1, 3),), allowed=lists)
    dec, _ = build_nice_decomposition(feasible)
    out = dp_vertex(feasible, dec)
    assert out.feasible and out.witness.color_of == (1, 2, 2, 2)
    tight = vertex_inst(4, star, 2, 1, (1,) * 4, (1,) * 4, ((2, 2),), allowed=lists)
    assert not dp_vertex(tight, build_nice_decomposition(tight)[0]).feasible


def test_dp_vertex_matches_oracle_decide_and_maximize():
    rng = random.Random(59)
    for _ in range(120):
        inst = random_vertex_instance(rng, tw_cap=3, profit=True)
        dec, _ = build_nice_decomposition(inst)
        decide = dp_vertex(inst, dec)
        assert decide.status == brute_force_solve(inst).status
        assert_outcome(inst, decide)
        best = dp_vertex(inst, dec, "maximize")
        oracle_best = brute_force_solve(inst, "maximize")
        assert best.status == oracle_best.status
        if best.feasible:
            assert best.objective == oracle_best.objective
            assert_outcome(inst, best)


def test_dp_vertex_usage_errors():
    inst = random_vertex_instance(random.Random(0), profit=False)
    dec, _ = build_nice_decomposition(inst)
    with pytest.raises(UsageError, match="^dp_vertex: maximize requires a profit matrix"):
        dp_vertex(inst, dec, "maximize")
    with pytest.raises(UsageError, match="^dp_vertex: objective must be decide or maximize"):
        dp_vertex(inst, dec, "minimize")


def test_dp_edge_usage_errors_name_dp_edge():
    # dp_edge shares its body with dp_vertex, but its errors carry its own name
    inst = random_edge_instance(random.Random(0), profit=False)
    dec, _ = build_nice_decomposition(inst)
    with pytest.raises(UsageError, match="^dp_edge: maximize requires a profit matrix"):
        dp_edge(inst, dec, "maximize")
    with pytest.raises(UsageError, match="^dp_edge: objective must be decide or maximize"):
        dp_edge(inst, dec, "minimize")


def test_a_vertex_with_neighbors_must_lie_in_a_bag():
    # a computed decomposition leaves out the vertices outside the 2-core;
    # one in no bag is folded only on a pendant tree, so one with two bagged
    # neighbors, or one on a cycle of vertices in no bag, is an error
    def inst(edges):
        return vertex_inst(5, edges, 3, 1, (1,) * 5, (1,) * 5, ((2, 2, 1),))

    triangle = [(0, 1), (0, 2), (1, 2)]
    dec, _ = build_nice_decomposition(inst(triangle))
    assert uncovered(dec, 5) == {3, 4}
    assert dp_vertex(inst(triangle), dec).feasible
    assert dp_vertex(inst(triangle + [(2, 3), (3, 4)]), dec).feasible  # a pendant path
    with pytest.raises(UsageError, match="dp_vertex: vertex 3 lies in no bag and on no pendant tree"):
        dp_vertex(inst(triangle + [(0, 3), (2, 3)]), dec)
    empty, _ = build_nice_decomposition(inst([]))
    assert uncovered(empty, 5) == set(range(5))
    with pytest.raises(UsageError, match="dp_vertex: vertex 2 lies in no bag and on no pendant tree"):
        dp_vertex(inst([(0, 1), (2, 3), (2, 4), (3, 4)]), empty)


def test_decomposition_independence():
    rng = random.Random(61)
    for _ in range(25):
        inst = random_vertex_instance(rng, n_max=6, profit=True)
        dec_a, _ = build_nice_decomposition(inst)
        # alternative decomposition from the identity elimination order
        raw = order_to_raw(inst.n, inst.edges, list(range(inst.n)))
        dec_b, _ = build_nice_decomposition(supplied(inst, raw))
        assert dp_vertex(inst, dec_a).status == dp_vertex(inst, dec_b).status
        a = dp_vertex(inst, dec_a, "maximize")
        b = dp_vertex(inst, dec_b, "maximize")
        assert a.status == b.status and a.objective == b.objective


@pytest.mark.parametrize("maximize", [False, True])
def test_stored_tuples_stay_within_bounds(maximize):
    rng = random.Random(67)
    for _ in range(20):
        inst = random_vertex_instance(rng, n_max=6, profit=maximize)
        dec, _ = build_nice_decomposition(inst)
        tables = dp_tables(inst, dec, maximize)
        for node, table in enumerate(tables):
            if table is None:  # only the root join's, met at the target instead
                assert node == dec.root and dec.kinds[node] == "join"
                assert not root_meet_mismatch(inst, dec, tables)
                continue
            for row in table.values():
                for state in row:
                    tup = inst.packing.unpack(state)
                    assert all(x <= b for x, b in zip(tup, inst.bounds_flat))
                    assert all(x >= 0 for x in tup)


@pytest.mark.parametrize("maximize", [False, True])
def test_join_conservation_holds_on_traced_tables(maximize):
    rng = random.Random(71)
    total = 0
    for _ in range(40):
        # pendant trees are folded, not joined: the joins lie in the 2-core
        n, edges = cycles_with_pendant_trees(rng, trees_max=4)
        inst = random_vertex_instance(rng, n=n, edges=edges, profit=maximize)
        dec, _ = build_nice_decomposition(inst)
        tables = dp_tables(inst, dec, maximize)
        checked, mismatches = join_row_mismatches(inst, dec, tables, maximize)
        assert mismatches == 0
        total += checked
    assert total > 0


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_profits_change_only_the_values_of_the_tables(mode):
    # decide is maximize over zero profits: at every node both runs keep the
    # same keys and the same states per key, and decide's profits all read 0
    rng = random.Random(73)
    for _ in range(40):
        if mode == "vertex":
            inst = random_vertex_instance(rng, n_max=7, edge_p=0.45, profit=True)
        else:
            inst = random_edge_instance(rng, n_max=6, m_max=8, profit=True, planted=True)
        dec, _ = build_nice_decomposition(inst)
        decide = dp_tables(inst, dec)
        maximize = dp_tables(inst, dec, True)
        for node in range(dec.size):
            if decide[node] is None:  # the root join's, met at the target instead
                assert maximize[node] is None
                continue
            assert decide[node].keys() == maximize[node].keys(), node
            for key, row in decide[node].items():
                assert row.keys() == maximize[node][key].keys(), (node, key)
                assert set(row.values()) <= {0}, (node, key)


# ---------------------------------------------------------------------------
# edge DP


def test_dp_edge_two_edge_path_alternates():
    inst = ColoringInstance(mode="edge", n=3, edges=((0, 1), (1, 2)), k=2, p=1,
                            part_of=(1, 1), weight=(1, 1), bounds=((1, 1),),
                            allowed=(full(2),) * 2)
    dec, _ = build_nice_decomposition(inst)
    out = dp_edge(inst, dec)
    assert out.feasible
    assert_outcome(inst, out)


def test_dp_edge_triangle_needs_three_colors():
    inst = ColoringInstance(mode="edge", n=3, edges=((0, 1), (0, 2), (1, 2)), k=2, p=1,
                            part_of=(1, 1, 1), weight=(1, 1, 1), bounds=((2, 1),),
                            allowed=(full(2),) * 3)
    dec, _ = build_nice_decomposition(inst)
    assert not dp_edge(inst, dec).feasible


def test_dp_edge_adjacent_edges_in_distant_bags():
    # shares only vertex 1; a decomposition of the bare graph would split them
    inst = ColoringInstance(mode="edge", n=5, edges=((1, 2), (1, 4)), k=1, p=2,
                            part_of=(2, 2), weight=(1, 2), bounds=((0,), (3,)),
                            allowed=(frozenset({1}),) * 2)
    dec, _ = build_nice_decomposition(inst)
    assert not dp_edge(inst, dec).feasible


def test_dp_edge_rejects_decomposition_splitting_conflicts():
    inst = ColoringInstance(mode="edge", n=3, edges=((0, 1), (1, 2)), k=2, p=1,
                            part_of=(1, 1), weight=(1, 1), bounds=((1, 1),),
                            allowed=(full(2),) * 2)
    raw = RawDecomposition(bags=((0, 1), (1, 2)), tree_edges=((0, 1),), root=0)
    with pytest.raises(UsageError, match="adjacent edges"):
        build_nice_decomposition(supplied(inst, raw))


def test_supplied_edge_decompositions_must_gather_conflicts():
    rng = random.Random(127)
    outcomes = set()
    for _ in range(300):
        inst = random_edge_instance(rng, n_max=8, m_max=12)
        # a decomposition of G alone may split two adjacent edges
        raw = reshuffled(rng, order_to_raw(inst.n, inst.edges, rng.sample(range(inst.n), inst.n)))
        split = [
            (a, b) for a, b in conflict_pairs(inst)
            if not any(set(inst.edges[a] + inst.edges[b]) <= set(bag) for bag in raw.bags)
        ]
        if split:
            a, b = split[0]
            with pytest.raises(UsageError) as err:
                build_nice_decomposition(supplied(inst, raw))
            assert f"adjacent edges {inst.edges[a]} and {inst.edges[b]} into one bag" in str(err.value)
        else:
            dec, _ = build_nice_decomposition(supplied(inst, raw))
            assert_outcome(inst, dp_edge(inst, dec))
        outcomes.add(bool(split))
    assert outcomes == {False, True}


def test_dp_edge_accepts_supplied_single_bag_decomposition():
    inst = ColoringInstance(mode="edge", n=3, edges=((0, 1), (1, 2)), k=2, p=1,
                            part_of=(1, 1), weight=(1, 1), bounds=((1, 1),),
                            allowed=(full(2),) * 2)
    raw = RawDecomposition(bags=((0, 1, 2),), tree_edges=(), root=0)
    dec, width = build_nice_decomposition(supplied(inst, raw))
    assert width == 1  # one bag of L(G) holding both edges
    out = dp_edge(inst, dec)
    assert out.feasible
    assert_outcome(inst, out)


def test_dp_edge_matches_oracle():
    rng = random.Random(73)
    for _ in range(120):
        inst = random_edge_instance(rng)
        dec, _ = build_nice_decomposition(inst)
        out = dp_edge(inst, dec)
        assert out.status == brute_force_solve(inst).status
        assert_outcome(inst, out)


def test_lifted_decomposition_is_valid_for_the_line_graph():
    # a computed one decomposes the 2-core of L(G), which leaves out the
    # edges that no other edge touches; a supplied one of the conflict closure,
    # lifted to the edges inside its bags, decomposes all of L(G)
    rng = random.Random(83)
    for _ in range(60):
        inst = random_edge_instance(rng)
        line = line_graph_instance(inst)
        labels, sub = without_isolated(line.n, two_core_edges(line.n, line.edges))
        new = {e: i for i, e in enumerate(labels)}
        closure = conflict_closure_sets(inst.n, inst.edges)
        raw = reshuffled(rng, order_to_raw(inst.n, closure, rng.sample(range(inst.n), inst.n)))
        for dec, graph, relabel in (
            (build_nice_decomposition(inst)[0], (len(labels), sub), new),
            (build_nice_decomposition(supplied(inst, raw))[0], (line.n, line.edges), None),
        ):
            bags = [tuple(relabel[e] for e in bag) if relabel else bag for bag in dec.bags]
            tree_edges = [(node, c) for node in range(dec.size) for c in dec.children[node]]
            validate_raw_decomposition(*graph, RawDecomposition(bags=bags, tree_edges=tree_edges, root=dec.root))


def test_edge_join_conservation():
    # the edge DP's join tables, checked against the vertex instance on L(G)
    rng = random.Random(79)
    total = drawn = 0
    while drawn < 30:
        inst = random_edge_instance(rng, n_max=8, m_max=10, planted=True)
        dec, _ = build_nice_decomposition(inst)
        if all(kind != "join" or node == dec.root for node, kind in enumerate(dec.kinds)):
            continue  # no join but the root's, which is met at the target, not tabled
        drawn += 1
        checked, mismatches = join_row_mismatches(
            line_graph_instance(inst), dec, dp_tables(inst, dec)
        )
        assert mismatches == 0
        total += checked
    assert total > 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), lone=st.integers(0, 4), profit=st.booleans())
def test_the_edge_dp_is_the_vertex_dp_on_the_line_graph(seed, lone, profit):
    # G plus ``lone`` edges on fresh vertices, which no other edge touches
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randint(0, min(9, len(pairs))))
    edges += [(n + 2 * i, n + 2 * i + 1) for i in range(lone)]
    inst = random_edge_instance(rng, edges=tuple(edges), n=n + 2 * lone, profit=profit, planted=rng.random() < 0.7)
    line = line_graph_instance(inst)
    dec = build_nice_decomposition(inst)
    assert dec == build_nice_decomposition(line)
    assert uncovered(dec[0], len(edges)) >= set(range(len(edges) - lone, len(edges)))  # packed steps
    for objective in ("decide", "maximize") if profit else ("decide",):
        got, want = dp_edge(inst, dec[0], objective), dp_vertex(line, dec[0], objective)
        assert (got.status, got.witness, got.objective) == (want.status, want.witness, want.objective), objective
        assert_outcome(inst, got)
