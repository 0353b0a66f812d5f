import random
from itertools import chain, combinations

import pytest

from lbcolor import ClassReport, ColoringInstance, UsageError, auto_solver_name, solve_with, treewidth
from lbcolor import basic, cographs, split

from corpus import (
    assert_outcome,
    complete_bipartite_sides_sets,
    cotree_or_prime_sets,
    cotree_or_prime_two_pass,
    graph_instance,
    random_cograph_edges,
    min_fill_width,
    random_vertex_instance,
    relabel,
    split_partition_sets,
    squares_and_edges,
    threshold_edges,
    treewidth_by_elimination_orders,
)


def test_three_isolated_vertices():
    rep = ClassReport(graph_instance(3, ()))
    assert rep.edgeless and rep.cograph and rep.split
    assert not rep.complete and not rep.complete_bipartite
    assert min_fill_width(3, ()) == 0


def test_p4_flags():
    rep = ClassReport(graph_instance(4, ((0, 1), (1, 2), (2, 3))))
    # P4 is the forbidden structure for cographs, yet it is a split graph
    # (clique = the middle edge, independent set = the endpoints)
    assert not rep.cograph and rep.split
    assert min_fill_width(4, ((0, 1), (1, 2), (2, 3))) == 1


def test_k22_flags():
    rep = ClassReport(graph_instance(4, ((0, 2), (0, 3), (1, 2), (1, 3))))
    assert rep.complete_bipartite and rep.cograph and not rep.split
    assert min_fill_width(4, ((0, 2), (0, 3), (1, 2), (1, 3))) == 2
    assert treewidth_by_elimination_orders(4, ((0, 2), (0, 3), (1, 2), (1, 3))) == 2


def test_single_vertex_and_complete_graphs():
    rep = ClassReport(graph_instance(1, ()))
    assert rep.complete and rep.edgeless and rep.split and rep.cograph
    k4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    rep = ClassReport(graph_instance(4, k4))
    assert rep.complete and rep.split and rep.cograph and not rep.complete_bipartite
    assert min_fill_width(4, k4) == 3


def brute_flags(n, edges):
    edge_set = set(edges)

    def adjacent(a, b):
        return (min(a, b), max(a, b)) in edge_set

    complete = all(adjacent(a, b) for a in range(n) for b in range(a + 1, n))
    has_p4 = False
    for quad in combinations(range(n), 4):
        inside = [(a, b) for i, a in enumerate(quad) for b in quad[i + 1 :] if adjacent(a, b)]
        degs = sorted(sum(1 for e in inside if v in e) for v in quad)
        if len(inside) == 3 and degs == [1, 1, 2, 2]:
            has_p4 = True
            break
    split = False
    for mask in range(1 << n):
        clique = [v for v in range(n) if mask >> v & 1]
        rest = [v for v in range(n) if not mask >> v & 1]
        if all(adjacent(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]) and all(
            not adjacent(a, b) for i, a in enumerate(rest) for b in rest[i + 1 :]
        ):
            split = True
            break
    # complete bipartite: connected, 2-colorable, all cross pairs present
    cb = False
    if n >= 2 and edges:
        side = [-1] * n
        side[0] = 0
        stack = [0]
        ok = True
        while stack:
            u = stack.pop()
            for v in range(n):
                if adjacent(u, v):
                    if side[v] < 0:
                        side[v] = side[u] ^ 1
                        stack.append(v)
                    elif side[v] == side[u]:
                        ok = False
        if ok and all(s >= 0 for s in side):
            cb = all(
                adjacent(a, b) == (side[a] != side[b])
                for a in range(n)
                for b in range(a + 1, n)
            )
    return complete, has_p4, split, cb


def test_flags_match_brute_force_definitions():
    rng = random.Random(149)
    for _ in range(80):
        n = rng.randint(1, 7)
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45)
        rep = ClassReport(graph_instance(n, edges))
        complete, has_p4, split, cb = brute_flags(n, edges)
        assert rep.complete == complete
        assert rep.cograph == (not has_p4)
        assert rep.split == split
        assert rep.complete_bipartite == cb
        assert rep.edgeless == (not edges)
        assert min_fill_width(n, edges) >= treewidth_by_elimination_orders(n, edges)



def test_dispatch_builds_no_elimination_order(monkeypatch):
    def refuse(*args):
        raise AssertionError("dispatch computed a tree-width")

    monkeypatch.setattr(treewidth, "min_fill_order", refuse)
    rng = random.Random(0)
    # three disjoint 4-cycles: a cograph, neither split nor complete bipartite
    cycles = tuple(
        edge
        for base in (0, 4, 8)
        for edge in ((base, base + 1), (base + 1, base + 2), (base + 2, base + 3), (base, base + 3))
    )
    assert auto_solver_name(random_vertex_instance(rng, n=12, edges=cycles)) == "cograph"
    # clique {0..5}, each of 6..11 joined to two clique vertices
    split = tuple((u, v) for u in range(6) for v in range(u + 1, 6))
    split += tuple((u, v) for v in range(6, 12) for u in (v - 6, (v - 5) % 6))
    assert auto_solver_name(random_vertex_instance(rng, n=12, edges=split)) == "split-kfixed"
    # two disjoint triangles in edge mode: a cograph that is not split
    triangles = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    edge_inst = ColoringInstance(mode="edge", n=6, edges=triangles, k=3, p=1,
                                 part_of=(1,) * 6, weight=(1,) * 6, bounds=((2, 2, 2),),
                                 allowed=(frozenset({1, 2, 3}),) * 6)
    assert auto_solver_name(edge_inst) == "cograph-edge"


def test_dispatch_runs_only_the_class_tests_it_reads(monkeypatch):
    def refuse(*args):
        raise AssertionError("dispatch ran a class test its branch does not read")

    monkeypatch.setattr(split, "split_partition_masks", refuse)
    monkeypatch.setattr(cographs, "complete_bipartite_masks", refuse)
    rng = random.Random(1)
    # two disjoint triangles: a cograph, not complete
    triangles = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    inst = random_vertex_instance(rng, n=6, edges=triangles, profit=True)
    assert auto_solver_name(inst, "maximize") == "cograph"

    monkeypatch.undo()
    monkeypatch.setattr(cographs, "_cotree_or_prime", refuse)
    # a triangle with a pendant edge in edge mode: split
    edge_inst = ColoringInstance(mode="edge", n=4, edges=((0, 1), (0, 2), (1, 2), (2, 3)), k=3, p=1,
                                 part_of=(1,) * 4, weight=(1,) * 4, bounds=((2, 1, 1),),
                                 allowed=(frozenset({1, 2, 3}),) * 4)
    assert auto_solver_name(edge_inst) == "split-edge"


# ---------------------------------------------------------------------------
# the bitmask class tests against the set-based ones and against networkx


def _gnp(rng, n):
    density = rng.random()
    return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)


def _complete_bipartite(rng, drop_one):
    a, b = rng.randint(1, 20), rng.randint(1, 20)
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    if drop_one:
        edges.pop(rng.randrange(len(edges)))
    return a + b, relabel(rng, a + b, edges)


def _recognition_corpus(rng):
    """2000 graphs: G(n, p), random cographs, complete bipartite graphs with
    and without one edge removed, and threshold graphs, all up to n = 40."""
    for _ in range(800):
        n = rng.randint(0, 40)
        yield n, _gnp(rng, n)
    for _ in range(600):
        n = rng.randint(1, 40)
        yield n, relabel(rng, n, random_cograph_edges(rng, n))
    for i in range(300):
        yield _complete_bipartite(rng, drop_one=i % 2 == 1)
    for _ in range(300):
        n = rng.randint(0, 40)
        yield n, threshold_edges(rng, n)


def _short_module_corpus(rng):
    """480 graphs made of modules of one and two vertices: perfect
    matchings, disjoint unions of 4-cycles and single edges, stars and
    cocktail-party graphs (K_2t less a perfect matching), every other one
    with up to three isolated vertices added, all relabelled."""
    for i in range(480):
        shape, t = i % 4, rng.randint(1, 16)
        if shape == 0:
            n, edges = 2 * t, [(2 * j, 2 * j + 1) for j in range(t)]
        elif shape == 1:
            n, edges = squares_and_edges(rng.randint(0, 12), t)
        elif shape == 2:
            n, edges = t + 1, [(0, v) for v in range(1, t + 1)]
        else:
            n, edges = 2 * t, [(u, v) for u in range(2 * t) for v in range(u + 1, 2 * t) if v != u + 1 or u % 2]
        if i % 8 >= 4:
            n += rng.randint(1, 3)
        yield n, relabel(rng, n, edges)


def test_bitmask_class_tests_match_the_set_based_ones():
    cographs_seen = primes_seen = split_seen = bipartite_seen = 0
    rng = random.Random(113)
    for n, edges in chain(_recognition_corpus(rng), _short_module_corpus(rng)):
        inst = graph_instance(n, edges)
        if n:
            found = inst.cotree_or_prime
            assert found == cotree_or_prime_sets(n, edges), (n, edges)
            cographs_seen += isinstance(found, cographs.Cotree)
            primes_seen += not isinstance(found, cographs.Cotree)
        sp = inst.split_partition
        assert sp == split_partition_sets(n, edges), (n, edges)
        sides = inst.complete_bipartite_sides
        assert sides == complete_bipartite_sides_sets(n, edges), (n, edges)
        split_seen += sp is not None
        bipartite_seen += sides is not None
    assert min(cographs_seen, primes_seen, split_seen, bipartite_seen) >= 150


def test_one_pass_cotree_matches_the_two_pass_build():
    # below the root each module gets one breadth-first pass, and a search
    # stops once its component holds every vertex left; the build must not
    # change, on random graphs of every shape and on deep threshold graphs
    rng = random.Random(149)
    graphs = list(_recognition_corpus(rng))
    graphs += [(n, _gnp(rng, n)) for n in (rng.randint(1, 14) for _ in range(1000))]
    graphs += [(n, threshold_edges(rng, n)) for n in (150, 300)]
    graphs += [(n, tuple((u, v) for v in range(1, n, 2) for u in range(v))) for n in (300, 601)]
    graphs += _short_module_corpus(rng)
    cographs_seen = primes_seen = 0
    for n, edges in graphs:
        inst = graph_instance(n, edges)
        found = inst.cotree_or_prime
        assert found == cotree_or_prime_two_pass(n, inst.neighbor_masks), (n, edges)
        cographs_seen += isinstance(found, cographs.Cotree)
        primes_seen += not isinstance(found, cographs.Cotree)
    assert min(cographs_seen, primes_seen) >= 500


# the README's dispatch order for vertex-mode decide: each class with the
# solver that ``auto`` picks for it (graph_instance has unit weights) and
# the solver forced for it
CLASS_SOLVERS = (
    ("complete", "complete", "complete"),
    ("complete_bipartite", "complete-bipartite", "complete-bipartite"),
    ("edgeless", "isolated-unit", "isolated-kfixed"),
    ("split", "split-kfixed", "split-kfixed"),
    ("cograph", "cograph", "cograph"),
)


def test_report_and_solvers_agree():
    empty_seen = 0
    for n, edges in _recognition_corpus(random.Random(131)):
        inst = graph_instance(n, edges)
        report = ClassReport(inst)
        held = [(auto, forced) for name, auto, forced in CLASS_SOLVERS if getattr(report, name)]
        for _, forced in held:
            try:
                out = solve_with(forced, inst)
            except UsageError as err:
                raise AssertionError(f"{forced} refused a graph the report places in its class: {err}") from err
            assert_outcome(inst, out)
        assert auto_solver_name(inst) == (held[0][0] if held else "treewidth"), (n, edges)
        empty_seen += n == 0
    assert empty_seen > 0


def test_split_and_threshold_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.threshold import is_threshold_graph
    rng = random.Random(127)
    split_seen = threshold_seen = 0
    for i in range(600):
        n = rng.randint(0, 12)
        edges = threshold_edges(rng, n) if i % 3 == 0 else _gnp(rng, n)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        report = ClassReport(graph_instance(n, edges))
        # Foldes-Hammer: split exactly when the graph and its complement are chordal
        assert report.split == (nx.is_chordal(graph) and nx.is_chordal(nx.complement(graph))), edges
        if is_threshold_graph(graph):
            assert report.split and report.cograph, edges
            threshold_seen += 1
        split_seen += report.split
    assert split_seen >= 200 and threshold_seen >= 200


def lowest_common_ancestors(ct):
    """Per pair of graph vertices u < v, the kind of their lowest common
    ancestor in the cotree ``ct``."""
    parent = [-1] * len(ct.kinds)
    for node, kids in enumerate(ct.children):
        for child in kids:
            parent[child] = node
    leaf = {v: node for node, v in enumerate(ct.vertex) if v is not None}
    kinds = {}
    for u in leaf:
        above = set()
        node = leaf[u]
        while node >= 0:
            above.add(node)
            node = parent[node]
        for v in leaf:
            if u < v:
                node = leaf[v]
                while node not in above:
                    node = parent[node]
                kinds[u, v] = ct.kinds[node]
    return kinds


def test_restricted_cotrees_join_exactly_the_adjacent_pairs():
    rng = random.Random(139)
    restricted = dp_checked = 0
    for n, edges in _recognition_corpus(random.Random(113)):
        found = graph_instance(n, edges).cotree_or_prime if n else None
        if not isinstance(found, cographs.Cotree):
            continue
        kept = sorted(rng.sample(range(n), rng.randint(0, n)))
        new = {v: i for i, v in enumerate(kept)}
        sub = tuple((new[u], new[v]) for u, v in edges if u in new and v in new)
        ct = found.restricted(kept)
        assert sorted(v for v in ct.vertex if v is not None) == list(range(len(kept)))
        assert all(len(kids) == (0 if kind == "leaf" else 2) for kind, kids in zip(ct.kinds, ct.children))
        joined = {pair for pair, kind in lowest_common_ancestors(ct).items() if kind == "join"}
        assert joined == set(sub), (n, edges, kept)
        restricted += 1
        if len(kept) <= 12:
            inst = random_vertex_instance(rng, n=len(kept), k=rng.randint(2, 3), edges=sub, profit=True,
                                          planted=rng.random() < 0.8)
            rebuilt = cographs.build_cotree(inst)
            got, want = cographs.dp_cograph(inst, ct), cographs.dp_cograph(inst, rebuilt)
            assert_outcome(inst, got)
            assert got.status == want.status
            got, want = cographs.dp_cograph(inst, ct, "maximize"), cographs.dp_cograph(inst, rebuilt, "maximize")
            assert_outcome(inst, got)
            assert (got.status, got.objective) == (want.status, want.objective)
            dp_checked += 1
    assert restricted >= 500 and dp_checked >= 100


def test_the_cograph_residual_restricts_the_cached_cotree(monkeypatch):
    builds = []
    original = cographs._cotree_or_prime
    monkeypatch.setattr(cographs, "_cotree_or_prime", lambda n, nbr: builds.append(n) or original(n, nbr))
    rng = random.Random(149)
    shrunk = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        edges = relabel(rng, n, random_cograph_edges(rng, n))
        inst = random_vertex_instance(rng, n=n, k=3, edges=edges, profit=True, planted=True)
        builds.clear()
        for objective in ("decide", "maximize"):
            assert_outcome(inst, solve_with("cograph", inst, objective))
        assert builds == [n]  # the whole instance's, shared by both solves
        forced = basic.forced_residual(inst)
        if forced is not None and 0 < len(forced[2]) < n:
            assert forced[1].__dict__["cotree_or_prime"] == inst.cotree_or_prime.restricted(forced[2])
            shrunk += 1
    assert shrunk >= 40
