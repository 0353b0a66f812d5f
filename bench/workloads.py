"""Seeded instance sets for the three benchmark workloads.

``plan`` is the benchmark's own work: it draws every instance from the seed
and fixes its answer from outside the solvers (a planted coloring, or an
exhaustive solve of the source problem in ``truth``).  ``build`` then turns a
plan into instances through the library, and is what set-up time measures.

Each workload has a fixed schedule of sizes, so that seeds change the
instances but not the mix of work in a pass.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass

import truth
from lbcolor import (
    ColoringInstance,
    OneInThreeSatSource,
    PartitionSource,
    ThreeDimMatchingSource,
    ThreePartitionSource,
    generate,
)

WORKLOADS = ("treelike", "cograph", "portfolio")

DECIDE = (("decide", "auto"),)
BOTH = (("decide", "auto"), ("maximize", "auto"))


@dataclass
class Spec:
    """One instance file: how to build it, its known answer, and its solves."""

    name: str
    family: str
    feasible: bool
    runs: tuple[tuple[str, str], ...]  # (objective, solver) pairs
    fields: dict | None = None  # planted: ColoringInstance keyword arguments
    source: tuple | None = None  # generator: (source type, source fields, variant)
    planted_profit: int | None = None


# ---------------------------------------------------------------------------
# planted instances


def _adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _elimination(n, edges):
    """Min-degree elimination order with fill-in, and the width it gives."""
    adj = _adjacency(n, edges)
    alive = set(range(n))
    order, width = [], 0
    while alive:
        v = min(alive, key=lambda u: (len(adj[u]), u))
        nbrs = adj[v]
        width = max(width, len(nbrs))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
        alive.remove(v)
        order.append(v)
    return order, width


def _special_class(n, edges):
    """True for the graph classes that dispatch sends to a special-case
    solver ahead of the DPs: edgeless, complete, complete bipartite, split."""
    m = len(edges)
    if m == 0 or m == n * (n - 1) // 2:
        return True
    adj = _adjacency(n, edges)
    side = [-1] * n
    side[0], stack, bipartite = 0, [0], True
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if side[w] < 0:
                side[w] = 1 - side[u]
                stack.append(w)
            elif side[w] == side[u]:
                bipartite = False
    if bipartite and -1 not in side and m == side.count(0) * side.count(1):
        return True
    # Hammer-Simeone: split iff the degree sequence meets this equality
    deg = sorted((len(a) for a in adj), reverse=True)
    top = max(i + 1 for i in range(n) if deg[i] >= i)
    return sum(deg[:top]) == top * (top - 1) + sum(deg[top:])


def _greedy_coloring(rng, order, conflicts, k):
    """Color elements in ``order``, each with a random color unused by its
    already-colored conflicts; None when some element has no color left."""
    color_of = [0] * len(order)
    for v in order:
        free = [c for c in range(1, k + 1) if all(color_of[u] != c for u in conflicts[v])]
        if not free:
            return None
        color_of[v] = rng.choice(free)
    return color_of


def _planted_fields(rng, mode, n, edges, color_of, k, p, w_max, profit):
    """Instance fields around a planted coloring: random parts, weights and
    partial lists that always contain the planted color, bounds it meets."""
    m = len(color_of)
    allowed = []
    for c in color_of:
        others = [x for x in range(1, k + 1) if x != c]
        extra = rng.sample(others, rng.choice((0, 1, 1, 2)))
        allowed.append(sorted([c, *extra]))
    weight = [rng.randint(1, w_max) for _ in range(m)]
    part_of = [rng.randint(1, p) for _ in range(m)]
    bounds = [[0] * k for _ in range(p)]
    for h, w, c in zip(part_of, weight, color_of):
        bounds[h - 1][c - 1] += w
    fields = {
        "mode": mode,
        "n": n,
        "edges": [list(e) for e in edges],
        "k": k,
        "p": p,
        "part_of": part_of,
        "weight": weight,
        "bounds": bounds,
        "allowed": allowed,
        "profit": [[rng.randint(0, 9) for _ in range(k)] for _ in range(m)] if profit else None,
    }
    if not truth.coloring_is_valid(fields, color_of):
        raise RuntimeError("planted coloring does not fit its own instance")
    return fields, color_of


def _parity_twin(rng, fields):
    """Infeasible twin: all weights even, then one bound moved by 1 inside a
    part, which leaves two odd bounds that no sum of even weights can meet."""
    twin = dict(fields)
    twin["weight"] = [2 * w for w in fields["weight"]]
    bounds = [[2 * b for b in row] for row in fields["bounds"]]
    h = rng.choice([i for i, row in enumerate(bounds) if any(row)])
    c_from = rng.choice([c for c, b in enumerate(bounds[h]) if b])
    c_to = rng.choice([c for c in range(len(bounds[h])) if c != c_from])
    bounds[h][c_from] -= 1
    bounds[h][c_to] += 1
    twin["bounds"] = bounds
    return twin


def _treelike_graph(rng, n, extra, max_degree=None):
    """Random recursive tree plus ``extra`` edges between vertices two or
    three tree steps apart, which keeps the width small."""
    edges = set()
    degree = [0] * n
    for v in range(1, n):
        candidates = [u for u in range(v) if max_degree is None or degree[u] < max_degree]
        u = rng.choice(candidates)
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    adj = _adjacency(n, edges)
    added = 0
    for _ in range(100 * extra):
        if added == extra:
            break
        u = w = rng.randrange(n)
        for _ in range(rng.choice((2, 3))):
            w = rng.choice(sorted(adj[w]))
        e = (min(u, w), max(u, w))
        if u == w or e in edges:
            continue
        if max_degree is not None and max(degree[u], degree[w]) >= max_degree:
            continue
        edges.add(e)
        adj[u].add(w)
        adj[w].add(u)
        degree[u] += 1
        degree[w] += 1
        added += 1
    return sorted(edges)


def _planted_treelike(rng, n, k, p):
    """Vertex instance on a tree plus about n/8 edges, width 2-3 by the
    min-degree order, with a planted proper coloring."""
    while True:
        edges = _treelike_graph(rng, n, max(1, n // 8))
        order, width = _elimination(n, edges)
        if not 2 <= width <= 3 or _special_class(n, edges):
            continue
        adj = _adjacency(n, edges)
        for _ in range(20):
            # reverse elimination order: each vertex sees at most `width`
            # colored neighbors, so width + 1 colors always suffice
            color_of = _greedy_coloring(rng, order[::-1], adj, k)
            if color_of is not None:
                return _planted_fields(rng, "vertex", n, edges, color_of, k, p, 2, True)


def _cograph_shallow(rng, vertices, colors, edges, color_of):
    """Random cotree.  A join splits the color set between its sides, so the
    planted coloring stays proper across every join edge."""
    if len(vertices) == 1:
        color_of[vertices[0]] = rng.choice(colors)
        return
    cut = rng.randint(1, len(vertices) - 1)
    left, right = vertices[:cut], vertices[cut:]
    if len(colors) >= 2 and rng.random() < 0.5:
        colors = rng.sample(colors, len(colors))
        ccut = rng.randint(1, len(colors) - 1)
        lcols, rcols = colors[:ccut], colors[ccut:]
        edges.extend((u, v) for u in left for v in right)
    else:
        lcols = rcols = colors
    _cograph_shallow(rng, left, lcols, edges, color_of)
    _cograph_shallow(rng, right, rcols, edges, color_of)


def _cograph_caterpillar(rng, vertices, colors, edges, color_of):
    """Cotree whose spine peels off a leg of 1-3 vertices per level.  Up to
    len(colors) - 1 legs are joined to everything below them on the spine;
    the rest hang off union nodes."""
    spine = list(vertices)
    join_at = set(rng.sample(range(len(spine) // 4), len(colors) - 1))
    step = 0
    while len(spine) > 3:
        size = rng.randint(1, 3)
        leg, spine = spine[:size], spine[size:]
        if step in join_at and len(colors) >= 2:
            colors = rng.sample(colors, len(colors))
            ccut = rng.randint(1, len(colors) - 1)
            leg_cols, colors = colors[:ccut], colors[ccut:]
            edges.extend((u, v) for u in leg for v in spine)
        else:
            leg_cols = colors
        _cograph_shallow(rng, leg, leg_cols, edges, color_of)
        step += 1
    _cograph_shallow(rng, spine, colors, edges, color_of)


def _planted_cograph(rng, n, k, p, shape):
    build = _cograph_shallow if shape == "shallow" else _cograph_caterpillar
    while True:
        vertices = rng.sample(range(n), n)
        edges, color_of = [], [0] * n
        build(rng, vertices, list(range(1, k + 1)), edges, color_of)
        edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        if not _special_class(n, edges):
            break
    return _planted_fields(rng, "vertex", n, edges, color_of, k, p, 2, True)


def _planted_edge_treelike(rng, m_target, k, p):
    """Edge-mode instance on a tree of maximum degree 3 plus two extra
    edges, with about ``m_target`` edges and a planted proper edge coloring."""
    while True:
        edges = _treelike_graph(rng, m_target - 1, 2, max_degree=3)
        conflicts = _adjacency(len(edges), [
            (a, b) for a in range(len(edges)) for b in range(a + 1, len(edges))
            if set(edges[a]) & set(edges[b])
        ])
        for _ in range(20):
            color_of = _greedy_coloring(rng, rng.sample(range(len(edges)), len(edges)), conflicts, k)
            if color_of is not None:
                return _planted_fields(rng, "edge", m_target - 1, edges, color_of, k, p, 2, False)


def _planted_edge_split(rng, q, r, k, p):
    """Edge-mode instance on a split graph: a clique of ``q`` vertices and
    ``r`` independent vertices, each attached to one or two clique vertices
    that still have degree below ``k``."""
    while True:
        edges = [(a, b) for a in range(q) for b in range(a + 1, q)]
        degree = [q - 1] * q
        for v in range(q, q + r):
            spare = [u for u in range(q) if degree[u] < k]
            for u in rng.sample(spare, min(len(spare), rng.randint(1, 2))):
                edges.append((u, v))
                degree[u] += 1
        conflicts = _adjacency(len(edges), [
            (a, b) for a in range(len(edges)) for b in range(a + 1, len(edges))
            if set(edges[a]) & set(edges[b])
        ])
        for _ in range(20):
            color_of = _greedy_coloring(rng, rng.sample(range(len(edges)), len(edges)), conflicts, k)
            if color_of is not None:
                n = 1 + max(v for e in edges for v in e)
                return _planted_fields(rng, "edge", n, edges, color_of, k, p, 2, False)


def _planted_spec(rng, family, index, planted, runs, twin):
    """The planted instance, or its parity-infeasible twin."""
    fields, color_of = planted
    if twin:
        return Spec(f"{family}-{index:03d}-twin", family, False, runs, fields=_parity_twin(rng, fields))
    profit = None
    if fields["profit"] is not None:
        profit = truth.coloring_profit(fields["profit"], color_of)
    return Spec(f"{family}-{index:03d}", family, True, runs, fields=fields, planted_profit=profit)


# ---------------------------------------------------------------------------
# generator sources with exhaustively checked answers


def _attempts():
    """Rejection-sampling budget; running out means the requested answer is
    (nearly) impossible at that size, which is a bug in the schedule."""
    for _ in range(100_000):
        yield
    raise RuntimeError("no source with the requested answer at this size")


def _partition_source(rng, count, want):
    for _ in _attempts():
        values = [rng.randint(1, 12) for _ in range(count)]
        if sum(values) % 2 == 0 and truth.partition_exists(values) == want:
            return {"values": values, "target": sum(values) // 2}


def _three_partition_source(rng, groups, want):
    target = rng.randint(24, 36)
    lo, hi = target // 4 + 1, (target - 1) // 2  # target/4 < a < target/2
    for _ in _attempts():
        if want:
            values = []
            while len(values) < 3 * groups:
                a, b = rng.randint(lo, hi), rng.randint(lo, hi)
                if lo <= target - a - b <= hi:
                    values += [a, b, target - a - b]
            rng.shuffle(values)
        else:
            values = [rng.randint(lo, hi) for _ in range(3 * groups - 1)]
            last = groups * target - sum(values)
            if not lo <= last <= hi:
                continue
            values.append(last)
        if truth.three_partition_exists(values, target) == want:
            return {"values": values, "target": target}


def _one_in_three_source(rng, nu, mu, want):
    for _ in _attempts():
        if want:
            truth_value = [rng.random() < 0.4 for _ in range(nu)]
            trues = [i + 1 for i in range(nu) if truth_value[i]]
            falses = [i + 1 for i in range(nu) if not truth_value[i]]
            if not trues or len(falses) < 2:
                continue
            clauses = [
                [rng.choice(trues), *rng.sample(falses, 2)] for _ in range(mu)
            ]
            clauses = [rng.sample(c, 3) for c in clauses]
        else:
            clauses = [rng.sample(range(1, nu + 1), 3) for _ in range(mu)]
        if (truth.one_in_three_assignment(nu, clauses) is not None) == want:
            return {"num_variables": nu, "clauses": clauses}


def _matching_source(rng, size, count, want):
    for _ in _attempts():
        if want:
            ys, zs = rng.sample(range(1, size + 1), size), rng.sample(range(1, size + 1), size)
            triples = [[x + 1, ys[x], zs[x]] for x in range(size)]
        else:
            triples = []
        while len(triples) < count:
            triples.append([rng.randint(1, size) for _ in range(3)])
        rng.shuffle(triples)
        if truth.matching_exists(size, [tuple(t) for t in triples]) == want:
            return {"size": size, "triples": triples}


# ---------------------------------------------------------------------------
# workload plans


def _plan_treelike(rng):
    # p = 2 doubles the weight-vector dimension, and with it the tail of the
    # join cost, so two parts go on smaller graphs, below the p90 cost
    slots = [(n, 1) for n in range(40, 49)] + [(n, 2) for n in range(24, 27)]
    specs = []
    for i, (n, p) in enumerate(slots * 24):
        planted = _planted_treelike(rng, n, 3, p)
        specs.append(_planted_spec(rng, "treelike", i, planted, BOTH, twin=i % 4 == 3))
    return specs


def _plan_cograph(rng):
    # with two parts, shallow cotrees past n = 26 have a heavy cost tail
    # (single DPs of 0.1-0.5 s), which would set the 90th percentile alone
    slots = [(n, 3, 2) for n in range(22, 27)] + [(n, 4, 1) for n in range(24, 36, 2)]
    specs = []
    for i, ((n, k, p), shape) in enumerate(
        (slot, shape) for _ in range(30) for shape in ("shallow", "caterpillar") for slot in slots
    ):
        planted = _planted_cograph(rng, n, k, p, shape)
        specs.append(_planted_spec(rng, f"cograph-{shape}", i, planted, BOTH, twin=i % 4 == 3))
    return specs


def _plan_portfolio(rng):
    specs = []

    def source(kind, variant, fields, want, runs=DECIDE):
        name = f"{kind}-{variant}-{len(specs):03d}-{'yes' if want else 'no'}"
        specs.append(Spec(name, f"{kind}/{variant}", want, runs, source=(kind, fields, variant)))

    for i in range(48):
        want = i % 2 == 0
        source("partition", "vertex", _partition_source(rng, 5 + i % 5, want), want)
        source("partition", "edge", _partition_source(rng, 5 + (i + 2) % 5, want), want)
        source("three_partition", "isolated", _three_partition_source(rng, 2 + i % 2, want), want)
        nu = 4 + i % 3
        source("one_in_three_sat", "star_forest", _one_in_three_source(rng, nu, nu, want), want)
        source("one_in_three_sat", "complete_bipartite", _one_in_three_source(rng, 4, 4 + i % 2, want), want)
        source("one_in_three_sat", "cycles_edges", _one_in_three_source(rng, nu, nu, want), want)
        source(
            "three_dim_matching", "split", _matching_source(rng, 3, 4 + i % 2, want), want,
            runs=(("decide", "auto"), ("decide", "split-singular")),
        )
        planted = _planted_edge_treelike(rng, 14 + i % 5, 3, 1 + i % 2)
        specs.append(_planted_spec(rng, "edge-treelike", len(specs), planted, DECIDE, twin=i % 4 == 3))
        planted = _planted_edge_split(rng, 3 + i % 2, 4 + i % 4, 4, 1 + i % 2)
        specs.append(_planted_spec(rng, "edge-split", len(specs), planted, DECIDE, twin=i % 4 == 1))
    return specs


def plan(workload: str, seed: int) -> list[Spec]:
    """Instances and known answers for one workload, all drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    return {
        "treelike": _plan_treelike,
        "cograph": _plan_cograph,
        "portfolio": _plan_portfolio,
    }[workload](rng)


SOURCES = {
    "partition": PartitionSource,
    "three_partition": ThreePartitionSource,
    "one_in_three_sat": OneInThreeSatSource,
    "three_dim_matching": ThreeDimMatchingSource,
}


def build(spec: Spec, span=lambda name: contextlib.nullcontext()) -> ColoringInstance:
    """The library instance for ``spec``: a generator output, or the planted
    fields through the validating ColoringInstance constructor."""
    if spec.source is not None:
        kind, fields, variant = spec.source
        with span("generators.generate"):
            return generate(SOURCES[kind](**fields), variant).instance
    f = spec.fields
    return ColoringInstance(
        mode=f["mode"],
        n=f["n"],
        edges=tuple(tuple(e) for e in f["edges"]),
        k=f["k"],
        p=f["p"],
        part_of=tuple(f["part_of"]),
        weight=tuple(f["weight"]),
        bounds=tuple(tuple(row) for row in f["bounds"]),
        allowed=tuple(frozenset(a) for a in f["allowed"]),
        profit=tuple(tuple(row) for row in f["profit"]) if f["profit"] is not None else None,
    )
