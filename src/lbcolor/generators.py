"""Instance generators that encode classic hard problems as coloring instances.

Each generator maps a source combinatorial problem to a coloring instance
that is feasible exactly when the source is a yes-instance.  The layouts are
documented per generator: vertex ids are assigned in the order the docstring
lists them, colors and parts count from 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InstanceFormatError, UsageError
from .instance import ColoringInstance, _is_int, _require_list, _shown


def _int_field(where: str, value) -> None:
    if not _is_int(value):
        raise InstanceFormatError(f"{where}: expected an integer, got {_shown(value)}")


@dataclass(frozen=True)
class PartitionSource:
    """Split ``values`` into two halves of sum ``target`` each."""

    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_require_list("partition: values", self.values)))
        _int_field("partition: target", self.target)
        if not self.values or any(not _is_int(a) or a < 1 for a in self.values):
            raise InstanceFormatError("partition: values must be positive integers")
        if sum(self.values) != 2 * self.target:
            raise InstanceFormatError(
                f"partition: values sum to {sum(self.values)}, expected 2*target = {2 * self.target}"
            )


@dataclass(frozen=True)
class ThreePartitionSource:
    """Split 3n ``values`` into n triples of sum ``target`` each."""

    values: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_require_list("three_partition: values", self.values)))
        _int_field("three_partition: target", self.target)
        for i, a in enumerate(self.values):
            _int_field(f"three_partition: values[{i}]", a)
        if len(self.values) % 3 != 0 or not self.values:
            raise InstanceFormatError("three_partition: needs 3n values")
        n = len(self.values) // 3
        if sum(self.values) != n * self.target:
            raise InstanceFormatError(
                f"three_partition: values sum to {sum(self.values)}, expected n*target = {n * self.target}"
            )
        for i, a in enumerate(self.values):
            if not (4 * a > self.target and 2 * a < self.target):
                raise InstanceFormatError(
                    f"three_partition: values[{i}]={a} violates target/4 < value < target/2"
                )

    @property
    def groups(self) -> int:
        return len(self.values) // 3


@dataclass(frozen=True)
class OneInThreeSatSource:
    """Monotone clauses of three distinct variables; satisfy with exactly one
    true variable per clause."""

    num_variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _int_field("one_in_three_sat: num_variables", self.num_variables)
        clauses = _require_list("one_in_three_sat: clauses", self.clauses)
        object.__setattr__(self, "clauses", tuple(
            tuple(_require_list(f"one_in_three_sat: clauses[{i}]", c)) for i, c in enumerate(clauses)
        ))
        if self.num_variables < 1:
            raise InstanceFormatError("one_in_three_sat: needs at least one variable")
        for i, clause in enumerate(self.clauses):
            for x in clause:
                if not _is_int(x) or not 1 <= x <= self.num_variables:
                    raise InstanceFormatError(f"one_in_three_sat: clauses[{i}] variable {_shown(x)} out of range")
            if len(clause) != 3 or len(set(clause)) != 3:
                raise InstanceFormatError(f"one_in_three_sat: clauses[{i}] needs 3 distinct variables")

    def occurrences(self) -> list[int]:
        occ = [0] * self.num_variables
        for clause in self.clauses:
            for x in clause:
                occ[x - 1] += 1
        return occ


@dataclass(frozen=True)
class ThreeDimMatchingSource:
    """Cover three equal-size element sets by disjoint triples from ``triples``."""

    size: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        _int_field("three_dim_matching: size", self.size)
        triples = _require_list("three_dim_matching: triples", self.triples)
        object.__setattr__(self, "triples", tuple(
            tuple(_require_list(f"three_dim_matching: triples[{i}]", t)) for i, t in enumerate(triples)
        ))
        if self.size < 1:
            raise InstanceFormatError("three_dim_matching: size must be positive")
        for i, t in enumerate(self.triples):
            if len(t) != 3 or any(not _is_int(x) or not 1 <= x <= self.size for x in t):
                raise InstanceFormatError(f"three_dim_matching: triples[{i}] out of range 1..{self.size}")


SourceProblem = PartitionSource | ThreePartitionSource | OneInThreeSatSource | ThreeDimMatchingSource


def source_from_doc(doc: dict) -> SourceProblem:
    if not isinstance(doc, dict) or "type" not in doc:
        raise InstanceFormatError("source: expected an object with a 'type' field")
    kind = doc["type"]
    try:
        if kind == "partition":
            return PartitionSource(values=doc["values"], target=doc["target"])
        if kind == "three_partition":
            return ThreePartitionSource(values=doc["values"], target=doc["target"])
        if kind == "one_in_three_sat":
            return OneInThreeSatSource(num_variables=doc["num_variables"], clauses=doc["clauses"])
        if kind == "three_dim_matching":
            return ThreeDimMatchingSource(size=doc["size"], triples=doc["triples"])
    except KeyError as exc:
        raise InstanceFormatError(f"source: missing field {exc.args[0]!r}") from exc
    raise InstanceFormatError(f"source: unknown type {_shown(kind)}")


def source_to_doc(src: SourceProblem) -> dict:
    if isinstance(src, PartitionSource):
        return {"type": "partition", "values": list(src.values), "target": src.target}
    if isinstance(src, ThreePartitionSource):
        return {"type": "three_partition", "values": list(src.values), "target": src.target}
    if isinstance(src, OneInThreeSatSource):
        return {
            "type": "one_in_three_sat",
            "num_variables": src.num_variables,
            "clauses": [list(c) for c in src.clauses],
        }
    return {"type": "three_dim_matching", "size": src.size, "triples": [list(t) for t in src.triples]}


@dataclass(frozen=True)
class GeneratedInstance:
    instance: ColoringInstance
    metadata: dict


def _full(k: int) -> frozenset[int]:
    return frozenset(range(1, k + 1))


def gen_from_partition(src: PartitionSource, variant: str = "vertex") -> GeneratedInstance:
    """One element of weight a_i per value, two colors, both bounded by the
    half-sum; a valid coloring is exactly an even split of the values.

    ``vertex``: n isolated vertices.  ``edge``: n disjoint edges (vertices
    2i, 2i+1 carry edge i).
    """
    n = len(src.values)
    if variant == "vertex":
        inst = ColoringInstance(
            mode="vertex",
            n=n,
            edges=(),
            k=2,
            p=1,
            part_of=(1,) * n,
            weight=src.values,
            bounds=((src.target, src.target),),
            allowed=(_full(2),) * n,
        )
    elif variant == "edge":
        inst = ColoringInstance(
            mode="edge",
            n=2 * n,
            edges=tuple((2 * i, 2 * i + 1) for i in range(n)),
            k=2,
            p=1,
            part_of=(1,) * n,
            weight=src.values,
            bounds=((src.target, src.target),),
            allowed=(_full(2),) * n,
        )
    else:
        raise UsageError(f"gen_from_partition: unknown variant {variant!r}")
    return GeneratedInstance(inst, {"source": source_to_doc(src), "variant": variant})


def gen_from_three_partition(src: ThreePartitionSource, variant: str = "isolated") -> GeneratedInstance:
    """``isolated``: 3n isolated weighted vertices, one color per target
    triple, every color bounded by the triple sum.

    ``star_forest`` (needs n >= 2): unit weights, one star per (value, group)
    pair plus 3n floating selector vertices.  Vertex order: for value i
    (1..3n) and group j (1..n), the hub of star (i, j) then its 3n*a_i
    leaves; the 3n selectors come last.  Colors: 1..n are group colors,
    n+1..4n are value colors (n+i for value i), and 4n+1..3n^2+4n are
    one-shot tags, n per value (value i owns n*i+3n+1 .. n*i+4n).  Hub (i, j)
    may take its value color or any of value i's tags; leaves of star (i, j)
    may take group color j or value color n+i; selector i takes one of value
    i's tags.  Bounds force each value color to absorb the leaves of all but
    one of its stars, so group color j collects exactly the leaves of three
    full stars, which is an exact cover by triples.
    """
    n = src.groups
    values = src.values
    if variant == "isolated":
        inst = ColoringInstance(
            mode="vertex",
            n=3 * n,
            edges=(),
            k=n,
            p=1,
            part_of=(1,) * (3 * n),
            weight=values,
            bounds=((src.target,) * n,),
            allowed=(_full(n),) * (3 * n),
        )
    elif variant == "star_forest":
        if n < 2:
            raise UsageError("gen_from_three_partition: star_forest needs at least two groups")
        k = 3 * n * n + 4 * n
        vertices = 0
        edges = []
        allowed = []

        def tags(i):
            return [n * i + 3 * n + h for h in range(1, n + 1)]

        for i in range(1, 3 * n + 1):
            for j in range(1, n + 1):
                hub = vertices
                allowed.append(frozenset([n + i] + tags(i)))
                vertices += 1
                for _ in range(3 * n * values[i - 1]):
                    allowed.append(frozenset({j, n + i}))
                    edges.append((hub, vertices))
                    vertices += 1
        for i in range(1, 3 * n + 1):
            allowed.append(frozenset(tags(i)))
            vertices += 1

        bounds = [0] * k
        for j in range(1, n + 1):
            bounds[j - 1] = 3 * n * src.target
        for i in range(1, 3 * n + 1):
            bounds[n + i - 1] = 3 * n * values[i - 1] * (n - 1) + 1
            for t in tags(i):
                bounds[t - 1] = 1
        inst = ColoringInstance(
            mode="vertex",
            n=vertices,
            edges=tuple(edges),
            k=k,
            p=1,
            part_of=(1,) * vertices,
            weight=(1,) * vertices,
            bounds=(tuple(bounds),),
            allowed=tuple(allowed),
        )
    else:
        raise UsageError(f"gen_from_three_partition: unknown variant {variant!r}")
    return GeneratedInstance(inst, {"source": source_to_doc(src), "variant": variant})


def _occurrence_slots(src: OneInThreeSatSource):
    """Per clause, the (variable, occurrence index) of each literal, counting
    occurrences 1.. in clause order."""
    counter = [0] * src.num_variables
    slots = []
    for clause in src.clauses:
        entry = []
        for x in clause:
            counter[x - 1] += 1
            entry.append((x, counter[x - 1]))
        slots.append(entry)
    return slots


def gen_from_one_in_three_sat(src: OneInThreeSatSource, variant: str = "star_forest") -> GeneratedInstance:
    """Encodings of exactly-one-true clause satisfaction.

    ``star_forest``: one star per variable with hub v_i and leaves
    u_i^0..u_i^occ(i) (vertex order: hub then leaves, variable by variable).
    Two colors; hub color 2 means "true".  Part i (i <= nu) is {v_i, u_i^0}
    with bounds (1, 1); part nu+l holds the three leaves matching clause l's
    literals with bounds (1, 2), so exactly one literal per clause is true.

    ``complete_bipartite``: left side is mu clause vertices then occ(i)
    copies v_i^j per variable; right side occ(i) copies w_i^j.  2*nu+1
    colors: variable colors 1..nu, complement colors nu+1..2nu, overflow
    color 2nu+1.  All the w_i^j take color i exactly when variable i is true.

    ``cycles_edges``: edge mode; per occurrence j of variable i, one
    four-edge cycle (edges a, b, c, d in cyclic order) and one isolated edge
    e (edge order: a, b, c, d, e per occurrence, occurrences grouped by
    variable).  Two colors; pairs {b_i^j, c_i^(j+1 mod occ)} and {d_i^j,
    e_i^j} each bounded (1, 1) chain all a-edges of one variable to a common
    color, and clause parts over three a-edges bounded (1, 2) pick one true
    literal.
    """
    nu = src.num_variables
    mu = len(src.clauses)
    occ = src.occurrences()
    slots = _occurrence_slots(src)

    if variant == "star_forest":
        hub = {}
        leaf = {}
        vertices = 0
        edges = []
        for i in range(1, nu + 1):
            hub[i] = vertices
            vertices += 1
            for j in range(0, occ[i - 1] + 1):
                leaf[(i, j)] = vertices
                edges.append((hub[i], vertices))
                vertices += 1
        p = nu + mu
        part_of = [0] * vertices
        for i in range(1, nu + 1):
            part_of[hub[i]] = i
            part_of[leaf[(i, 0)]] = i
        for l, entry in enumerate(slots, start=1):
            for x, a in entry:
                part_of[leaf[(x, a)]] = nu + l
        bounds = [(1, 1)] * nu + [(1, 2)] * mu
        inst = ColoringInstance(
            mode="vertex",
            n=vertices,
            edges=tuple(edges),
            k=2,
            p=p,
            part_of=tuple(part_of),
            weight=(1,) * vertices,
            bounds=tuple(bounds),
            allowed=(_full(2),) * vertices,
        )

    elif variant == "complete_bipartite":
        k = 2 * nu + 1
        left = []
        allowed = []
        for l, entry in enumerate(slots, start=1):
            left.append(("clause", l))
            allowed.append(frozenset(nu + x for x, _ in entry))
        for i in range(1, nu + 1):
            for j in range(1, occ[i - 1] + 1):
                left.append(("v", i, j))
                allowed.append(frozenset({i, 2 * nu + 1}))
        right = []
        for i in range(1, nu + 1):
            for j in range(1, occ[i - 1] + 1):
                right.append(("w", i, j))
                allowed.append(frozenset({i, nu + i}))
        n = len(left) + len(right)
        edges = tuple((a, len(left) + b) for a in range(len(left)) for b in range(len(right)))
        bounds = [0] * k
        for i in range(1, nu + 1):
            bounds[i - 1] = occ[i - 1]
            bounds[nu + i - 1] = occ[i - 1]
        bounds[2 * nu] = mu
        inst = ColoringInstance(
            mode="vertex",
            n=n,
            edges=edges,
            k=k,
            p=1,
            part_of=(1,) * n,
            weight=(1,) * n,
            bounds=(tuple(bounds),),
            allowed=tuple(allowed),
        )

    elif variant == "cycles_edges":
        a_edge = {}
        b_edge = {}
        c_edge = {}
        d_edge = {}
        e_edge = {}
        edges = []
        vertices = 0
        for i in range(1, nu + 1):
            for j in range(1, occ[i - 1] + 1):
                q = vertices
                vertices += 4
                for tag, pair in (
                    (a_edge, (q, q + 1)),
                    (b_edge, (q + 1, q + 2)),
                    (c_edge, (q + 2, q + 3)),
                    (d_edge, (q + 3, q)),
                ):
                    tag[(i, j)] = len(edges)
                    edges.append(pair)
                e_edge[(i, j)] = len(edges)
                edges.append((vertices, vertices + 1))
                vertices += 2
        m = len(edges)
        prefix = [0]
        for i in range(1, nu + 1):
            prefix.append(prefix[-1] + occ[i - 1])
        p = 2 * prefix[-1] + mu
        part_of = [0] * m
        for i in range(1, nu + 1):
            for j in range(1, occ[i - 1] + 1):
                h = 2 * prefix[i - 1] + j
                succ = j + 1 if j < occ[i - 1] else 1
                part_of[b_edge[(i, j)]] = h
                part_of[c_edge[(i, succ)]] = h
        for i in range(1, nu + 1):
            for j in range(1, occ[i - 1] + 1):
                h = 2 * prefix[i - 1] + occ[i - 1] + j
                part_of[d_edge[(i, j)]] = h
                part_of[e_edge[(i, j)]] = h
        bounds = [(1, 1)] * (2 * prefix[-1])
        for l, entry in enumerate(slots, start=1):
            h = 2 * prefix[-1] + l
            for x, a in entry:
                part_of[a_edge[(x, a)]] = h
            bounds.append((1, 2))
        inst = ColoringInstance(
            mode="edge",
            n=vertices,
            edges=tuple(edges),
            k=2,
            p=p,
            part_of=tuple(part_of),
            weight=(1,) * m,
            bounds=tuple(bounds),
            allowed=(_full(2),) * m,
        )
    else:
        raise UsageError(f"gen_from_one_in_three_sat: unknown variant {variant!r}")
    return GeneratedInstance(inst, {"source": source_to_doc(src), "variant": variant})


def gen_from_three_dim_matching(src: ThreeDimMatchingSource, variant: str = "split") -> GeneratedInstance:
    """Split-graph encoding of three-dimensional matching.

    Vertices: one per triple (first), then the x, y, z elements.  A triple
    vertex is adjacent to everything except its own three elements, so the
    triple vertices form the clique and the elements the independent set.
    One color per triple; colors 1..size are bounded 4 (a chosen triple plus
    its elements), the rest are bounded 1.  Needs at least ``size`` triples.
    """
    if variant != "split":
        raise UsageError(f"gen_from_three_dim_matching: unknown variant {variant!r}")
    s = src.size
    t = len(src.triples)
    if t < s:
        raise UsageError("gen_from_three_dim_matching: needs at least `size` triples")
    n = t + 3 * s
    x0, y0, z0 = t, t + s, t + 2 * s

    def element_ids(triple):
        i, j, l = triple
        return (x0 + i - 1, y0 + j - 1, z0 + l - 1)

    edges = []
    for h in range(t):
        keep = set(element_ids(src.triples[h]))
        for other in range(h + 1, t):
            edges.append((h, other))
        for v in range(t, n):
            if v not in keep:
                edges.append((h, v))
    bounds = tuple(4 if c <= s else 1 for c in range(1, t + 1))
    inst = ColoringInstance(
        mode="vertex",
        n=n,
        edges=tuple(edges),
        k=t,
        p=1,
        part_of=(1,) * n,
        weight=(1,) * n,
        bounds=(bounds,),
        allowed=(_full(t),) * n,
    )
    return GeneratedInstance(inst, {"source": source_to_doc(src), "variant": variant})


GENERATORS = {
    "partition": (gen_from_partition, ("vertex", "edge")),
    "three_partition": (gen_from_three_partition, ("isolated", "star_forest")),
    "one_in_three_sat": (
        gen_from_one_in_three_sat,
        ("star_forest", "complete_bipartite", "cycles_edges"),
    ),
    "three_dim_matching": (gen_from_three_dim_matching, ("split",)),
}


def generate(src: SourceProblem, variant: str | None = None) -> GeneratedInstance:
    """Dispatch on source type; ``variant`` may be omitted when unambiguous."""
    name = source_to_doc(src)["type"]
    fn, variants = GENERATORS[name]
    if variant is None:
        if len(variants) > 1:
            raise UsageError(f"generate: source {name!r} needs a variant from {variants}")
        variant = variants[0]
    if variant not in variants:
        raise UsageError(f"generate: source {name!r} has no variant {variant!r} (choose from {variants})")
    return fn(src, variant)
