"""Instance model and coloring validation for locally bounded list coloring.

An instance couples a graph with positive integer element weights, a
partition of the elements into parts, a per-element list of allowed colors,
and an exact weight target for every (part, color) pair: a coloring is valid
when it is proper, list-respecting, and the total weight of color c inside
part h equals bounds[h][c] for all h and c.

Elements are vertices in ``vertex`` mode and edges (by their position in the
``edges`` sequence) in ``edge`` mode.  Elements are 0-indexed internally;
colors and parts are 1-indexed everywhere, matching the file format.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from operator import lt, ne

from .errors import InstanceFormatError, UsageError
from .packed import PackedBounds

MODES = ("vertex", "edge")
_LISTS = (list, tuple)
_LIST_TYPES = set(_LISTS)
_COLOR_LIST_TYPES = {list, tuple, set, frozenset}


_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxstring, _SHORT.maxlong, _SHORT.maxother = 2, 40, 40, 40


def _shown(value) -> str:
    """``repr(value)`` cut short for an error message: ``reprlib`` elides
    nesting past two levels and long strings, ints and containers, so a huge
    or deeply nested value costs little to show, and what is left past 60
    characters is cut."""
    try:
        text = _SHORT.repr(value)
    except ValueError:  # an int past the digit limit of int-to-str conversion
        return f"<{type(value).__name__} too large to show>"
    return text if len(text) <= 60 else text[:57] + "..."


def _is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` loads as one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _all_ints(seq) -> bool:
    """Whether every entry of the sequence ``seq`` passes ``_is_int``, in one
    pass over the entries' types; only when some type is not exactly int (a
    bool, or an int subclass) does ``_is_int`` test each entry."""
    return set(map(type, seq)) <= {int} or all(map(_is_int, seq))


def _within(seq, low: int, high: int | None = None) -> bool:
    """Whether every entry of ``seq``, a sequence of ints, lies in
    low..high; None means no upper limit."""
    return not seq or (min(seq) >= low and (high is None or max(seq) <= high))


def _rows_of(seq, length: int) -> bool:
    """Whether every entry of ``seq`` is a list or tuple of ``length``
    entries; a subclass of either fails, and its field's scan accepts it."""
    return set(map(type, seq)) <= _LIST_TYPES and set(map(len, seq)) <= {length}


def adjacency_masks(n: int, edges) -> list[int]:
    """Per vertex, the bitmask of its neighbors."""
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _incidence_masks(n: int, edges) -> list[int]:
    """Per vertex, the bitmask of the ids of the edges at it."""
    masks = [0] * n
    for idx, (u, v) in enumerate(edges):
        masks[u] |= 1 << idx
        masks[v] |= 1 << idx
    return masks


def bits(mask: int):
    """The set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_conflict(inst: ColoringInstance, clash) -> tuple[int, int] | None:
    """The first pair (a, b) with b in ``clash[a]``, a symmetric subset of the
    conflict masks, or None: in vertex mode the first such edge of
    ``inst.edges``, in edge mode the least (shared vertex, a, b), a < b."""
    if not any(clash):
        return None
    if inst.mode == "vertex":
        return next((u, v) for u, v in inst.edges if clash[u] >> v & 1)
    for at in _incidence_masks(inst.n, inst.edges):
        for a in bits(at):
            if later := clash[a] & at & -(2 << a):  # the edges past a at this vertex
                return a, (later & -later).bit_length() - 1


def _require_list(name: str, value):
    if not isinstance(value, _LISTS):
        raise InstanceFormatError(f"{name}: expected a list, got {type(value).__name__}")
    return value


# The per-entry scans of ColoringInstance's fields: each makes its field's
# checks entry by entry, in order, and raises the first that fails.  They run
# only when a whole-field pass fails, and return only when nothing is wrong
# (a row of a list subclass fails ``_rows_of``).


def _scan_edges(n: int, edges) -> None:
    seen = set()
    for pos, pair in enumerate(edges):
        if not isinstance(pair, _LISTS) or len(pair) != 2:
            raise InstanceFormatError(f"edges[{pos}]: expected a pair of vertices")
        u, v = pair
        if not (_is_int(u) and _is_int(v)):
            raise InstanceFormatError(f"edges[{pos}]: endpoints must be integers")
        if u == v:
            raise InstanceFormatError(f"edges[{pos}]: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"edges[{pos}]: endpoint out of range 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InstanceFormatError(f"edges[{pos}]: duplicate edge {e}")
        seen.add(e)


def _scan_parts(p: int, part_of, weight) -> None:
    for e, (h, w) in enumerate(zip(part_of, weight)):
        if not _is_int(h) or not 1 <= h <= p:
            raise InstanceFormatError(f"part_of[{e}]: expected a part in 1..{p}, got {_shown(h)}")
        if not _is_int(w) or w < 1:
            raise InstanceFormatError(f"weight[{e}]: weights must be positive integers, got {_shown(w)}")


def _scan_colors(k: int, allowed) -> None:
    for e, colors in enumerate(allowed):
        # check the raw entries: frozenset({1, True}) would hide the bool
        if not isinstance(colors, (list, tuple, set, frozenset)):
            raise InstanceFormatError(f"allowed[{e}]: expected a list of colors")
        if not colors:
            raise InstanceFormatError(f"allowed[{e}]: color list is empty")
        for c in colors:
            if not _is_int(c) or not 1 <= c <= k:
                raise InstanceFormatError(f"allowed[{e}]: color {_shown(c)} outside 1..{k}")


def _scan_bounds(k: int, bounds) -> None:
    for h, row in enumerate(bounds, start=1):
        if not isinstance(row, _LISTS):
            raise InstanceFormatError(f"bounds[{h}]: expected a list")
        if len(row) != k:
            raise InstanceFormatError(f"bounds[{h}]: expected {k} entries, got {len(row)}")
        for c, b in enumerate(row, start=1):
            if not _is_int(b) or b < 0:
                raise InstanceFormatError(f"bounds[{h}][{c}]: expected a non-negative integer, got {_shown(b)}")


def _scan_profit(k: int, profit) -> None:
    for e, row in enumerate(profit):
        if not isinstance(row, _LISTS) or len(row) != k or not _all_ints(row):
            raise InstanceFormatError(f"profit[{e}]: expected {k} integers")


@dataclass(frozen=True)
class RawDecomposition:
    """A tree decomposition as supplied in an instance document (not yet nice).

    Construction checks only types and shapes; ``treewidth.check_raw_decomposition``
    checks it against the graph."""

    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int

    def __post_init__(self):
        # whole-field passes first; a failed one scans for the first bad entry
        bags = _require_list("decomposition.bags", self.bags)
        if not (set(map(type, bags)) <= _LIST_TYPES and _all_ints(list(chain.from_iterable(bags)))):
            for i, bag in enumerate(bags):
                if not isinstance(bag, _LISTS) or not _all_ints(bag):
                    raise InstanceFormatError(f"decomposition.bags[{i}]: expected a list of integers")
        tree_edges = _require_list("decomposition.tree_edges", self.tree_edges)
        if not (_rows_of(tree_edges, 2) and _all_ints(list(chain.from_iterable(tree_edges)))):
            for i, pair in enumerate(tree_edges):
                if not isinstance(pair, _LISTS) or len(pair) != 2 or not _all_ints(pair):
                    raise InstanceFormatError(f"decomposition.tree_edges[{i}]: expected a pair of integers")
        if not _is_int(self.root):
            raise InstanceFormatError(f"decomposition.root: expected an integer, got {_shown(self.root)}")
        object.__setattr__(self, "bags", tuple(map(tuple, bags)))
        object.__setattr__(self, "tree_edges", tuple(map(tuple, tree_edges)))


@dataclass(frozen=True)
class ColoringInstance:
    """A validated instance: construction, from a document or in code, checks
    every field's type and shape (JSON booleans are not integers) and every
    invariant, raising InstanceFormatError that names the field."""

    mode: str
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    p: int
    part_of: tuple[int, ...]
    weight: tuple[int, ...]
    bounds: tuple[tuple[int, ...], ...]
    allowed: tuple[frozenset[int], ...]
    profit: tuple[tuple[int, ...], ...] | None = None
    decomposition: RawDecomposition | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InstanceFormatError(f"mode: expected one of {MODES}, got {_shown(self.mode)}")
        if not _is_int(self.n) or self.n < 0:
            raise InstanceFormatError(f"n: expected a non-negative integer, got {_shown(self.n)}")
        if not _is_int(self.k) or self.k < 1:
            raise InstanceFormatError(f"k: expected a positive integer, got {_shown(self.k)}")
        if not _is_int(self.p) or self.p < 1:
            raise InstanceFormatError(f"p: expected a positive integer, got {_shown(self.p)}")
        n, k, p = self.n, self.k, self.p

        # Each field is checked in a few passes over the whole field; when a
        # pass fails, the field's per-entry scan raises the first error.
        edges = _require_list("edges", self.edges)
        if not _rows_of(edges, 2):
            _scan_edges(n, edges)
        flat = list(chain.from_iterable(edges))
        us, vs = flat[0::2], flat[1::2]
        if not (_all_ints(flat) and _within(flat, 0, n - 1)):
            _scan_edges(n, edges)
        if all(map(lt, us, vs)):  # sorted pairs, as documents store them: no self-loop either
            pairs = tuple(zip(us, vs))
        else:
            if not all(map(ne, us, vs)):
                _scan_edges(n, edges)
            pairs = tuple(zip(map(min, us, vs), map(max, us, vs)))
        if len(set(pairs)) < len(pairs):
            _scan_edges(n, edges)
        object.__setattr__(self, "edges", pairs)

        m = n if self.mode == "vertex" else len(pairs)
        for name in ("part_of", "weight", "allowed"):
            seq = _require_list(name, getattr(self, name))
            if len(seq) != m:
                raise InstanceFormatError(f"{name}: expected {m} entries, got {len(seq)}")
        part_of, weight = tuple(self.part_of), tuple(self.weight)
        if not (_all_ints(part_of) and _within(part_of, 1, p) and _all_ints(weight) and _within(weight, 1)):
            _scan_parts(p, part_of, weight)
        object.__setattr__(self, "part_of", part_of)
        object.__setattr__(self, "weight", weight)

        allowed = self.allowed
        if not (set(map(type, allowed)) <= _COLOR_LIST_TYPES and all(allowed)):
            _scan_colors(k, allowed)
        flat = list(chain.from_iterable(allowed))
        if not (_all_ints(flat) and _within(flat, 1, k)):
            _scan_colors(k, allowed)
        object.__setattr__(self, "allowed", tuple(map(frozenset, allowed)))

        bounds = _require_list("bounds", self.bounds)
        if len(bounds) != p:
            raise InstanceFormatError(f"bounds: expected {p} rows, got {len(bounds)}")
        if not _rows_of(bounds, k):
            _scan_bounds(k, bounds)
        flat = list(chain.from_iterable(bounds))
        if not (_all_ints(flat) and _within(flat, 0)):
            _scan_bounds(k, bounds)
        object.__setattr__(self, "bounds", tuple(map(tuple, bounds)))
        carried = [0] * p  # total weight per part; p is now at most the rows given
        for h, w in zip(part_of, weight):
            carried[h - 1] += w
        for h, (row, part_weight) in enumerate(zip(self.bounds, carried), start=1):
            if part_weight != sum(row):
                raise InstanceFormatError(
                    f"bounds[{h}]: row sums to {sum(row)} but part {h} carries total weight {part_weight}"
                )

        if self.profit is not None:
            profit = _require_list("profit", self.profit)
            if len(profit) != m:
                raise InstanceFormatError(f"profit: expected {m} rows, got {len(profit)}")
            if not (_rows_of(profit, k) and _all_ints(list(chain.from_iterable(profit)))):
                _scan_profit(k, profit)
            object.__setattr__(self, "profit", tuple(map(tuple, profit)))

    @property
    def num_elements(self) -> int:
        return self.n if self.mode == "vertex" else len(self.edges)

    @property
    def unit_weights(self) -> bool:
        return all(w == 1 for w in self.weight)

    def flat_index(self, h: int, c: int) -> int:
        """Position of (part h, color c), both 1-based, in a flattened p*k tuple."""
        return (h - 1) * self.k + (c - 1)

    @cached_property
    def bounds_flat(self) -> tuple[int, ...]:
        return tuple(b for row in self.bounds for b in row)

    @cached_property
    def packing(self) -> PackedBounds:
        """Packed weight vectors over ``bounds_flat``, wide enough for any one weight."""
        return PackedBounds(self.bounds_flat, max(self.weight, default=0))

    @cached_property
    def units(self) -> tuple[dict[int, int], ...]:
        """Per element, the packed weight vector each allowed color adds, colors
        in increasing order: its weight shifted to the field of its (part,
        color) slot, ``PackedBounds.unit(flat_index(h, c), w)``.  Elements
        with the same part, weight and list share one map, built once; no
        reader changes it."""
        width, k = self.packing.width, self.k
        shared = {}
        units = []
        for key in zip(self.part_of, self.weight, self.allowed):
            found = shared.get(key)
            if found is None:
                h, w, colors = key
                base = (h - 1) * k - 1  # base + c is flat_index(h, c)
                found = shared[key] = {c: w << (base + c) * width for c in sorted(colors)}
            units.append(found)
        return tuple(units)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per vertex, the bitmask of its neighbors; the class tests and the
        solvers all read it."""
        return tuple(adjacency_masks(self.n, self.edges))

    @cached_property
    def conflict_masks(self) -> tuple[int, ...]:
        """Per element, the bitmask of the elements it conflicts with: its
        neighbors in vertex mode, the edges sharing an end with it in edge
        mode; the one form of the conflicts, which every reader uses."""
        if self.mode == "vertex":
            return self.neighbor_masks
        incident = _incidence_masks(self.n, self.edges)
        return tuple([(incident[u] | incident[v]) & ~(1 << idx) for idx, (u, v) in enumerate(self.edges)])

    @cached_property
    def cotree_or_prime(self):
        """The graph's cotree, or off cographs a prime module (it holds an
        induced P4); recognition and the cotree solvers share this one build."""
        from . import cographs  # cographs imports this module

        return cographs._cotree_or_prime(self.n, self.neighbor_masks)

    @cached_property
    def split_partition(self):
        """The graph's split partition, or None when it is not split; the
        recognition and the split solvers share this one test."""
        from . import split  # split imports this module

        return split.split_partition_masks(self.neighbor_masks)

    @cached_property
    def complete_bipartite_sides(self):
        """Sides (A, B) when the graph is complete bipartite with edges, else
        None; the recognition and the complete-bipartite solver share it."""
        from . import cographs  # cographs imports this module

        return cographs.complete_bipartite_masks(self.neighbor_masks)

    def _derived(self, **changes) -> "ColoringInstance":
        """A copy of this instance with some fields replaced, built without
        ``__post_init__``: every field, changed ones included, must already be
        in the checked form that construction leaves (tuples, frozensets,
        edges as sorted pairs), and together they must satisfy every check."""
        twin = object.__new__(ColoringInstance)
        twin.__dict__.update({f.name: getattr(self, f.name) for f in fields(self)}, **changes)
        return twin

    def negated(self) -> "ColoringInstance":
        """The same instance with every profit negated.  It starts with the
        cached properties already computed here, so a minimize solve runs no
        class test twice."""
        twin = self._derived(profit=tuple(tuple(-x for x in row) for row in self.profit))
        # holds while no cached property reads the profits
        for name, value in self.__dict__.items():
            twin.__dict__.setdefault(name, value)
        return twin

    def profit_of(self, element: int, color: int) -> int:
        return self.profit[element][color - 1] if self.profit is not None else 0

    def color_profits(self, maximize: bool) -> tuple[dict[int, int], ...]:
        """Per element, a map from each color to its profit: the profit
        matrix's to maximize, 0 to decide.  The DPs keep the best profit per
        state, so over zero profits they decide."""
        colors = range(1, self.k + 1)
        if maximize:
            return tuple(dict(zip(colors, row)) for row in self.profit)
        return (dict.fromkeys(colors, 0),) * self.num_elements


@dataclass(frozen=True)
class Coloring:
    """A total assignment of one color (1..k) to every element."""

    color_of: tuple[int, ...]

    def __post_init__(self):
        # the entries are left to validate_coloring
        object.__setattr__(self, "color_of", tuple(_require_list("color_of", self.color_of)))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: str | None = None


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "feasible" | "infeasible"
    witness: Coloring | None = None
    objective: int | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @staticmethod
    def infeasible_outcome() -> "SolveOutcome":
        return SolveOutcome(status="infeasible")

    @staticmethod
    def feasible_from(inst: ColoringInstance, color_of) -> "SolveOutcome":
        col = Coloring(tuple(color_of))
        objective = None
        if inst.profit is not None:
            objective = sum([row[c - 1] for row, c in zip(inst.profit, col.color_of)])
        return SolveOutcome(status="feasible", witness=col, objective=objective)


def validate_coloring(inst: ColoringInstance, col: Coloring) -> ValidationReport:
    """Check a coloring against an instance.

    Returns a report whose ``violation`` names the first failed condition:
    properness (an element's conflict mask meets its color's elements; the
    pair ``_first_conflict`` names), then list membership, then the exact
    per-part weight bounds.
    A non-integer color or a coloring over the wrong element set raises
    UsageError instead, since that is a structural mismatch rather than an
    invalid coloring.
    """
    if not _all_ints(col.color_of):
        e, c = next((e, c) for e, c in enumerate(col.color_of) if not _is_int(c))
        raise UsageError(f"color_of[{e}]: expected an integer color, got {_shown(c)}")
    if len(col.color_of) != inst.num_elements:
        raise UsageError(f"coloring assigns {len(col.color_of)} elements, instance has {inst.num_elements}")
    classes = {}  # per color value, the mask of its elements
    for e, c in enumerate(col.color_of):
        classes[c] = classes.get(c, 0) | 1 << e
    if clash := _first_conflict(inst, [mask & classes[c] for mask, c in zip(inst.conflict_masks, col.color_of)]):
        a, b = clash
        what = "adjacent vertices" if inst.mode == "vertex" else "edges sharing a vertex"
        return ValidationReport(False, f"properness: {what} {a} and {b} both have color {col.color_of[a]}")
    for e, (c, colors) in enumerate(zip(col.color_of, inst.allowed)):
        if c not in colors:
            return ValidationReport(False, f"list: element {e} has color {c}, allowed {sorted(colors)}")
    tally = [0] * (inst.p * inst.k)
    for h, c, w in zip(inst.part_of, col.color_of, inst.weight):
        tally[inst.flat_index(h, c)] += w
    for i, (got, want) in enumerate(zip(tally, inst.bounds_flat)):
        if got != want:
            h, c = divmod(i, inst.k)
            return ValidationReport(False, f"bounds: part {h + 1} color {c + 1} carries weight {got}, required {want}")
    return ValidationReport(True, None)
