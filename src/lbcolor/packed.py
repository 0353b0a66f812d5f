"""Part-by-color weight vectors packed into one int, checked against bounds.

Coordinate i occupies bits [i*width, (i+1)*width), whose top bit is a guard.
Adding two packed vectors is one int add, and a vector is within the bounds
exactly when adding ``offset`` (guard - 1 - bound in every field) sets no
guard bit.  ``width`` holds every sum the DPs form before checking it (a
state within the bounds plus one weight, or plus another such state), so no
field ever carries into the next.  For the same reason a sum of such states
determines its fields, so a DP that stores only reachable states finds a
state's predecessor by subtraction and lookup (``first_predecessor``).
"""

from __future__ import annotations


class PackedBounds:
    """Packing for one bound vector; ``max_weight`` is the most any single
    step adds to one coordinate of a state within the bounds."""

    __slots__ = ("dim", "width", "offset", "guard", "target")

    def __init__(self, bounds, max_weight: int = 0):
        top = max(bounds, default=0)
        self.dim = len(bounds)
        self.width = max(2 * top, top + max_weight).bit_length() + 1
        ones = ((1 << self.width * self.dim) - 1) // ((1 << self.width) - 1)  # 1 in every field
        self.guard = ones << (self.width - 1)
        self.target = self.pack(bounds)
        self.offset = self.guard - ones - self.target

    def pack(self, vec) -> int:
        return sum(x << (i * self.width) for i, x in enumerate(vec))

    def unpack(self, x: int) -> tuple[int, ...]:
        mask = (1 << self.width) - 1
        return tuple(x >> (i * self.width) & mask for i in range(self.dim))

    def mask(self, coords) -> int:
        """The bits of the given coordinates: x & mask is 0 iff all of them are."""
        return sum(((1 << self.width) - 1) << (i * self.width) for i in coords)

    def unit(self, i: int, w: int) -> int:
        return w << (i * self.width)

    def fits(self, x: int) -> bool:
        return not (x + self.offset) & self.guard

    def sums(self, lefts, rights) -> set[int]:
        """The sums a + b, a in ``lefts`` and b in ``rights``, that fit."""
        offset, guard = self.offset, self.guard
        return {x for a in lefts for b in rights if not ((x := a + b) + offset) & guard}

    def best_sums(self, lefts: dict, rights: dict, row: dict | None = None) -> dict:
        """``lefts`` and ``rights`` map states to profits: map each fitting
        a + b to its best lefts[a] + rights[b], merged into ``row`` if given."""
        offset, guard = self.offset, self.guard
        row = {} if row is None else row
        best = row.get
        rights = rights.items()
        # a plain loop: a comprehension per left state costs more on small rows
        for a, pa in lefts.items():
            for b, pb in rights:
                x = a + b
                if not (x + offset) & guard:
                    q = pa + pb
                    if q > best(x, q - 1):
                        row[x] = q
        return row

    def choose(self, steps, where: str):
        """Pick one payload per step so that the picked states sum to
        ``target``, or return None when no choice does.

        ``steps`` yields {packed state: payload} maps, read lazily: a step
        that leaves no fitting sum ends the search before later maps are
        built.  Layer i holds the fitting sums of the first i steps; the walk
        back from the target takes, in each step's map order, the first state
        that leads into the layer below.  ``where`` names the caller in the
        error raised when none does (see ``first_predecessor``).
        """
        layers = [{0}]
        read = []
        for options in steps:
            nxt = self.sums(layers[-1], options)
            if not nxt:
                return None
            layers.append(nxt)
            read.append(options)
        state = self.target
        if state not in layers[-1]:
            return None
        chosen = []
        for layer, options in zip(reversed(layers[:-1]), reversed(read)):
            step = first_predecessor((d for d in options if state - d in layer), where)
            state -= step
            chosen.append(options[step])
        chosen.reverse()
        return chosen


def first_predecessor(candidates, where: str):
    """The first of ``candidates``, the predecessors of one state on the way
    down from a DP root.  Every stored state was built from one, so finding
    none means the tables are inconsistent."""
    for found in candidates:
        return found
    raise RuntimeError(f"{where}: a reachable state has no predecessor in the tables")
