"""Part-by-color weight vectors packed into one int, checked against bounds.

Coordinate i occupies bits [i*width, (i+1)*width), whose top bit is a guard.
Adding two packed vectors is one int add, and a vector is within the bounds
exactly when adding ``offset`` (guard - 1 - bound in every field) sets no
guard bit.  ``width`` holds every sum the DPs form before checking it (a
state within the bounds plus one weight, or plus another such state), so no
field ever carries into the next.  For the same reason a sum of such states
determines its fields, so a DP that stores only reachable states finds a
state's predecessor by subtraction and lookup (``first_predecessor``).

``layers`` and ``split`` are the package's one layered kernel: ``layers``
sums a sequence of profit rows onto a start row, one layer per row, and
``split`` walks a state of the last layer back into one state per row.
``choose``, the pendant trees of the tree DP and its meet at the target
all run on them.
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

    def layers(self, start: dict, steps) -> list[dict]:
        """[start, start + steps[0], ...]: each layer maps the fitting sums
        of the layer below and one more step's row to their best profit
        (``best_sums``).  ``steps`` is read lazily: an empty layer ends the
        list, before a later row is built."""
        layers = [start]
        for step in steps:
            layers.append(layer := self.best_sums(layers[-1], step))
            if not layer:
                break
        return layers

    @staticmethod
    def split(layers, steps, state: int, where: str) -> list[int]:
        """Walk ``layers`` back from ``state`` in its last layer into one
        state per step, in step order: from the last step down, the first
        state in the step's order that leads into the layer below with the
        same profit.  ``where`` names the caller in the error raised when
        none does (see ``first_predecessor``)."""
        found = []
        for step, below, above in zip(reversed(steps), reversed(layers[:-1]), reversed(layers[1:])):
            profit = above[state]
            s = first_predecessor((s for s, p in step.items() if below.get(state - s) == profit - p), where)
            found.append(s)
            state -= s
        found.reverse()
        return found

    def choose(self, steps, where: str):
        """Pick one payload per step so that the picked states sum to
        ``target``, or return None when no choice does.

        ``steps`` yields {packed state: payload} maps, read lazily by
        ``layers``: a step that leaves no fitting sum ends the search before
        later maps are built.  Each map is a row of zero profits, layered
        from the zero state and split back from the target, so each step
        picks the first of its states, in map order, that leads into the
        layer below.
        """
        maps, rows = [], []  # per step read, its payload map and zero-profit row

        def zero_rows():
            for options in steps:
                maps.append(options)
                rows.append(dict.fromkeys(options, 0))
                yield rows[-1]

        layers = self.layers({0: 0}, zero_rows())
        if self.target not in layers[-1]:
            return None
        return [options[s] for options, s in zip(maps, self.split(layers, rows, self.target, where))]


def first_predecessor(candidates, where: str):
    """The first of ``candidates``, the predecessors of one state on the way
    down from a DP root.  Every stored state was built from one, so finding
    none means the tables are inconsistent."""
    for found in candidates:
        return found
    raise RuntimeError(f"{where}: a reachable state has no predecessor in the tables")
