"""Ground truth that does not come from any lbcolor solver.

Planted instances carry the coloring they were built from.  Generator
instances get their answer from small exhaustive solvers for the source
problems below, written independently of the package.
"""

from __future__ import annotations


def partition_exists(values) -> bool:
    """True when ``values`` split into two halves of equal sum (subset sum)."""
    total = sum(values)
    if total % 2:
        return False
    reach = 1
    for a in values:
        reach |= reach << a
    return bool(reach >> (total // 2) & 1)


def three_partition_exists(values, target: int) -> bool:
    """True when ``values`` split into triples that each sum to ``target``."""
    left = sorted(values, reverse=True)

    def place(rest):
        if not rest:
            return True
        a, rest = rest[0], rest[1:]
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                if a + rest[i] + rest[j] == target:
                    remaining = rest[:i] + rest[i + 1 : j] + rest[j + 1 :]
                    if place(remaining):
                        return True
        return False

    return place(left)


def one_in_three_assignment(num_variables: int, clauses):
    """An assignment (tuple of bools, variable i at index i-1) making exactly
    one variable true in every clause, or None; tries all 2**num_variables."""
    for mask in range(1 << num_variables):
        if all(sum(mask >> (x - 1) & 1 for x in clause) == 1 for clause in clauses):
            return tuple(bool(mask >> i & 1) for i in range(num_variables))
    return None


def matching_exists(size: int, triples) -> bool:
    """True when some ``size`` triples cover every x, y and z element once."""
    by_x = [[] for _ in range(size + 1)]
    for x, y, z in set(triples):
        by_x[x].append((y, z))

    def cover(x, used_y, used_z):
        if x > size:
            return True
        for y, z in by_x[x]:
            if not used_y >> y & 1 and not used_z >> z & 1:
                if cover(x + 1, used_y | 1 << y, used_z | 1 << z):
                    return True
        return False

    return cover(1, 0, 0)


def coloring_profit(profit, color_of) -> int:
    return sum(row[c - 1] for row, c in zip(profit, color_of))


def coloring_is_valid(fields: dict, color_of) -> bool:
    """Independent validity check of a planted coloring against raw instance
    fields: proper on conflicting elements, inside the lists, exact bounds."""
    mode, edges = fields["mode"], fields["edges"]
    if mode == "vertex":
        conflicts = edges
    else:
        conflicts = [
            (a, b)
            for a in range(len(edges))
            for b in range(a + 1, len(edges))
            if set(edges[a]) & set(edges[b])
        ]
    if any(color_of[a] == color_of[b] for a, b in conflicts):
        return False
    if any(c not in allowed for c, allowed in zip(color_of, fields["allowed"])):
        return False
    tally = [[0] * fields["k"] for _ in range(fields["p"])]
    for h, w, c in zip(fields["part_of"], fields["weight"], color_of):
        tally[h - 1][c - 1] += w
    return tally == [list(row) for row in fields["bounds"]]
