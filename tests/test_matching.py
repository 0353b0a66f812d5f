import random
from itertools import combinations, permutations

from lbcolor import (
    AssignmentProblem,
    CapacitatedBipartiteNetwork,
    max_flow_saturate,
    max_weight_perfect_assignment,
)

from corpus import exhaustive_assignment


def test_single_arc_saturates():
    net = CapacitatedBipartiteNetwork((1,), (1,), ((0, 0, 1),))
    out = max_flow_saturate(net)
    assert out.value == 1 and out.saturated and out.arc_flow == (1,)


def test_bottleneck_leaves_supply_unmet():
    net = CapacitatedBipartiteNetwork((1, 1), (1,), ((0, 0, 1), (1, 0, 1)))
    out = max_flow_saturate(net)
    assert out.value == 1 and not out.saturated


def test_empty_network():
    out = max_flow_saturate(CapacitatedBipartiteNetwork((), (), ()))
    assert out.value == 0 and out.saturated


def test_flow_conservation_and_integrality():
    rng = random.Random(13)
    for _ in range(50):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        supply = tuple(rng.randint(0, 3) for _ in range(nl))
        demand = tuple(rng.randint(0, 3) for _ in range(nr))
        arcs = tuple(
            (l, r, rng.randint(1, 3))
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.6
        )
        net = CapacitatedBipartiteNetwork(supply, demand, arcs)
        out = max_flow_saturate(net)
        assert all(isinstance(f, int) and 0 <= f <= cap for f, (_, _, cap) in zip(out.arc_flow, arcs))
        for l in range(nl):
            sent = sum(f for f, (a, _, _) in zip(out.arc_flow, arcs) if a == l)
            assert sent <= supply[l]
        for r in range(nr):
            received = sum(f for f, (_, b, _) in zip(out.arc_flow, arcs) if b == r)
            assert received <= demand[r]
        assert out.value == sum(out.arc_flow)


def min_cut_by_enumeration(net):
    """Exhaustive min cut of the source/sink expansion of the network."""
    nl, nr = len(net.left_supply), len(net.right_demand)
    nodes = list(range(nl + nr))
    best = None
    for size in range(len(nodes) + 1):
        for source_side in combinations(nodes, size):
            side = set(source_side)
            cut = 0
            for l in range(nl):
                if l not in side:
                    cut += net.left_supply[l]
            for (l, r, cap) in net.arcs:
                if l in side and nl + r not in side:
                    cut += cap
            for r in range(nr):
                if nl + r in side:
                    cut += net.right_demand[r]
            if best is None or cut < best:
                best = cut
    return best


def test_max_flow_equals_min_cut():
    rng = random.Random(17)
    for _ in range(40):
        nl, nr = rng.randint(1, 4), rng.randint(1, 4)
        supply = tuple(rng.randint(0, 3) for _ in range(nl))
        demand = tuple(rng.randint(0, 3) for _ in range(nr))
        arcs = tuple(
            (l, r, rng.randint(1, 3))
            for l in range(nl)
            for r in range(nr)
            if rng.random() < 0.5
        )
        net = CapacitatedBipartiteNetwork(supply, demand, arcs)
        assert max_flow_saturate(net).value == min_cut_by_enumeration(net)


def assert_assignment(ap, out):
    """The returned columns are distinct, use only allowed cells and sum to the total."""
    assert len(out.columns) == ap.rows == len(set(out.columns))
    assert all(ap.allowed[r][c] for r, c in enumerate(out.columns))
    assert sum(ap.weights[r][c] for r, c in enumerate(out.columns)) == out.total


def test_assignment_single_cell():
    out = max_weight_perfect_assignment(AssignmentProblem(((5,),), ((True,),)))
    assert out.columns == (0,) and out.total == 5


def test_assignment_forbidden_diagonal():
    ap = AssignmentProblem(((1, 2), (3, 4)), ((False, True), (True, False)))
    out = max_weight_perfect_assignment(ap)
    assert out.columns == (1, 0) and out.total == 5


def test_assignment_matches_permutation_brute_force():
    rng = random.Random(19)
    for _ in range(120):
        rows = rng.randint(1, 6)
        cols = rng.randint(rows, 6)
        weights = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        allowed = tuple(tuple(rng.random() < 0.7 for _ in range(cols)) for _ in range(rows))
        ap = AssignmentProblem(weights, allowed)
        out = max_weight_perfect_assignment(ap)
        best = None
        for perm in permutations(range(cols), rows):
            if all(allowed[r][c] for r, c in enumerate(perm)):
                total = sum(weights[r][c] for r, c in enumerate(perm))
                best = total if best is None else max(best, total)
        if best is None:
            assert out is None
        else:
            assert out is not None and out.total == best
            assert_assignment(ap, out)


def test_hungarian_agrees_with_exhaustive_on_overlap():
    # 150 problems of at most 6 rows and 7 columns, then a few of 7-8 rows
    # and columns: exhaustive search on 8x8 takes tens of milliseconds
    rng = random.Random(21)
    for case in range(158):
        rows = rng.randint(1, 6) if case < 150 else rng.randint(7, 8)
        cols = rng.randint(rows, 7 if case < 150 else 8)
        weights = tuple(tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows))
        allowed = tuple(tuple(rng.random() < 0.75 for _ in range(cols)) for _ in range(rows))
        ap = AssignmentProblem(weights, allowed)
        small = exhaustive_assignment(ap)
        large = max_weight_perfect_assignment(ap)
        if small is None:
            assert large is None
        else:
            assert large is not None and small.total == large.total
            assert_assignment(ap, large)


def test_more_rows_than_columns_infeasible():
    ap = AssignmentProblem(((1,), (2,)), ((True,), (True,)))
    assert max_weight_perfect_assignment(ap) is None


def test_empty_assignment():
    out = max_weight_perfect_assignment(AssignmentProblem((), ()))
    assert out.columns == () and out.total == 0
