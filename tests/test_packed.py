import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcolor import ColoringInstance, brute_force_solve, build_cotree, build_nice_decomposition, dp_cograph, dp_vertex
from lbcolor.basic import solve_isolated_k_fixed
from lbcolor.packed import PackedBounds

from corpus import assert_outcome, choose_by_sets, random_allowed, random_cograph_edges

# zero columns, and values on either side of a power of two, where a field
# one bit too narrow would carry
BOUND = st.one_of(
    st.just(0),
    st.integers(0, 12).map(lambda j: 2**j - 1),
    st.integers(0, 12).map(lambda j: 2**j),
    st.integers(0, 5000),
)


@st.composite
def packings(draw):
    """(bounds, max weight, packing); the max weight may exceed every bound."""
    bounds = draw(st.lists(BOUND, min_size=1, max_size=12))
    max_weight = draw(st.one_of(st.integers(1, 8), st.integers(1, 3000).map(lambda x: max(bounds) + x)))
    return bounds, max_weight, PackedBounds(bounds, max_weight)


def within(draw, bounds):
    return [draw(st.integers(0, b)) for b in bounds]


def assert_check_agrees(packing, bounds, x, fields):
    """The guard test on x agrees with the per-field check on its fields, and
    the sum formed no carry between fields."""
    assert packing.unpack(x) == tuple(fields)
    assert packing.fits(x) == all(f <= b for f, b in zip(fields, bounds))


@given(packings(), st.data())
def test_pack_unpack_round_trip(case, data):
    bounds, max_weight, packing = case
    top = max(max(bounds) * 2, max(bounds) + max_weight)
    vec = data.draw(st.lists(st.integers(0, top), min_size=len(bounds), max_size=len(bounds)))
    assert packing.unpack(packing.pack(vec)) == tuple(vec)
    for i, x in enumerate(vec):
        assert bool(packing.pack(vec) & packing.mask([i])) == bool(x)
    assert packing.unpack(packing.target) == tuple(bounds)
    assert packing.fits(packing.target) and packing.fits(0)


@given(packings(), st.data())
def test_state_plus_weight(case, data):
    bounds, max_weight, packing = case
    a = within(data.draw, bounds)
    i = data.draw(st.integers(0, len(bounds) - 1))
    w = data.draw(st.integers(1, max_weight))
    fields = list(a)
    fields[i] += w
    assert_check_agrees(packing, bounds, packing.pack(a) + packing.unit(i, w), fields)


@given(packings(), st.data())
def test_state_plus_state(case, data):
    bounds, _, packing = case
    a, b = within(data.draw, bounds), within(data.draw, bounds)
    fields = [x + y for x, y in zip(a, b)]
    assert_check_agrees(packing, bounds, packing.pack(a) + packing.pack(b), fields)
    sums = packing.layers({packing.pack(a): 0}, [{packing.pack(b): 0}])[-1]
    assert sums == ({packing.pack(fields): 0} if packing.fits(packing.pack(fields)) else {})


# ---------------------------------------------------------------------------
# the layered kernel: layers, split and choose

KERNEL = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def profit_rows(draw):
    """(bounds, start, rows): small bounds, a start row within them, and up
    to four rows of up to four states each; a state's fields reach past the
    bounds, so some states do not fit, and a row may be empty."""
    dim = draw(st.integers(1, 3))
    bounds = draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    top = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, top), min_size=dim, max_size=dim).map(tuple)
    row = st.dictionaries(vec, st.integers(-3, 5), max_size=4)
    within_bounds = st.tuples(*(st.integers(0, b) for b in bounds))
    start = draw(st.dictionaries(within_bounds, st.integers(-3, 5), min_size=1, max_size=2))
    return bounds, top, start, draw(st.lists(row, max_size=4))


@KERNEL
@given(profit_rows())
def test_split_of_layers_matches_the_brute_force_product(case):
    bounds, top, start, rows = case
    packing = PackedBounds(bounds, top)
    fitting = {}  # per fitting sum of one state of start and of each row, its best profit
    for picks in product(start.items(), *(row.items() for row in rows)):
        total = tuple(map(sum, zip(*(vec for vec, _ in picks))))
        if all(x <= b for x, b in zip(total, bounds)):
            profit = sum(p for _, p in picks)
            fitting[total] = max(profit, fitting.get(total, profit))
    steps = [{packing.pack(vec): p for vec, p in row.items()} for row in rows]
    layers = packing.layers({packing.pack(vec): p for vec, p in start.items()}, steps)
    assert {packing.unpack(x): p for x, p in layers[-1].items()} == (fitting if rows else start)
    if not layers[-1]:
        return
    assert len(layers) == len(rows) + 1
    for state, profit in layers[-1].items():
        picked = packing.split(layers, steps, state, "test")
        assert len(picked) == len(steps)
        assert all(s in step for s, step in zip(picked, steps))
        rest = state - sum(picked)
        assert layers[0][rest] + sum(step[s] for s, step in zip(picked, steps)) == profit


@st.composite
def planted_steps(draw):
    """(bounds, steps): one state per step sums to the bounds, placed among
    up to three other states at a drawn position; every state maps to a
    payload naming its step and position."""
    dim = draw(st.integers(1, 3))
    vec = st.lists(st.integers(0, 3), min_size=dim, max_size=dim).map(tuple)
    planted = draw(st.lists(vec, max_size=5))
    bounds = [sum(col) for col in zip(*planted)] if planted else [0] * dim
    if draw(st.booleans()):  # often, a bound the plant misses
        bounds[0] += draw(st.integers(-1, 1))
    steps = []
    for i, plant in enumerate(planted):
        others = draw(st.lists(vec, max_size=3))
        others.insert(draw(st.integers(0, len(others))), plant)
        steps.append(others)
    return [max(b, 0) for b in bounds], steps


@KERNEL
@given(planted_steps())
def test_choose_picks_what_the_set_walk_picks(case):
    bounds, vecs = case
    top = max((x for step in vecs for v in step for x in v), default=0)
    packing = PackedBounds(bounds, top)
    steps = [{packing.pack(v): (i, j) for j, v in enumerate(step)} for i, step in enumerate(vecs)]
    assert packing.choose(iter(steps), "test") == choose_by_sets(packing, iter(steps), "test")


def counted_steps(steps, read):
    """Yield ``steps``, counting each in ``read``; advancing past the last
    fails the test."""
    for step in steps:
        read.append(step)
        yield step
    pytest.fail("read past the last step")


def test_layers_and_choose_stop_at_the_first_empty_layer():
    packing = PackedBounds([2, 1], 3)
    one, two = packing.unit(0, 1), packing.unit(1, 1)
    # the third step fits nothing onto the second layer, so no fourth is read
    rows = [{one: 0, two: 1}, {one: 2}, {packing.unit(0, 2): 0, packing.unit(0, 3): 0}]
    read = []
    layers = packing.layers({0: 0}, counted_steps(rows, read))
    assert len(read) == 3 and layers[2] and layers[-1] == {} and len(layers) == 4
    read = []
    assert packing.choose(counted_steps([dict.fromkeys(row, "x") for row in rows], read), "test") is None
    assert len(read) == 3
    # an empty step ends the layers at once
    read = []
    assert packing.layers({0: 0}, counted_steps([{}], read)) == [{0: 0}, {}] and len(read) == 1


@given(packings(), st.data())
def test_join_sum_less_bag(case, data):
    bounds, _, packing = case
    bag = within(data.draw, bounds)
    a = [data.draw(st.integers(g, b)) for g, b in zip(bag, bounds)]
    b = [data.draw(st.integers(g, c)) for g, c in zip(bag, bounds)]
    fields = [x + y - g for x, y, g in zip(a, b, bag)]
    x = packing.pack(a) + packing.pack(b) - packing.pack(bag)
    assert_check_agrees(packing, bounds, x, fields)


# ---------------------------------------------------------------------------
# the DPs against the oracle where the guard matters most


def edge_case_instance(rng, edges, n, profit):
    """Every part has a zero bound column, and usually one element is heavier
    than every bound (so that instance is infeasible)."""
    k, p = rng.randint(2, 3), rng.randint(1, 2)
    part_of = tuple(rng.randint(1, p) for _ in range(n))
    weight = [rng.randint(1, 3) for _ in range(n)]
    heavy = rng.random() < 0.6
    if heavy:
        weight[rng.randrange(n)] = 4 + rng.randint(0, 4) + sum(weight)
    bounds = []
    for h in range(1, p + 1):
        total = sum(w for w, part in zip(weight, part_of) if part == h)
        zero = rng.randrange(k)
        row = [0] * k
        live = [c for c in range(k) if c != zero]
        for _ in range(total):
            row[rng.choice(live)] += 1
        bounds.append(tuple(row))
    if heavy and max(weight) <= max(max(row) for row in bounds):
        return None
    allowed = tuple(random_allowed(rng, k) for _ in range(n))
    prof = tuple(tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n)) if profit else None
    return ColoringInstance(
        mode="vertex", n=n, edges=edges, k=k, p=p, part_of=part_of, weight=tuple(weight),
        bounds=tuple(bounds), allowed=allowed, profit=prof,
    )


def edge_cases(seed, count, make_edges):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(1, 6)
        inst = edge_case_instance(rng, make_edges(rng, n), n, profit=True)
        if inst is not None:
            found.append(inst)
    return found


def check_against_oracle(inst, solve, objectives):
    for objective in objectives:
        out = solve(inst, objective)
        want = brute_force_solve(inst, objective)
        assert out.status == want.status and out.objective == want.objective
        assert_outcome(inst, out)


def test_dp_vertex_matches_oracle_on_zero_columns_and_heavy_weights():
    def any_edges(rng, n):
        return tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4)

    for inst in edge_cases(101, 150, any_edges):
        dec, _ = build_nice_decomposition(inst)
        check_against_oracle(inst, lambda i, obj: dp_vertex(i, dec, obj), ("decide", "maximize"))


def test_dp_cograph_matches_oracle_on_zero_columns_and_heavy_weights():
    for inst in edge_cases(103, 150, random_cograph_edges):
        ct = build_cotree(inst)
        check_against_oracle(inst, lambda i, obj: dp_cograph(i, ct, obj), ("decide", "maximize"))


def test_isolated_k_fixed_matches_oracle_on_zero_columns_and_heavy_weights():
    for inst in edge_cases(107, 150, lambda rng, n: ()):
        check_against_oracle(inst, lambda i, obj: solve_isolated_k_fixed(i), ("decide",))
