import random

from hypothesis import given
from hypothesis import strategies as st

from lbcolor import ColoringInstance, brute_force_solve, build_cotree, build_nice_decomposition, dp_cograph, dp_vertex
from lbcolor.basic import solve_isolated_k_fixed
from lbcolor.packed import PackedBounds

from corpus import assert_outcome, random_allowed, random_cograph_edges

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
    sums = packing.sums([packing.pack(a)], [packing.pack(b)])
    assert sums == ({packing.pack(fields)} if packing.fits(packing.pack(fields)) else set())


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
