import ast
import copy
import dataclasses
import enum
import inspect
import random
import re
import textwrap
import tracemalloc
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcolor import (
    Coloring,
    ColoringInstance,
    InstanceFormatError,
    UsageError,
    instance_from_doc,
    validate_coloring,
)
from lbcolor.instance import RawDecomposition, ValidationReport

from corpus import conflict_pairs, random_edge_instance, random_vertex_instance


def make(mode="vertex", n=1, edges=(), k=1, p=1, part_of=None, weight=None,
         bounds=None, allowed=None, profit=None):
    m = n if mode == "vertex" else len(edges)
    part_of = part_of if part_of is not None else (1,) * m
    weight = weight if weight is not None else (1,) * m
    if bounds is None:
        bounds = [[0] * k for _ in range(p)]
        for e in range(m):
            bounds[part_of[e] - 1][0] += weight[e]
        bounds = tuple(tuple(r) for r in bounds)
    allowed = allowed if allowed is not None else (frozenset(range(1, k + 1)),) * m
    return ColoringInstance(mode=mode, n=n, edges=tuple(edges), k=k, p=p,
                            part_of=part_of, weight=weight, bounds=bounds,
                            allowed=allowed, profit=profit)


def test_single_vertex_only_assignment_is_valid():
    inst = make(n=1, k=1, bounds=((1,),))
    assert validate_coloring(inst, Coloring((1,))).ok


def test_adjacent_equal_colors_rejected():
    inst = make(n=2, edges=((0, 1),), k=2, bounds=((1, 1),))
    report = validate_coloring(inst, Coloring((1, 1)))
    assert not report.ok
    assert "properness" in report.violation


def test_weight_cannot_split_across_colors():
    inst = make(n=1, k=2, weight=(2,), bounds=((1, 1),))
    report = validate_coloring(inst, Coloring((1,)))
    assert not report.ok
    assert "bounds" in report.violation


def test_list_violation_reported():
    inst = make(n=2, k=2, bounds=((1, 1),), allowed=(frozenset({1}), frozenset({2})))
    report = validate_coloring(inst, Coloring((2, 1)))
    assert not report.ok
    assert "list" in report.violation


def test_structural_mismatch_raises():
    inst = make(n=2, k=2, bounds=((2, 0),))
    with pytest.raises(UsageError):
        validate_coloring(inst, Coloring((1,)))


def test_edge_mode_properness_shared_endpoint():
    inst = make(mode="edge", n=3, edges=((0, 1), (1, 2)), k=2, bounds=((1, 1),))
    assert not validate_coloring(inst, Coloring((1, 1))).ok
    assert validate_coloring(inst, Coloring((1, 2))).ok


def test_bound_sum_invariant_enforced():
    with pytest.raises(InstanceFormatError, match=r"bounds\[1\]"):
        make(n=2, k=2, bounds=((1, 0),))


def test_zero_weight_rejected():
    with pytest.raises(InstanceFormatError, match=r"weight\[0\]"):
        make(n=1, k=1, weight=(0,), bounds=((0,),))


def test_empty_allowed_rejected():
    with pytest.raises(InstanceFormatError, match=r"allowed\[0\]"):
        make(n=1, k=1, allowed=(frozenset(),))


def test_out_of_range_color_rejected():
    with pytest.raises(InstanceFormatError, match=r"allowed\[0\]"):
        make(n=1, k=1, allowed=(frozenset({0}),))


def test_self_loop_and_duplicate_edges_rejected():
    with pytest.raises(InstanceFormatError, match="self-loop"):
        make(n=2, edges=((0, 0),), k=1)
    with pytest.raises(InstanceFormatError, match="duplicate"):
        make(mode="edge", n=2, edges=((0, 1), (1, 0)), k=1)


def test_objective_matches_witness_profit():
    from lbcolor.instance import SolveOutcome

    inst = make(n=2, k=2, bounds=((1, 1),), profit=((3, -1), (2, 5)))
    out = SolveOutcome.feasible_from(inst, (1, 2))
    assert out.objective == 3 + 5


def _doc(**overrides):
    doc = {
        "mode": "vertex", "n": 2, "edges": [[0, 1]], "k": 2, "p": 1,
        "part_of": [1, 1], "weight": [1, 1], "bounds": [[1, 1]],
        "allowed": [[1, 2], [1, 2]], "profit": [[0, 1], [1, 0]],
        "decomposition": {"bags": [[0, 1]], "tree_edges": [], "root": 0},
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("field, overrides", [
    pytest.param("n", {"n": True}, id="bool-n"),
    pytest.param("part_of[1]", {"part_of": [1, True]}, id="bool-part"),
    pytest.param("weight[0]", {"weight": [True, 1]}, id="bool-weight"),
    pytest.param("bounds[1][1]", {"bounds": [[True, 1]]}, id="bool-bound"),
    pytest.param("allowed[0]", {"allowed": [[1, True], [1, 2]]}, id="bool-color-beside-1"),
    pytest.param("profit[1]", {"profit": [[0, 1], [True, 0]]}, id="bool-profit"),
    pytest.param("bounds[1]", {"bounds": [5]}, id="bounds-row-not-a-list"),
    pytest.param("profit[0]", {"profit": [5, [0, 1]]}, id="profit-row-not-a-list"),
    pytest.param("allowed[1]", {"allowed": [[1, 2], 2]}, id="allowed-entry-not-a-list"),
    pytest.param("edges[0]", {"edges": [[0, 1, 1]]}, id="edge-triple"),
    pytest.param("edges[0]", {"edges": [5]}, id="edge-not-a-list"),
    pytest.param("decomposition.bags[0]", {"decomposition": {"bags": [[0, True]], "tree_edges": [], "root": 0}},
                 id="bool-bag-entry"),
    pytest.param("decomposition.root", {"decomposition": {"bags": [[0, 1]], "tree_edges": [], "root": True}},
                 id="bool-root"),
    pytest.param("decomposition.tree_edges[0]", {"decomposition": {"bags": [[0, 1]], "tree_edges": [[0]], "root": 0}},
                 id="tree-edge-not-a-pair"),
])
def test_malformed_field_rejected_from_doc_and_in_code(field, overrides):
    doc = _doc(**overrides)
    names_field = rf"^{re.escape(field)}:"
    with pytest.raises(InstanceFormatError, match=names_field):
        instance_from_doc(doc)
    fields = dict(doc)
    with pytest.raises(InstanceFormatError, match=names_field):
        fields["decomposition"] = RawDecomposition(**doc["decomposition"])
        ColoringInstance(**fields)


def test_negated_carries_every_cache_that_ignores_profits():
    caches = {name: attr for name, attr in vars(ColoringInstance).items() if isinstance(attr, cached_property)}
    assert "neighbor_masks" in caches

    def reads_profit(prop):
        tree = ast.parse(textwrap.dedent(inspect.getsource(prop.func)))
        return any(isinstance(node, ast.Attribute) and node.attr in ("profit", "profit_of")
                   for node in ast.walk(tree))

    inst = make(n=4, edges=((0, 1), (1, 2), (2, 3)), k=2, profit=((1, 2),) * 4)
    for name in caches:
        getattr(inst, name)
    twin = inst.negated()
    for name, prop in caches.items():
        if not reads_profit(prop):
            assert twin.__dict__.get(name) is inst.__dict__[name], f"negated() rebuilds {name}"


def test_negated_equals_the_checked_replacement():
    inst = make(n=3, edges=((0, 1), (1, 2)), k=2, p=2, part_of=(1, 2, 1),
                profit=((1, -2), (0, 3), (4, 4)))
    twin = inst.negated()
    assert twin == dataclasses.replace(inst, profit=((-1, 2), (0, -3), (-4, -4)))
    assert twin.negated() == inst


# ---------------------------------------------------------------------------
# the whole-field checks against a per-element reference


def _int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _listish(name, value):
    if not isinstance(value, (list, tuple)):
        raise InstanceFormatError(f"{name}: expected a list, got {type(value).__name__}")
    return value


def reference_decomposition(bags, tree_edges, root):
    """Construction of RawDecomposition checked one entry at a time, as it
    was before its whole-field passes: the normalised fields, or the error."""
    checked = []
    for i, bag in enumerate(_listish("decomposition.bags", bags)):
        if not isinstance(bag, (list, tuple)) or not all(map(_int, bag)):
            raise InstanceFormatError(f"decomposition.bags[{i}]: expected a list of integers")
        checked.append(tuple(bag))
    pairs = []
    for i, pair in enumerate(_listish("decomposition.tree_edges", tree_edges)):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(map(_int, pair)):
            raise InstanceFormatError(f"decomposition.tree_edges[{i}]: expected a pair of integers")
        pairs.append(tuple(pair))
    if not _int(root):
        raise InstanceFormatError(f"decomposition.root: expected an integer, got {root!r}")
    return {"bags": tuple(checked), "tree_edges": tuple(pairs), "root": root}


def reference_instance(mode, n, edges, k, p, part_of, weight, bounds, allowed, profit=None):
    """Construction of ColoringInstance checked one entry at a time, as it
    was before its whole-field passes: the normalised fields, or the error.
    The weight per part is totalled once the bounds are known to have p
    rows, so a huge p is an error, not a huge list."""
    if mode not in ("vertex", "edge"):
        raise InstanceFormatError(f"mode: expected one of ('vertex', 'edge'), got {mode!r}")
    if not _int(n) or n < 0:
        raise InstanceFormatError(f"n: expected a non-negative integer, got {n!r}")
    if not _int(k) or k < 1:
        raise InstanceFormatError(f"k: expected a positive integer, got {k!r}")
    if not _int(p) or p < 1:
        raise InstanceFormatError(f"p: expected a positive integer, got {p!r}")
    pairs, seen = [], set()
    for pos, pair in enumerate(_listish("edges", edges)):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InstanceFormatError(f"edges[{pos}]: expected a pair of vertices")
        u, v = pair
        if not (_int(u) and _int(v)):
            raise InstanceFormatError(f"edges[{pos}]: endpoints must be integers")
        if u == v:
            raise InstanceFormatError(f"edges[{pos}]: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceFormatError(f"edges[{pos}]: endpoint out of range 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InstanceFormatError(f"edges[{pos}]: duplicate edge {e}")
        seen.add(e)
        pairs.append(e)
    m = n if mode == "vertex" else len(pairs)
    for name, seq in (("part_of", part_of), ("weight", weight), ("allowed", allowed)):
        if len(_listish(name, seq)) != m:
            raise InstanceFormatError(f"{name}: expected {m} entries, got {len(seq)}")
    for e, (h, w) in enumerate(zip(part_of, weight)):
        if not _int(h) or not 1 <= h <= p:
            raise InstanceFormatError(f"part_of[{e}]: expected a part in 1..{p}, got {h!r}")
        if not _int(w) or w < 1:
            raise InstanceFormatError(f"weight[{e}]: weights must be positive integers, got {w!r}")
    lists = []
    for e, colors in enumerate(allowed):
        if not isinstance(colors, (list, tuple, set, frozenset)):
            raise InstanceFormatError(f"allowed[{e}]: expected a list of colors")
        if not colors:
            raise InstanceFormatError(f"allowed[{e}]: color list is empty")
        for c in colors:
            if not _int(c) or not 1 <= c <= k:
                raise InstanceFormatError(f"allowed[{e}]: color {c!r} outside 1..{k}")
        lists.append(frozenset(colors))
    if len(_listish("bounds", bounds)) != p:
        raise InstanceFormatError(f"bounds: expected {p} rows, got {len(bounds)}")
    rows = []
    for h, row in enumerate(bounds, start=1):
        if not isinstance(row, (list, tuple)):
            raise InstanceFormatError(f"bounds[{h}]: expected a list")
        row = tuple(row)
        if len(row) != k:
            raise InstanceFormatError(f"bounds[{h}]: expected {k} entries, got {len(row)}")
        for c, b in enumerate(row, start=1):
            if not _int(b) or b < 0:
                raise InstanceFormatError(f"bounds[{h}][{c}]: expected a non-negative integer, got {b!r}")
        rows.append(row)
    carried = [0] * p
    for h, w in zip(part_of, weight):
        carried[h - 1] += w
    for h, (row, part_weight) in enumerate(zip(rows, carried), start=1):
        if part_weight != sum(row):
            raise InstanceFormatError(
                f"bounds[{h}]: row sums to {sum(row)} but part {h} carries total weight {part_weight}"
            )
    if profit is not None:
        if len(_listish("profit", profit)) != m:
            raise InstanceFormatError(f"profit: expected {m} rows, got {len(profit)}")
        checked = []
        for e, row in enumerate(profit):
            if not isinstance(row, (list, tuple)) or len(row) != k or not all(map(_int, row)):
                raise InstanceFormatError(f"profit[{e}]: expected {k} integers")
            checked.append(tuple(row))
        profit = tuple(checked)
    return {
        "mode": mode, "n": n, "edges": tuple(pairs), "k": k, "p": p, "part_of": tuple(part_of),
        "weight": tuple(weight), "bounds": tuple(rows), "allowed": tuple(lists), "profit": profit,
    }


def reference_from_doc(doc):
    fields = {key: doc[key] for key in ("mode", "n", "edges", "k", "p", "part_of", "weight", "bounds", "allowed")}
    decomposition = doc.get("decomposition")
    if decomposition is not None:
        decomposition = reference_decomposition(**decomposition)
    return {**reference_instance(**fields, profit=doc.get("profit")), "decomposition": decomposition}


def test_a_huge_part_count_is_a_format_error():
    # the per-part weights are totalled only once the bounds have p rows
    with pytest.raises(InstanceFormatError, match=r"^bounds: expected 1000000000000 rows, got 1$"):
        make(n=1, k=1, p=10**12, bounds=((1,),))


def test_a_value_too_large_to_print_is_a_format_error():
    # str() refuses an int past 4,300 digits; the error still names the field
    huge = -(10**5000)
    fields = dict(mode="vertex", n=0, edges=(), k=1, p=1, part_of=(), weight=(), bounds=((0,),), allowed=())
    with pytest.raises(InstanceFormatError, match=r"^n: expected a non-negative integer, got <int too large to show>$"):
        ColoringInstance(**{**fields, "n": huge})
    with pytest.raises(InstanceFormatError, match=r"^k: expected a positive integer, got <list too large to show>$"):
        ColoringInstance(**{**fields, "k": [1, huge]})


Small = enum.IntEnum("Small", ["ZERO", "ONE", "TWO", "THREE", "FOUR"], start=0)
ODD_VALUES = [True, False, 1.0, 2.5, "1", None, Small.ONE, Small.TWO, -1, 0, 1, 2, 3, 7, 10**20]


@st.composite
def valid_docs(draw):
    """A document that passes every check: bounds from a random coloring."""
    mode = draw(st.sampled_from(["vertex", "edge"]))
    n = draw(st.integers(0 if mode == "vertex" else 2, 6))
    possible = [[u, v] for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique_by=tuple, max_size=8) if possible else st.just([]))
    k, p = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    m = n if mode == "vertex" else len(edges)
    part_of = draw(st.lists(st.integers(1, p), min_size=m, max_size=m))
    weight = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    color_of = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    bounds = [[0] * k for _ in range(p)]
    for h, w, c in zip(part_of, weight, color_of):
        bounds[h - 1][c - 1] += w
    allowed = [sorted({c, *draw(st.lists(st.integers(1, k), max_size=k))}) for c in color_of]
    doc = {"mode": mode, "n": n, "edges": edges, "k": k, "p": p, "part_of": part_of, "weight": weight,
           "bounds": bounds, "allowed": allowed}
    if draw(st.booleans()):
        doc["profit"] = draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=m, max_size=m))
    if draw(st.booleans()):
        doc["decomposition"] = {"bags": [list(range(n))], "tree_edges": [], "root": 0}
        if n > 1 and draw(st.booleans()):
            doc["decomposition"] = {"bags": [[v] for v in range(n)], "tree_edges": [[v, v + 1] for v in range(n - 1)],
                                    "root": 0}
    return doc


FIELDS = ("edges", "part_of", "weight", "allowed", "bounds", "profit", "bags", "tree_edges")
CONTAINERS = (set, frozenset, tuple, str, dict.fromkeys, lambda row: 5)


class Subclassed(int):
    pass


def _pick_list(data, doc):
    """A field of ``doc`` that is still a list, or one of its rows; None if
    the drawn field is gone or no longer a list."""
    name = data.draw(st.sampled_from(FIELDS))
    holder = doc.get("decomposition") if name in ("bags", "tree_edges") else doc
    seq = holder.get(name) if isinstance(holder, dict) else None
    if not isinstance(seq, list):
        return None
    rows = [row for row in seq if isinstance(row, list)]
    return data.draw(st.sampled_from(rows)) if rows and data.draw(st.booleans()) else seq


def mutate(data, doc):
    """One mutation of ``doc``, which may already be mutated."""
    draw = data.draw
    kind = draw(st.sampled_from(["entry", "subclass", "length", "empty", "container", "edge", "row sum", "scalar"]))
    seq = _pick_list(data, doc)
    if kind == "scalar":
        key = draw(st.sampled_from(["n", "k", "p", "root"]))
        target = doc.get("decomposition") if key == "root" else doc
        if target is not None:
            target[key] = draw(st.sampled_from(ODD_VALUES))
    elif kind in ("entry", "subclass") and seq:
        i = draw(st.integers(0, len(seq) - 1))
        if kind == "entry":
            seq[i] = draw(st.sampled_from(ODD_VALUES))
        elif _int(seq[i]):  # the same value, as a type that is not exactly int
            seq[i] = Small(seq[i]) if 0 <= seq[i] <= 4 and draw(st.booleans()) else Subclassed(seq[i])
    elif kind == "length" and seq is not None:
        if seq and draw(st.booleans()):
            seq.pop()
        else:
            seq.append(seq[0] if seq else draw(st.integers(0, 3)))
    elif kind == "empty" and seq:
        seq[draw(st.integers(0, len(seq) - 1))] = []
    elif kind == "container" and seq:
        i = draw(st.integers(0, len(seq) - 1))
        if isinstance(seq[i], list):
            seq[i] = draw(st.sampled_from(CONTAINERS))(seq[i])
    elif kind == "edge":
        edges = doc["edges"]
        pairs = [e for e in edges if isinstance(e, list) and len(e) == 2]
        how = draw(st.sampled_from(["reversed", "reversed duplicate", "self-loop"]))
        if how == "self-loop":
            v = draw(st.integers(0, 6))
            edges.insert(draw(st.integers(0, len(edges))), [v, v])
        elif pairs:
            pair = draw(st.sampled_from(pairs))
            if how == "reversed":
                pair.reverse()
            else:
                edges.insert(draw(st.integers(0, len(edges))), pair[::-1])
    elif kind == "row sum":
        rows = [row for row in doc["bounds"] if isinstance(row, list) and row]
        if rows:
            row = draw(st.sampled_from(rows))
            c = draw(st.integers(0, len(row) - 1))
            if _int(row[c]):
                row[c] += draw(st.sampled_from([-1, 1]))


def _outcome(build, doc):
    try:
        return "accepted", build(doc)
    except Exception as exc:  # the error's type and message are compared
        return "rejected", (type(exc), str(exc))


def _leaf_types(value):
    """The types of the values inside normalised fields, in order (a
    frozenset's sorted by repr): an int subclass must be kept as it is."""
    if isinstance(value, dict):
        items = [value[key] for key in sorted(value)]
    elif isinstance(value, frozenset):
        items = sorted(value, key=repr)
    elif isinstance(value, tuple):
        items = value
    else:
        return [type(value)]
    return [t for x in items for t in _leaf_types(x)]


def _fields(inst):
    fields = {f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)}
    if inst.decomposition is not None:
        fields["decomposition"] = {f.name: getattr(inst.decomposition, f.name)
                                   for f in dataclasses.fields(inst.decomposition)}
    return fields


@settings(max_examples=600, deadline=None, derandomize=True)
@given(valid_docs(), st.data())
def test_whole_field_checks_match_the_per_element_reference(doc, data):
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, doc)
    want = _outcome(reference_from_doc, copy.deepcopy(doc))
    got = _outcome(lambda d: _fields(instance_from_doc(d)), copy.deepcopy(doc))
    assert got[0] == want[0], (doc, got, want)
    assert got[1] == want[1], doc
    if got[0] == "accepted":
        assert _leaf_types(got[1]) == _leaf_types(want[1]), doc


def _base_doc():
    return {
        "mode": "vertex", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "k": 2, "p": 2,
        "part_of": [1, 1, 2, 2], "weight": [1, 2, 1, 1], "bounds": [[1, 2], [1, 1]],
        "allowed": [[1, 2], [2], [1, 2], [1]], "profit": [[0, 1], [1, 0], [2, 2], [3, 1]],
        "decomposition": {"bags": [[0, 1], [1, 2], [2, 3]], "tree_edges": [[0, 1], [1, 2]], "root": 0},
    }


INTEGER_PATHS = [
    ("n",), ("k",), ("p",), ("edges", 1, 0), ("part_of", 2), ("weight", 1), ("allowed", 0, 1), ("bounds", 1, 0),
    ("profit", 3, 1), ("decomposition", "bags", 1, 0), ("decomposition", "tree_edges", 0, 1),
    ("decomposition", "root"),
]


def _apply(path, change):
    """A mutation: ``change`` maps the entry at ``path`` to its new value."""
    def mutation(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = change(doc[last])
    return mutation


def _set(path, value):
    return _apply(path, lambda old: value)


def _reject(change, name):
    return pytest.param(change, False, id=name)


def _accept(change, name):
    return pytest.param(change, True, id=name)


MUTATIONS = [
    *(_reject(_set(path, value), f"{'.'.join(map(str, path))}={value!r}")
      for path in INTEGER_PATHS for value in (True, 1.0, "1", None)),
    *(_accept(_apply(path, Small), f"{'.'.join(map(str, path))}-intenum") for path in INTEGER_PATHS),
    _reject(_set(("edges", 1), [1, 2, 3]), "edge-triple"),
    _reject(_set(("edges", 1), [1]), "edge-single"),
    _reject(_set(("decomposition", "tree_edges", 0), [0]), "tree-edge-single"),
    _reject(_set(("bounds", 0), [1, 2, 0]), "bounds-row-long"),
    _reject(_set(("profit", 2), [0]), "profit-row-short"),
    _reject(_apply(("edges",), lambda edges: [*edges, [1, 0]]), "reversed-duplicate-edge"),
    _accept(_set(("edges", 2), [3, 2]), "reversed-edge"),
    _reject(_apply(("edges",), lambda edges: [*edges, [2, 2]]), "self-loop"),
    _reject(_set(("edges", 0), [0, 4]), "endpoint-above-range"),
    _reject(_set(("edges", 0), [-1, 1]), "endpoint-below-range"),
    _reject(_set(("part_of", 0), 3), "part-above-range"),
    _reject(_set(("part_of", 0), 0), "part-below-range"),
    _reject(_set(("allowed", 1), [3]), "color-above-range"),
    _reject(_set(("allowed", 1), [0, 2]), "color-below-range"),
    _reject(_set(("bounds", 0, 0), -1), "negative-bound"),
    _reject(_set(("allowed", 2), []), "empty-color-list"),
    _reject(_set(("profit",), []), "no-profit-rows"),
    _accept(_set(("edges",), []), "no-edges"),
    _accept(_set(("decomposition", "bags", 0), []), "empty-bag"),
    *(_accept(_apply(("allowed", 0), kind), f"{kind.__name__}-colors") for kind in (set, frozenset, tuple)),
    _reject(_set(("bounds", 1, 0), 2), "row-sum-off"),
]


@pytest.mark.parametrize("change, accepted", MUTATIONS)
def test_each_listed_mutation_matches_the_reference(change, accepted):
    doc = _base_doc()
    change(doc)
    want = _outcome(reference_from_doc, copy.deepcopy(doc))
    got = _outcome(lambda d: _fields(instance_from_doc(d)), copy.deepcopy(doc))
    assert got == want
    assert got[0] == ("accepted" if accepted else "rejected"), got
    if accepted:
        assert _leaf_types(got[1]) == _leaf_types(want[1])


def test_units_are_the_packed_unit_of_each_slot():
    # one shift table per instance gives what PackedBounds.unit gives per slot
    rng = random.Random(29)
    for _ in range(200):
        mode = rng.choice(("vertex", "edge"))
        k, p = rng.randint(1, 5), rng.randint(1, 3)
        inst = random_vertex_instance(rng, k_max=k, p_max=p, w_max=9) if mode == "vertex" else (
            random_edge_instance(rng, k_max=k, p_max=p, w_max=9)
        )
        packing = inst.packing
        want = tuple(
            {c: packing.unit(inst.flat_index(h, c), w) for c in sorted(colors)}
            for h, w, colors in zip(inst.part_of, inst.weight, inst.allowed)
        )
        assert inst.units == want
        assert [list(row) for row in inst.units] == [sorted(colors) for colors in inst.allowed]


def validate_coloring_by_pairs(inst, col):
    """``validate_coloring`` as it was written on the pair list: the first
    pair of ``conflict_pairs`` with equal colors is named."""
    color_of = col.color_of
    for a, b in conflict_pairs(inst):
        if color_of[a] == color_of[b]:
            what = "adjacent vertices" if inst.mode == "vertex" else "edges sharing a vertex"
            return ValidationReport(False, f"properness: {what} {a} and {b} both have color {color_of[a]}")
    for e in range(inst.num_elements):
        if color_of[e] not in inst.allowed[e]:
            return ValidationReport(False, f"list: element {e} has color {color_of[e]}, allowed {sorted(inst.allowed[e])}")
    tally = [[0] * inst.k for _ in range(inst.p)]
    for h, c, w in zip(inst.part_of, color_of, inst.weight):
        tally[h - 1][c - 1] += w
    for h in range(1, inst.p + 1):
        for c in range(1, inst.k + 1):
            got, want = tally[h - 1][c - 1], inst.bounds[h - 1][c - 1]
            if got != want:
                return ValidationReport(False, f"bounds: part {h} color {c} carries weight {got}, required {want}")
    return ValidationReport(True, None)


@st.composite
def colored_instances(draw):
    """An instance whose edges come in a drawn order, each pair either way
    round, and a coloring of it.  Most colorings draw from one to three
    color values, some outside 1..k, so many hold several clashes; the
    rest is the coloring the bounds were made from, half of those with one
    unit of weight moved between two colors of a part's bounds."""
    mode = draw(st.sampled_from(["vertex", "edge"]))
    n = draw(st.integers(1 if mode == "vertex" else 2, 8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, min_size=mode == "edge", max_size=14)) if possible else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    m = n if mode == "vertex" else len(edges)
    k, p = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    part_of = draw(st.lists(st.integers(1, p), min_size=m, max_size=m))
    weight = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    color_of = draw(st.lists(st.integers(1, k), min_size=m, max_size=m))
    bounds = [[0] * k for _ in range(p)]
    for h, w, c in zip(part_of, weight, color_of):
        bounds[h - 1][c - 1] += w
    allowed = [{c, *draw(st.lists(st.integers(1, k), max_size=k))} for c in color_of]
    kind = draw(st.integers(0, 5))
    if kind == 1 and k > 1:
        h, c = part_of[0] - 1, color_of[0] - 1
        bounds[h][c] -= 1
        bounds[h][(c + draw(st.integers(1, k - 1))) % k] += 1
    elif kind > 1:
        values = draw(st.lists(st.integers(-1, k + 1), min_size=1, max_size=3, unique=True))
        color_of = draw(st.lists(st.sampled_from(values), min_size=m, max_size=m))
    inst = ColoringInstance(mode=mode, n=n, edges=tuple(edges), k=k, p=p, part_of=tuple(part_of),
                            weight=tuple(weight), bounds=tuple(map(tuple, bounds)), allowed=tuple(allowed))
    return inst, Coloring(tuple(color_of))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(colored_instances())
def test_check_on_the_masks_names_what_the_pair_list_names(case):
    # properness is read from the conflict masks; the pair named must be the
    # first of the pair list that clashes: in vertex mode the first edge in
    # inst.edges order, in edge mode the least (shared vertex, a, b)
    inst, col = case
    assert validate_coloring(inst, col) == validate_coloring_by_pairs(inst, col)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_colors_outside_the_range_clash_and_then_fail_the_list(mode):
    # two conflicting elements, k = 2: a color value outside 1..k is keyed
    # like any other, so two equal ones clash, and a lone one fails its list
    inst = make(mode=mode, n=2, edges=((0, 1),), k=2, bounds=((1, 1),)) if mode == "vertex" else (
        make(mode=mode, n=3, edges=((0, 1), (1, 2)), k=2, bounds=((1, 1),))
    )
    what = "adjacent vertices" if mode == "vertex" else "edges sharing a vertex"
    for c in (0, -1, 3):
        report = validate_coloring(inst, Coloring((c, c)))
        assert report == ValidationReport(False, f"properness: {what} 0 and 1 both have color {c}")
    for colors in ((0, 1), (-1, 2), (5, 1)):
        report = validate_coloring(inst, Coloring(colors))
        assert report == ValidationReport(False, f"list: element 0 has color {colors[0]}, allowed [1, 2]")


def test_checking_a_large_star_builds_no_pair_list():
    # 3,000 edges at one vertex conflict pairwise: about 4.5M pairs, where
    # the conflict masks take 3,000 masks of 3,000 bits
    m = 3000
    inst = ColoringInstance(mode="edge", n=m + 1, edges=tuple((0, v) for v in range(1, m + 1)), k=m, p=1,
                            part_of=(1,) * m, weight=(1,) * m, bounds=((1,) * m,),
                            allowed=tuple(frozenset({e + 1}) for e in range(m)))
    col = Coloring(tuple(range(1, m + 1)))
    tracemalloc.start()
    try:
        report = validate_coloring(inst, col)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 16 * 2**20
