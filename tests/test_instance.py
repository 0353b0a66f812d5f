import ast
import dataclasses
import inspect
import re
import textwrap
from functools import cached_property

import pytest

from lbcolor import (
    Coloring,
    ColoringInstance,
    InstanceFormatError,
    UsageError,
    instance_from_doc,
    validate_coloring,
)
from lbcolor.instance import RawDecomposition


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
