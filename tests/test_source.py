"""Checks on the package source itself."""

import ast
from pathlib import Path

import lbcolor
from lbcolor.packed import PackedBounds

SOURCES = sorted(Path(lbcolor.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips asserts, so a check the package relies on must raise;
    # invariants that only tests need live in the tests
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 5
    assert found == []


def _names_int(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _is_int_type_check(node) -> bool:
    """``isinstance(x, int)``, a set of types holding int (as in
    ``set(map(type, seq)) <= {int}``), or a comparison with int (as in
    ``type(x) is int``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
        kinds = node.args[1] if len(node.args) == 2 else None
        names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(_names_int(k) for k in names)
    if isinstance(node, ast.Set):
        return any(_names_int(k) for k in node.elts)
    if isinstance(node, ast.Compare):
        return any(_names_int(k) for k in (node.left, *node.comparators))
    return False


INTEGER_HELPERS = ("_is_int", "_all_ints")


def test_integer_checks_go_through_one_helper():
    # isinstance(x, int) accepts JSON booleans; instance._is_int is the one
    # integer check of a value, shared by the model types and the generator
    # sources, and instance._all_ints the one whole-field check, which tests
    # the entries' types at once and falls back to _is_int
    found, helpers, inside = [], [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in INTEGER_HELPERS:
                helpers.append(node.name)
                exempt.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if _is_int_type_check(node):
                if id(node) in exempt:
                    inside += 1
                else:
                    found.append(f"{path.name}:{node.lineno}")
    assert sorted(helpers) == sorted(INTEGER_HELPERS)
    assert inside == 2  # isinstance in _is_int, {int} in _all_ints
    assert found == []


def _calls_itself(func) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == func.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and getattr(callee.value, "id", None) == "self"
            ):
                return True
    return False


def test_package_has_no_recursive_functions():
    # components, cotrees and decompositions can be deeper than Python's
    # recursion limit, so every walk keeps an explicit stack
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
    ]
    assert found == []


def _call_sites(name, owner, owner_file):
    """(calls of ``name`` inside function ``owner`` of ``owner_file``, the
    places of the calls anywhere else in the package)."""
    inside, outside = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == owner and path.name == owner_file:
                exempt.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            callee = node.func if isinstance(node, ast.Call) else None
            if name in (getattr(callee, "id", None), getattr(callee, "attr", None)):
                if id(node) in exempt:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    return inside, outside


def test_nice_decompositions_are_made_only_by_nice_from_tree():
    # one route from a tree of bags to the DP: every NiceDecomposition is
    # constructed inside treewidth.nice_from_tree
    assert _call_sites("NiceDecomposition", "nice_from_tree", "treewidth.py") == (1, [])


def test_vertex_tables_are_built_only_by_dp_vertex():
    # one route from the tables to a verdict: the target check and the
    # witness walk exist once, in the DP body that dp_vertex and dp_edge share
    assert _call_sites("_vertex_tables", "_conflict_dp", "treewidth.py") == (1, [])


def _called(node, name: str) -> bool:
    callee = node.func if isinstance(node, ast.Call) else None
    return name in (getattr(callee, "id", None), getattr(callee, "attr", None))


def _layers_a_sum(node) -> bool:
    """``x.append(best_sums(...))``: one step of a layered sum."""
    if not _called(node, "append"):
        return False
    args = [arg.value if isinstance(arg, ast.NamedExpr) else arg for arg in node.args]
    return any(_called(arg, "best_sums") for arg in args)


def _walks_layers_back(node) -> bool:
    """A loop over ``zip(reversed(...), ...)`` that calls first_predecessor:
    a walk back down a list of layers."""
    return (
        isinstance(node, ast.For)
        and _called(node.iter, "zip")
        and any(_called(arg, "reversed") for arg in node.iter.args)
        and any(_called(sub, "first_predecessor") for sub in ast.walk(node))
    )


def test_one_layered_kernel():
    # decide is maximize over zero profits and choose layers zero-profit
    # rows, so no set-valued sum is left; PackedBounds.layers and
    # PackedBounds.split are the only layered sum and the only walk back,
    # and no module outside packed.py defines or inlines another
    assert not hasattr(PackedBounds, "sums")
    sums, walks = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if _layers_a_sum(node):
                sums.append(path.name)
            if _walks_layers_back(node):
                walks.append(path.name)
    assert sums == ["packed.py"] and walks == ["packed.py"]


def test_no_json_call_indents():
    # the standard library indents only with its pure-Python encoder, several
    # times slower than its C one and leaving a reference cycle per call;
    # every indented document goes through codec._indented_json instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if (_called(node, "dump") or _called(node, "dumps")) and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert len(SOURCES) > 5
    assert found == []


def test_no_module_names_the_pair_list():
    # the conflict masks are the one representation of the conflicts: the
    # edge-mode pair list, O(sum of deg^2) pairs, lives on only in the tests
    named = [path.name for path in SOURCES if "conflict_pairs" in path.read_text(encoding="utf-8")]
    assert len(SOURCES) > 5
    assert named == []


CLASS_TESTS = ("split_partition_masks", "complete_bipartite_masks", "_cotree_or_prime")


def test_class_tests_are_run_only_by_the_instance_caches():
    # one recognition path: each class test runs inside a cached property of
    # ColoringInstance, which the report, dispatch and the solvers all read
    inside, outside = 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exempt = set()
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "ColoringInstance" and path.name == "instance.py":
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and any(
                        getattr(d, "id", None) == "cached_property" for d in node.decorator_list
                    ):
                        exempt.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            callee = node.func if isinstance(node, ast.Call) else None
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name in CLASS_TESTS:
                if id(node) in exempt:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert inside == len(CLASS_TESTS)
    assert outside == []
