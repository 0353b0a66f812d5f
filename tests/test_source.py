"""Checks on the package source itself."""

import ast
from pathlib import Path

import lbcolor

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
