"""Rules on the package source itself."""

import ast
from pathlib import Path

import twistdiv

SOURCES = sorted(Path(twistdiv.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert``, so argument and invariant checks
    raise explicitly (``raise AssertionError`` stays allowed)."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
