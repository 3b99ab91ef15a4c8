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


def _unused_imports(tree):
    """Names a module imports but never reads; a name listed in
    ``__all__`` counts as read, since the module exports it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in used}


def test_no_unused_imports_in_the_package():
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        for name, line in _unused_imports(
            ast.parse(path.read_text(), filename=str(path))
        ).items()
    ]
    assert SOURCES and not found, found


def test_the_unused_import_rule_sees_a_dead_import():
    tree = ast.parse(
        "import os\nfrom .poly import MultiPoly, symbolic_det\n"
        "__all__ = ['symbolic_det']\nprint(os.sep)\n"
    )
    assert _unused_imports(tree) == {"MultiPoly": 2}
