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


def _import_faults(tree):
    """(line, fault) of each import below module level and of each import
    of ``random``: the package decides claims exactly and draws no
    sample."""
    top = {id(node) for node in tree.body}
    faults = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            faults.append((node.lineno, "nested"))
        modules = (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import) else [node.module]
        )
        if "random" in modules:
            faults.append((node.lineno, "random"))
    return sorted(faults)


def test_imports_sit_at_module_level_and_none_is_random():
    found = [
        f"{path.name}:{line} {fault}"
        for path in SOURCES
        for line, fault in _import_faults(
            ast.parse(path.read_text(), filename=str(path))
        )
    ]
    assert SOURCES and not found, found


def test_the_import_rule_sees_a_nested_import():
    tree = ast.parse(
        "import os\n\ndef f():\n    from .poly import MultiPoly\n"
        "    import random\n    return MultiPoly, random, os\n"
    )
    assert _import_faults(tree) == [(4, "nested"), (5, "nested"), (5, "random")]


# Public functions and classes that no code in the package reads, each
# with the reason it stays.
KEPT_WITHOUT_A_CALLER = {
    "classify.odd_order_zero_divisor": "the odd-order line witness, for "
    "`classify --group` once it takes groups of odd order",
    "poly.structured_probes": "the probe order; bench/tracing.py counts "
    "its points",
}


def _unread_public_names(trees):
    """``module.name`` of each public module-level function or class that
    no code in ``trees`` (module name -> AST) reads outside its own
    definition, whether as a name or as an attribute."""
    readers = {}
    for module, tree in trees.items():
        for top in tree.body:
            owner = module, getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(owner)
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not readers.get(node.name, set()) - {(module, node.name)}
    }


def test_every_public_function_has_a_caller_an_export_or_a_reason():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in SOURCES
    }
    unread = {
        name for name in _unread_public_names(trees)
        if name.split(".")[1] not in twistdiv.__all__
    }
    assert unread == set(KEPT_WITHOUT_A_CALLER), unread


def test_the_caller_rule_sees_a_dead_function():
    trees = {
        "a": ast.parse(
            "def used():\n    return 1\n\n"
            "def dead(n):\n    return dead(n - 1) if n else used()\n\n"
            "def _private():\n    pass\n"
        ),
        "b": ast.parse("from . import a\n\nclass Unused:\n    x = a.used()\n"),
    }
    assert _unread_public_names(trees) == {"a.dead", "b.Unused"}


# Classes that stay ``@dataclass`` records, each with the reason.  A
# dataclass decoration ``exec``s generated methods at import, about
# 0.5-0.9 ms per class, so every other record is a plain ``__slots__``
# class with only the methods its callers use.
DATACLASSES_KEPT = {
    "poly.SignChangeWitness": "bench/test_bench.py tampers a witness with "
    "`dataclasses.replace`",
}


def _dataclass_names(tree):
    """Names of the classes in ``tree`` decorated with ``dataclass``, bare,
    called or read off the ``dataclasses`` module."""
    def is_dataclass(node):
        if isinstance(node, ast.Call):
            node = node.func
        return (isinstance(node, ast.Name) and node.id == "dataclass") or (
            isinstance(node, ast.Attribute) and node.attr == "dataclass"
        )

    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(is_dataclass(d) for d in node.decorator_list)
    }


def test_only_the_kept_records_are_dataclasses():
    found = {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _dataclass_names(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == set(DATACLASSES_KEPT), found


def test_the_dataclass_rule_sees_a_new_dataclass():
    tree = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n\n"
        "@dataclass\nclass A:\n    x: int\n\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n\n"
        "@dataclasses.dataclass(slots=True)\nclass C:\n    x: int\n\n"
        "class D:\n    __slots__ = ('x',)\n"
    )
    assert _dataclass_names(tree) == {"A", "B", "C"}


# Functions whose results a ``functools`` cache keeps for the life of the
# process, each with the reason the cache stays.  Every other result is
# dropped when its call returns.
CACHES_KEPT = {
    "classify._leibniz_table": "one determinant table per (group, side), "
    "read by every det_polynomial call; n! permutations to list at order n",
    "identities._shapes": "the binary tree shapes of each size, listed "
    "recursively from the smaller sizes",
    "poly._layout": "the layout of each exponent tuple for the sign-change "
    "search; classify's searches share a few dozen exponents per side",
}

CACHE_DECORATORS = ("cache", "lru_cache")


def _cache_uses(tree):
    """(line, name) of each use of ``functools.cache`` or ``lru_cache`` in
    ``tree``, bare, called or read off the module: ``name`` is the
    function it decorates, or None for a use that decorates none."""
    decorating = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in node.decorator_list:
                decorating[id(d.func if isinstance(d, ast.Call) else d)] = node.name
    return sorted(
        (node.lineno, decorating.get(id(node)))
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in CACHE_DECORATORS)
        or (isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS)
    )


def test_every_cache_is_kept_for_a_reason():
    found = {
        f"{path.stem}.{name}" if name else f"{path.stem}:{line}"
        for path in SOURCES
        for line, name in _cache_uses(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == set(CACHES_KEPT), found


def test_the_cache_rule_sees_an_unlisted_cache():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@cache\ndef a(n):\n    return n\n\n"
        "@functools.lru_cache(maxsize=8)\ndef b(n):\n    return n\n\n"
        "@functools.cache\ndef c(n):\n    return n\n\n"
        "d = functools.cache(len)\n\n"
        "def e(n):\n    return n\n"
    )
    assert _cache_uses(tree) == [(4, "a"), (8, "b"), (12, "c"), (16, None)]
