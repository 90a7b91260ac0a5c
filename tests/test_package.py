"""Package surface: every name an ``__all__`` lists is defined, no module
imports scipy, and only ``TagTree.parents`` and ``save_tree`` validate a tree."""
from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil

import pytest

import tagforest

_MODULES = ["tagforest"] + [
    f"tagforest.{info.name}" for info in pkgutil.iter_modules(tagforest.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from tagforest import *", namespace)
    assert set(tagforest.__all__) <= namespace.keys()



def test_no_module_imports_scipy():
    # scipy is a test dependency only: no import statement in the package
    # may name it, at module level or inside a function
    found = []
    for path in sorted(pathlib.Path(tagforest.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy imported at {found}"


def _validate_tree_calls(node, where, found):
    """Append (file, innermost enclosing function) for each call of validate_tree."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _validate_tree_calls(child, (where[0], child.name), found)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if "validate_tree" in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append(where)
        _validate_tree_calls(child, where, found)


def test_only_the_gate_and_save_tree_call_validate_tree():
    # every other reader of a tree reads TagTree.parents, whose first read
    # validates it; save_tree validates afresh before it writes
    found = []
    for path in sorted(pathlib.Path(tagforest.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _validate_tree_calls(tree, (path.name, "<module>"), found)
    assert sorted(found) == [("io.py", "save_tree"), ("tree.py", "parents")]
