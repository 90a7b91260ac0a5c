"""Package surface: every name an ``__all__`` lists is defined."""
from __future__ import annotations

import importlib
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

