"""Every name a dielshape module exports in __all__ resolves."""

import importlib
import pkgutil

import pytest

import dielshape

MODULES = sorted(m.name for m in pkgutil.iter_modules(dielshape.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dielshape.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dielshape.{name}.__all__ lists undefined names {missing}"
