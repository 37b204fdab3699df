"""Every name a dielshape module exports in __all__ resolves, and so does
every function the benchmark's span tracer wraps."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import dielshape
from dielshape.grid import ReferenceGrid

MODULES = sorted(m.name for m in pkgutil.iter_modules(dielshape.__path__))
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"dielshape.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"dielshape.{name}.__all__ lists undefined names {missing}"


def test_traced_names_resolve():
    # `perfbench/run.py --trace 1` wraps these by name; grid.build stands for
    # ReferenceGrid.__init__ and the other grid names are ReferenceGrid methods.
    missing = []
    for mod, fns in _traced_layers().items():
        for fn in fns:
            if mod == "grid":
                found = ReferenceGrid.__dict__.get("__init__" if fn == "build" else fn)
            else:
                found = getattr(importlib.import_module(f"dielshape.{mod}"), fn, None)
            if not callable(found):
                missing.append(f"{mod}.{fn}")
    assert not missing, f"traced names missing from dielshape: {missing}"
