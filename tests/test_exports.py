"""Every name a dielshape module exports in __all__ resolves, and so does
every function the benchmark's span tracer wraps; the runtime needs numpy
only."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


def test_runtime_loads_no_scipy():
    # scipy is a test dependency only: a solve and the series oracle run in
    # a fresh interpreter without loading any scipy module
    code = """
import sys
import numpy as np
import dielshape.cli, dielshape.oracle, dielshape.shapederiv
from dielshape import oracle, solver
from dielshape.geometry import Material, sphere
mat = Material(eps_i=2.25)
wave = solver.PlaneWave()
sol = solver.solve(sphere(1.0, 3, 8), mat, wave)
solver.far_field(sol, np.eye(3))
oracle.mie_far_field(mat, 1.0, wave, np.eye(3))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(dielshape.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
