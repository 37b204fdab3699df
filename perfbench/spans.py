"""Span tracing of dielshape's public functions, installed from outside.

The benchmark wraps the functions below without touching the package: every
module-level binding of a wrapped function object is rebound, in every
loaded ``dielshape`` module (``kernels`` imports ``surface_divergence`` and
``d_normal`` by name, ``shapederiv`` imports ``deform``), and the
``ReferenceGrid`` methods are replaced on the class.  Spans are kept in
memory and recorded only while a timed op or the set-up is open, so the
calls the benchmark makes to check outputs are not traced.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
import weakref
from collections import defaultdict

# module -> public functions wrapped; grid.build is ReferenceGrid.__init__
LAYERS = {
    "grid": ("build", "dtheta", "dphi"),
    "geometry": ("build_surface", "deform"),
    "surfcalc": ("surface_gradient", "helmholtz_decompose", "d_surface_operator"),
    "kernels": (
        "pair_geometry",
        "probe_geometry",
        "vmat",
        "kprime_mat",
        "kprime_src_mat",
        "dvmat",
        "dkprime_mat",
        "dkprime_src_mat",
    ),
    "bio": (
        "electric_block",
        "magnetic_block",
        "static_block",
        "d_electric_block",
        "d_magnetic_block",
        "d_static_block",
        "far_field_block",
        "d_far_field_block",
    ),
    "solver": ("build_system", "solve", "far_field", "incident_traces"),
    "shapederiv": (
        "d_solution_routeA",
        "d_solution_routeB",
        "d_solution_routeC",
        "transmission_rhs",
        "incident_trace_derivative",
    ),
}
KERNEL_MATRICES = {"vmat", "kprime_mat", "kprime_src_mat", "dvmat", "dkprime_mat", "dkprime_src_mat"}
OP_MODULE = "bench"  # spans opened by the benchmark around each timed op
SETUP = "setup"  # op id of the set-up phase, where the grids are built


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count", "lower"))
            out.append((f"{mod}.{fn}.s", "s", "lower"))
    for mod in (*LAYERS, OP_MODULE):
        out.append((f"{mod}.self_s", "s", "lower"))
    out += [
        ("grid.transform_cols", "count", "lower"),
        ("grid.transform_gflop", "GFLOP", "lower"),
        ("kernels.distinct_ratio", "ratio", "higher"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return out


class Tracer:
    """Collects (name, start, end, parent, op) spans around wrapped calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._op = None
        self._patched = []  # (owner, attribute, original)
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        self.transform_cols = 0
        self.transform_flop = 0.0
        self.kernel_calls = 0
        self.kernel_keys = set()
        self._tracked = ()  # classes whose instances key kernel calls

    # -- spans -------------------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id, kind):
        """Marks one timed benchmark op; wrapped calls inside it are traced."""
        self._op = op_id
        idx = self._enter(f"{OP_MODULE}.{kind}")
        try:
            yield
        finally:
            self._exit(idx)
            self._op = None

    def begin_setup(self):
        self._op = SETUP

    def end_setup(self):
        self._op = None

    def _serial(self, obj):
        s = self._serials.get(obj)
        if s is None:
            s = self._serials[obj] = next(self._next_serial)
        return s

    def _count(self, mod, fn, args):
        if mod == "grid" and fn in ("dtheta", "dphi"):
            grid, f = args[0], args[1]
            cols = 1
            for n in f.shape[1:]:
                cols *= n
            real_cols = cols * (2 if f.dtype.kind == "c" else 1)
            self.transform_cols += cols
            self.transform_flop += 2.0 * grid.nnodes * grid.nnodes * real_cols
        elif mod == "kernels" and fn in KERNEL_MATRICES:
            key = [fn]
            for a in args:
                if isinstance(a, self._tracked):
                    key.append(("obj", self._serial(a)))
                elif isinstance(a, float):
                    key.append(a)
            self.kernel_calls += 1
            self.kernel_keys.add(tuple(key))

    def _wrap(self, mod, fn, orig):
        name = f"{mod}.{fn}"
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return orig(*args, **kwargs)
            tracer._count(mod, fn, args)
            idx = tracer._enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._exit(idx)

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", fn)
        return traced

    # -- installation --------------------------------------------------------
    def install(self):
        """Wrap every function in LAYERS and rebind all references to it."""
        import dielshape
        from dielshape.geometry import DeformationField, Surface
        from dielshape.grid import ReferenceGrid

        self._tracked = (Surface, DeformationField)

        for attr, fn in (("__init__", "build"), ("dtheta", "dtheta"), ("dphi", "dphi")):
            orig = ReferenceGrid.__dict__[attr]
            self._patched.append((ReferenceGrid, attr, orig))
            setattr(ReferenceGrid, attr, self._wrap("grid", fn, orig))

        holders = [m for name, m in sys.modules.items() if name.split(".")[0] == "dielshape"]
        for mod, fns in LAYERS.items():
            if mod == "grid":
                continue
            module = getattr(dielshape, mod)
            for fn in fns:
                orig = getattr(module, fn)
                wrapped = self._wrap(mod, fn, orig)
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            self._patched.append((holder, key, orig))
                            setattr(holder, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- derived metrics -------------------------------------------------------
    def per_layer(self, rounds, op_wall_s, overhead_per_span):
        """Per-layer metrics from the recorded spans.

        Spans of timed ops are reported per round; set-up spans (the grid
        builds) once per run, since set-up happens once.
        """
        per = 1.0 / max(rounds, 1)
        calls = defaultdict(float)
        incl = defaultdict(float)
        child = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            w = 1.0 if op == SETUP else per
            calls[name] += w
            incl[name] += (t1 - t0) * w
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        for i, (name, t0, t1, _, op) in enumerate(self.spans):
            if op != SETUP:
                self_s[name.split(".")[0]] += ((t1 - t0) - child[i]) * per

        out = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
                out[f"{mod}.{fn}.s"] = incl[f"{mod}.{fn}"]
        for mod in (*LAYERS, OP_MODULE):
            out[f"{mod}.self_s"] = self_s[mod]
        out["grid.transform_cols"] = self.transform_cols * per
        out["grid.transform_gflop"] = self.transform_flop * per / 1e9
        out["kernels.distinct_ratio"] = len(self.kernel_keys) / max(self.kernel_calls, 1)
        n_timed = sum(1 for sp in self.spans if sp[4] != SETUP)
        out["trace_overhead"] = n_timed * overhead_per_span / max(op_wall_s, 1e-12)
        return out

    def span_records(self):
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "op": op}
            for n, t0, t1, p, op in self.spans
        ]


def overhead_per_span(n=20000):
    """Seconds one traced call adds over a plain call, measured in-process."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("calib", "noop", noop)
    best = float("inf")
    with tracer.op(-1, "calibration"):
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(n):
                noop()
            t2 = time.perf_counter()
            best = min(best, ((t1 - t0) - (t2 - t1)) / n)
    return max(best, 0.0)
