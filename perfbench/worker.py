"""One benchmark run in its own process: set up, run rounds, check, report.

``run.py`` starts this file once per set-up probe and once for the measured
run, so that ``peak_rss_mb`` belongs to a single run.  The last line printed
on stdout is a JSON record.  Every input the program receives is generated
here from ``--seed``.

A round is one pass of a single closed-loop client (each op is issued after
the previous one returns) through three phases:

* forward  -- distinct seeded star-shaped bodies; each op is build_surface ->
  solve -> far_field.  Every op pays the geometry caches, seven kernel
  matrices and five operator blocks from scratch, so assembly (kernels / bio
  / surfcalc) dominates and the LU solve is a few percent.  This is also the
  per-iterate cost of shape optimisation and of route C.
* sweep    -- the unit sphere assembled once per round (build_system), then
  seeded plane waves, each solved with the assembled operators and checked
  against the Mie series.  This is assemble-once / many right-hand sides:
  incidence time bypasses ``kernels`` and goes to helmholtz_decompose,
  far_field_block and the LU solve.
* jacobian -- one seeded body with one primal solve, then a batch of seeded
  smooth deformation fields with normal and tangential parts.  Route B runs
  on every field (transmission_rhs + one solve); route A (derivative blocks,
  dense surfcalc transforms) and route C (two full solves, the reference)
  run on the first field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import dielshape  # noqa: E402
from dielshape import geometry, oracle, sh, shapederiv, solver  # noqa: E402
from dielshape.errors import DielshapeError  # noqa: E402
from dielshape.geometry import DeformationField, Material  # noqa: E402
from dielshape.grid import ReferenceGrid  # noqa: E402

import spans  # noqa: E402

# (L, nquad) per phase, nquad = 2L + 2.  Smaller than the L = 8-12 of the
# ROADMAP baselines, so that a round takes several seconds.  No phase goes below
# L = 6: at L = 4 the optical-theorem defect of random bodies reaches 1.4e-2,
# and the route A / route C gap of seeded fields reaches 1.3e-4, above its
# gate.  That gap does not change with the difference step h; it is the
# discretisation error of route A and falls with L (one L = 4 field: 1.3e-4,
# 1.8e-5 at L = 5, 2.6e-6 at L = 6, 6.5e-7 at L = 8).
SIZES = {"forward": (6, 14), "sweep": (6, 14), "jacobian": (6, 14)}
PER_ROUND = {"bodies": 2, "incidences": 16, "fields": 12}
TINY_SIZES = {"forward": (3, 8), "sweep": (3, 8), "jacobian": (3, 8)}
TINY_PER_ROUND = {"bodies": 1, "incidences": 1, "fields": 1}
MAX_ROUNDS = 64

BODY_AMPLITUDE = 0.08  # a_lm ~ U(-0.08, 0.08) for l = 2..4
FIELD_SUP = 0.25  # fields are scaled to this sup-norm, so gaps compare
ROUTE_C_H = 1e-3

# Correctness gates; an op above its gate counts as failed.  The energy gate
# catches a broken solve, not the known non-sphere quadrature defect, which
# reaches 1.7e-2 on seeded bodies at L = 6 (150 bodies, dielshape 0.1.0).
GATE_ENERGY = 5e-2
GATE_MIE = 1e-6
GATE_AC = 1e-4


def _gauss_direction_grid(ntheta=12, nphi=24):
    x, w = np.polynomial.legendre.leggauss(ntheta)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    th, ph = np.meshgrid(np.arccos(x), phi, indexing="ij")
    dirs = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], -1)
    weights = np.outer(w, np.full(nphi, 2.0 * np.pi / nphi))
    return dirs.reshape(-1, 3), weights.ravel()


def _unit(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _wave(rng):
    """Plane wave with a random direction and an orthogonal polarization."""
    d = _unit(rng, 1)[0]
    p = np.cross(d, rng.normal(size=3))
    return solver.PlaneWave(tuple(d), tuple(p / np.linalg.norm(p)))


def _body(rng):
    """Radial SH coefficients of rho = 1 + sum_{l=2..4} a_lm Y_lm."""
    c = np.zeros(sh.num_coeffs(4))
    c[0] = np.sqrt(4.0 * np.pi)
    c[4:] = rng.uniform(-BODY_AMPLITUDE, BODY_AMPLITUDE, size=c.size - 4)
    return c


def _field(rng, grid):
    """Smooth field, components of degree <= 2, normal and tangential parts."""
    coef = np.zeros((3, grid.ncoef(grid.Lmax)))
    coef[:, :9] = rng.uniform(-1.0, 1.0, size=(3, 9))
    coef *= FIELD_SUP / DeformationField(grid, coef).sup_norm
    return DeformationField(grid, coef)


class Inputs:
    """Every generated input of one run; round r depends on seed and r only."""

    def __init__(self, seed, sizes, per_round, rounds):
        jac_grid = ReferenceGrid.get(*sizes["jacobian"])
        for phase in ("forward", "sweep"):
            ReferenceGrid.get(*sizes[phase])
        fwd, swp, jac, dirs = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4))
        digest = hashlib.sha256()

        self.far_grid, self.far_weights = _gauss_direction_grid()
        self.sweep_dirs = _unit(dirs, 16)
        self.jac_dirs = _unit(dirs, 12)
        self.forward, self.sweep, self.jacobian = [], [], []
        for _ in range(rounds):
            bodies = [(_body(fwd), _wave(fwd)) for _ in range(per_round["bodies"])]
            waves = [_wave(swp) for _ in range(per_round["incidences"])]
            body, wave = _body(jac), _wave(jac)
            fields = [_field(jac, jac_grid) for _ in range(per_round["fields"])]
            self.forward.append(bodies)
            self.sweep.append(waves)
            self.jacobian.append((body, wave, fields))
            for c, w in bodies + [(body, wave)]:
                digest.update(c.tobytes() + repr(w).encode())
            digest.update(repr(waves).encode())
            for xi in fields:
                digest.update(xi.coef.tobytes())
        digest.update(self.sweep_dirs.tobytes() + self.jac_dirs.tobytes())
        self.sha256 = digest.hexdigest()


class Run:
    """Executes rounds, times each op, applies the correctness gates."""

    def __init__(self, inputs, sizes, tracer=None):
        self.inp = inputs
        self.sizes = sizes
        self.mat = Material(eps_i=2.25, omega=1.0)
        self.tracer = tracer
        # samples[kind][r]: op times of that kind in round r
        self.samples = {k: [] for k in ("solve", "assemble", "incidence", "primal", "routeA", "routeB", "routeC")}
        self.round_s = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.acc = {"energy_defect": [], "mie_rel_l2": [], "gap_AB": [], "gap_AC": []}
        self._op_id = 0
        self._round_wall = 0.0

    # -- op bookkeeping ------------------------------------------------------
    def _timed(self, kind, fn):
        """Run one op; return its result, or None if it raised a known error."""
        self.attempted += 1
        self._op_id += 1
        try:
            if self.tracer is None:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
            else:
                with self.tracer.op(self._op_id, kind):
                    t0 = time.perf_counter()
                    out = fn()
                    dt = time.perf_counter() - t0
        except (DielshapeError, np.linalg.LinAlgError) as exc:
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        self.samples[kind][-1].append(dt)
        self._round_wall += dt
        return out

    def _fail(self, kind, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}")

    def _finite(self, kind, *arrays):
        if all(np.all(np.isfinite(a)) for a in arrays):
            return True
        self._fail(kind, "non-finite output")
        return False

    def _gate(self, kind, value, gate):
        if value > gate or not np.isfinite(value):
            self._fail(kind, f"{value:.3e} above gate {gate:.1e}")

    def energy_defect(self, F, wave):
        """|sigma_ext - sigma_sca| / sigma_sca; F holds the grid, then d."""
        ext = np.imag(wave.p @ F[-1]) / self.mat.kappa_e
        sca = self.inp.far_weights @ np.sum(np.abs(F[:-1]) ** 2, axis=1) / (16.0 * np.pi**2)
        return float(abs(ext - sca) / sca)

    def mie_error(self, F, wave, dirs):
        ref = oracle.mie_far_field(self.mat, 1.0, wave, dirs)
        return float(np.linalg.norm(F - ref) / np.linalg.norm(ref))

    # -- phases ----------------------------------------------------------------
    def forward(self, r):
        L, nq = self.sizes["forward"]
        for coef, wave in self.inp.forward[r]:
            dirs = np.vstack([self.inp.far_grid, wave.d])

            def op():
                S = geometry.build_surface(coef, L, nq)
                return solver.far_field(solver.solve(S, self.mat, wave), dirs)

            F = self._timed("solve", op)
            if F is not None and self._finite("solve", F):
                ed = self.energy_defect(F, wave)
                self._gate("solve", ed, GATE_ENERGY)
                self.acc["energy_defect"].append(ed)

    def sweep(self, r):
        S = geometry.sphere(1.0, *self.sizes["sweep"])
        ops = self._timed("assemble", lambda: solver.build_system(S, self.mat))
        if ops is None:
            return
        dirs = self.inp.sweep_dirs
        for wave in self.inp.sweep[r]:
            F = self._timed(
                "incidence",
                lambda: solver.far_field(solver.solve(S, self.mat, wave, ops=ops), dirs),
            )
            if F is not None and self._finite("incidence", F):
                err = self.mie_error(F, wave, dirs)
                self._gate("incidence", err, GATE_MIE)
                self.acc["mie_rel_l2"].append(err)

    def jacobian(self, r):
        coef, wave, fields = self.inp.jacobian[r]
        dirs = self.inp.jac_dirs
        S = geometry.build_surface(coef, *self.sizes["jacobian"])
        sol = self._timed("primal", lambda: solver.solve(S, self.mat, wave))
        if sol is None:
            return
        Fn = float(np.linalg.norm(solver.far_field(sol, dirs)))
        dB = []
        for xi in fields:
            B = self._timed(
                "routeB", lambda: shapederiv.d_solution_routeB(S, self.mat, wave, xi, dirs, sol=sol)
            )
            dB.append(B if B is not None and self._finite("routeB", B.dE_far) else None)
        xi = fields[0]
        A = self._timed(
            "routeA", lambda: shapederiv.d_solution_routeA(S, self.mat, wave, xi, dirs, sol=sol)
        )
        C = self._timed(
            "routeC", lambda: shapederiv.d_solution_routeC(S, self.mat, wave, xi, dirs, h=ROUTE_C_H)
        )
        if A is None or not self._finite("routeA", A.dE_far):
            return
        if dB[0] is not None:
            self.acc["gap_AB"].append(float(np.linalg.norm(A.dE_far - dB[0].dE_far) / Fn))
        if C is not None and self._finite("routeC", C.dE_far):
            gap = float(np.linalg.norm(A.dE_far - C.dE_far) / Fn)
            self._gate("routeC", gap, GATE_AC)
            self.acc["gap_AC"].append(gap)

    def round(self, r):
        self._round_wall = 0.0
        for v in self.samples.values():
            v.append([])
        self.forward(r)
        self.sweep(r)
        self.jacobian(r)
        self.round_s.append(self._round_wall)

    # -- fixed reference case ----------------------------------------------------
    def reference(self):
        """Accuracy on fixed inputs, so the accuracy columns depend on the code only.

        Mie error of the default plane wave on the unit sphere over the 12 x 24
        direction grid; energy defect on the wobbly test-fixture body
        rho = 1 + 0.25 Y20 + 0.15 Y31; route gaps on that body for the
        fixture field ``generic_xi`` in the directions of
        ``dielshape validate --suite shapederiv``.  Untimed.
        """
        wobbly = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        wave = solver.PlaneWave()
        out = {}
        self.attempted += 3
        try:
            S = geometry.sphere(1.0, *self.sizes["sweep"])
            F = solver.far_field(solver.solve(S, self.mat, wave), self.inp.far_grid)
            if self._finite("reference.mie", F):
                out["mie_rel_l2"] = err = self.mie_error(F, wave, self.inp.far_grid)
                self._gate("reference.mie", err, GATE_MIE)
        except (DielshapeError, np.linalg.LinAlgError) as exc:
            self._fail("reference.mie", f"{type(exc).__name__}: {exc}")
        try:
            S = geometry.build_surface(wobbly, *self.sizes["forward"])
            F = solver.far_field(solver.solve(S, self.mat, wave), np.vstack([self.inp.far_grid, wave.d]))
            if self._finite("reference.energy", F):
                out["energy_defect"] = ed = self.energy_defect(F, wave)
                self._gate("reference.energy", ed, GATE_ENERGY)
        except (DielshapeError, np.linalg.LinAlgError) as exc:
            self._fail("reference.energy", f"{type(exc).__name__}: {exc}")
        try:
            S = geometry.build_surface(wobbly, *self.sizes["jacobian"])
            g = S.grid
            coef = np.zeros((3, g.ncoef(g.Lmax)))
            coef[0, 6], coef[1, 10], coef[2, 2], coef[2, 0] = 0.3, 0.2, 0.25, 0.1
            xi = DeformationField(g, coef)
            dirs = _unit(np.random.default_rng(2), 12)
            sol = solver.solve(S, self.mat, wave)
            A = shapederiv.d_solution_routeA(S, self.mat, wave, xi, dirs, sol=sol)
            B = shapederiv.d_solution_routeB(S, self.mat, wave, xi, dirs, sol=sol)
            C = shapederiv.d_solution_routeC(S, self.mat, wave, xi, dirs, h=ROUTE_C_H)
            if self._finite("reference.routes", A.dE_far, B.dE_far, C.dE_far):
                Fn = np.linalg.norm(solver.far_field(sol, dirs))
                out["gap_AB"] = float(np.linalg.norm(A.dE_far - B.dE_far) / Fn)
                out["gap_AC"] = float(np.linalg.norm(A.dE_far - C.dE_far) / Fn)
                self._gate("reference.routes", out["gap_AC"], GATE_AC)
        except (DielshapeError, np.linalg.LinAlgError) as exc:
            self._fail("reference.routes", f"{type(exc).__name__}: {exc}")
        return out


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "src_lines": src_lines,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-time", type=float, required=True, help="time.time() when started")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    sizes = TINY_SIZES if args.tiny else SIZES
    per_round = TINY_PER_ROUND if args.tiny else PER_ROUND
    max_rounds = 1 if args.tiny else MAX_ROUNDS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.begin_setup()
    inputs = Inputs(args.seed, sizes, per_round, max_rounds)
    if tracer is not None:
        tracer.end_setup()
    setup_s = time.time() - args.spawn_time
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = Run(inputs, sizes, tracer)
    start = time.perf_counter()
    rounds = 0
    while rounds < max_rounds and (rounds == 0 or time.perf_counter() - start < args.seconds):
        run.round(rounds)
        rounds += 1
    layers = None
    if tracer is not None:
        tracer.uninstall()
        op_wall = sum(run.round_s)
        layers = tracer.per_layer(rounds, op_wall, spans.overhead_per_span())
        layers["_op_wall_per_round"] = op_wall / rounds
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.span_records()))
    reference = run.reference()

    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "rounds": rounds,
                "attempted": run.attempted,
                "failed": run.failed,
                "failures": run.failures,
                "samples": run.samples,
                "round_s": run.round_s,
                "seeded_accuracy": run.acc,
                "reference_accuracy": reference,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "inputs_sha256": inputs.sha256,
                "dielshape_version": dielshape.__version__,
                "layers": layers,
                "env": environment(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
