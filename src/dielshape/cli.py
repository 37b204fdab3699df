"""Configuration-driven command line interface.

Subcommands
-----------
solve     solve the scattering problem, write the far field as CSV
dsolve    far-field shape derivative by the requested routes (A, B, C)
validate  run a named suite of dielshape.checks, report pass/fail per property
mie       series far field of the dielectric ball

All commands read a single JSON configuration file (``--config``).  Output is
a summary JSON document plus CSV tables with columns
theta, phi, re_Ex, im_Ex, re_Ey, im_Ey, re_Ez, im_Ez.  Every accuracy number
comes from dielshape.checks; one without a value, such as an error relative
to a zero field, is written as null.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
environment variable DIELSHAPE_NUM_THREADS (an integer >= 1) bounds the
BLAS/OpenMP thread count; it must be set before numpy is loaded, which is
why the numeric modules are imported lazily inside the commands and why the
package's re-exports resolve lazily.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, DielshapeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

THREAD_ENV = "DIELSHAPE_NUM_THREADS"


def _apply_thread_limit():
    n = os.environ.get(THREAD_ENV)
    if n is None:
        return
    try:
        count = int(n)
    except ValueError as exc:
        raise ConfigError(f"{THREAD_ENV} must be an integer, got {n!r}") from exc
    if count < 1:
        # OpenBLAS reads 0 as "all cores", so it would bound nothing
        raise ConfigError(f"{THREAD_ENV} must be at least 1, got {n!r}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, n)


# -- configuration ---------------------------------------------------------
def load_config(path) -> dict:
    def finite(text, kind=float):
        # NaN, Infinity and literals beyond float range, such as 1e400 or a
        # 400-digit integer, all read as non-finite floats
        if not math.isfinite(float(text)):
            raise ConfigError(f"config file {path} holds the non-finite number {text}")
        return kind(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(
                fh, parse_float=finite, parse_constant=finite,
                parse_int=lambda text: finite(text, int),
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _get(cfg, key, default=None, required=False):
    if key not in cfg:
        if required:
            raise ConfigError(f"missing config key {key!r}")
        return default
    return cfg[key]


def _section(cfg, key):
    """Optional config section; it must be a JSON object."""
    s = _get(cfg, key, {})
    if not isinstance(s, dict):
        raise ConfigError(f"{key!r} must be an object")
    return s


def _number(section, key, default, kind=float):
    """section[key] (or the default) converted by kind, as a ConfigError if it
    is a boolean, not numeric, or for kind int not integral."""
    v = section.get(key, default)
    try:
        x = kind(v)
        if isinstance(v, bool) or x != float(v):  # true, or 3.7 read as an int
            raise ValueError(v)
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key!r} must be {what}, got {v!r}") from exc
    return x


def _numbers(section, key, default):
    """section[key] (or the default) as a list, each entry read by _number."""
    v = section.get(key, default)
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{key!r} must be a list of numbers, got {v!r}")
    return [_number({key: x}, key, None) for x in v]


def _coefficients(cmap):
    """A {"n,m": value} coefficient map, each value read by _number."""
    cmap = dict(cmap)
    return {k: _number(cmap, k, None) for k in cmap}


def _step(cfg):
    """Route C's finite-difference step h, finite and positive."""
    h = _number(cfg, "h", 1e-3)
    if not 0 < h < math.inf:
        raise ConfigError(f"'h' must be a finite positive number, got {h!r}")
    return h


def build_material(cfg):
    from .geometry import Material

    m = _section(cfg, "material")
    allowed = {"eps_i", "eps_e", "mu_i", "mu_e", "omega", "eta"}
    bad = set(m) - allowed
    if bad:
        raise ConfigError(f"unknown material keys {sorted(bad)}")
    try:
        return Material(**{k: _number(m, k, None) for k in m})
    except ValueError as exc:
        raise ConfigError(f"invalid material: {exc}") from exc


def build_wave(cfg):
    from .solver import PlaneWave

    w = _section(cfg, "wave")
    try:
        return PlaneWave(
            direction=_numbers(w, "direction", (0.0, 0.0, 1.0)),
            polarization=_numbers(w, "polarization", (1.0, 0.0, 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid wave: {exc}") from exc


def build_discretization(cfg):
    d = _section(cfg, "discretization")
    L = _number(d, "L", 12, int)
    nquad = _number(d, "nquad", 2 * L + 2, int)
    if L < 1 or nquad < 2:
        raise ConfigError(f"invalid discretization L={L}, nquad={nquad}")
    nmie = None if d.get("N_mie") is None else _number(d, "N_mie", None, int)
    if nmie is not None and nmie < 1:
        raise ConfigError(f"'N_mie' must be at least 1, got {nmie}")
    return L, nquad, nmie


def _sphere_radius(s):
    """Radius of a sphere spec ("sphere", {"type": "sphere", "radius": r} or
    {"radius": r}), None for {"radial": ...}; any other spec (one that mixes
    "radial" with "type" or "radius" too) is a ConfigError."""
    if s == "sphere":
        return 1.0
    if not isinstance(s, dict):
        raise ConfigError("'surface' must be \"sphere\" or an object")
    if s.get("type", "sphere") != "sphere":
        raise ConfigError(f"unknown surface type {s['type']!r}")
    if "radial" in s and ("type" in s or "radius" in s):
        raise ConfigError("'radial' cannot be combined with 'type' or 'radius'")
    if "radial" in s:
        return None
    if "type" in s or "radius" in s:
        return _number(s, "radius", 1.0)
    raise ConfigError(f"unrecognized surface specification {s!r}")


def build_surface(cfg, L, nquad):
    from . import geometry
    from .errors import NonPositiveRadial, ResolutionTooLow

    s = _get(cfg, "surface", "sphere")
    radius = _sphere_radius(s)
    try:
        if radius is not None:
            return geometry.sphere(radius, L, nquad)
        return geometry.build_surface(_coefficients(s["radial"]), L, nquad)
    except (NonPositiveRadial, ResolutionTooLow, TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid surface: {exc}") from exc


def build_deformation(cfg, surface):
    from .geometry import DeformationField

    d = _get(cfg, "deformation", required=True)
    if d == "radial":
        return DeformationField.radial(surface)
    if not isinstance(d, dict):
        raise ConfigError("'deformation' must be \"radial\" or an object")
    try:
        return _deformation_field(d, surface.grid)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid deformation: {exc}") from exc


def _deformation_field(d, grid):
    from . import sh
    from .geometry import DeformationField

    if "translation" in d:
        vec = _numbers(d, "translation", None)
        if len(vec) != 3:
            raise ConfigError("'translation' needs a 3-vector")
        return DeformationField.translation(grid, vec)
    if "radial_profile" in d:
        prof = sh.coeff_dict_to_vector(_coefficients(d["radial_profile"]), grid.Lmax)
        return DeformationField.radial_profile(grid, prof)
    if "components" in d:
        import numpy as np

        comps = d["components"]
        if len(comps) != 3:
            raise ConfigError("'components' needs three coefficient maps")
        coef = np.zeros((3, grid.ncoef(grid.Lmax)))
        for a, cmap in enumerate(comps):
            vec = sh.coeff_dict_to_vector(_coefficients(cmap), grid.Lmax)
            coef[a, : vec.shape[0]] = vec
        return DeformationField(grid, coef)
    raise ConfigError(f"unrecognized deformation specification {d!r}")


def direction_grid(cfg):
    import numpy as np

    d = _section(cfg, "directions")
    ntheta = _number(d, "n_theta", 10, int)
    nphi = _number(d, "n_phi", 20, int)
    if ntheta < 1 or nphi < 1:
        raise ConfigError("direction grid sizes must be positive")
    theta = (np.arange(ntheta) + 0.5) * np.pi / ntheta
    phi = np.arange(nphi) * 2.0 * np.pi / nphi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    t, p = T.ravel(), P.ravel()
    dirs = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1)
    return t, p, dirs


# -- output ----------------------------------------------------------------
def write_far_csv(path, theta, phi, F):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["theta", "phi", "re_Ex", "im_Ex", "re_Ey", "im_Ey", "re_Ez", "im_Ez"]
        )
        for t, p, Fi in zip(theta, phi, F):
            row = [t, p] + [x for z in Fi for x in (z.real, z.imag)]
            w.writerow([f"{x:.17g}" for x in row])


def write_summary(outdir, summary):
    with open(Path(outdir) / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg):
    out = _get(cfg, "output", ".")
    if not isinstance(out, str):
        raise ConfigError("'output' must be a path string")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands --------------------------------------------------------------
def cmd_solve(cfg):
    import numpy as np

    from . import checks, oracle, solver

    mat = build_material(cfg)
    wave = build_wave(cfg)
    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    theta, phi, dirs = direction_grid(cfg)
    out = _outdir(cfg)

    sol = solver.solve(S, mat, wave)
    F = solver.far_field(sol, dirs)
    write_far_csv(out / "far_field.csv", theta, phi, F)
    summary = {
        "command": "solve",
        "L": L,
        "nquad": nquad,
        "residual": sol.residual,
        "condition_number": sol.ops.condition,
        "far_field_csv": "far_field.csv",
        "far_field_max": float(np.abs(F).max()),
    }
    if S.radial is not None and np.allclose(S.radial[1:], 0.0):
        radius = float(S.radial[0] / np.sqrt(4.0 * np.pi))
        Fm = oracle.mie_far_field(mat, radius, wave, dirs)
        summary["mie_relative_l2_error"] = checks.relative_l2(F - Fm, Fm)
    write_summary(out, summary)
    return summary


def cmd_dsolve(cfg, routes):
    from . import checks, shapederiv, solver

    mat = build_material(cfg)
    wave = build_wave(cfg)
    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    xi = build_deformation(cfg, S)
    theta, phi, dirs = direction_grid(cfg)
    h = _step(cfg)
    out = _outdir(cfg)

    sol = solver.solve(S, mat, wave)
    run = {
        "A": lambda: shapederiv.d_solution_routeA(S, mat, wave, xi, dirs, sol=sol),
        "B": lambda: shapederiv.d_solution_routeB(S, mat, wave, xi, dirs, sol=sol),
        "C": lambda: shapederiv.d_solution_routeC(S, mat, wave, xi, dirs, h=h),
    }
    results = {route: run[route]() for route in routes}
    for route, res in results.items():
        write_far_csv(out / f"dfar_route{route}.csv", theta, phi, res.dE_far)

    keys = sorted(results)
    summary = {
        "command": "dsolve",
        "routes": routes,
        "L": L,
        "nquad": nquad,
        "tables": {r: f"dfar_route{r}.csv" for r in results},
        "pairwise_relative_l2": {
            f"{r1}-{r2}": checks.relative_l2(
                results[r1].dE_far - results[r2].dE_far, results[r1].dE_far
            )
            for i, r1 in enumerate(keys)
            for r2 in keys[i + 1 :]
        },
    }
    write_summary(out, summary)
    return summary


def cmd_mie(cfg):
    import numpy as np

    from . import oracle

    mat = build_material(cfg)
    wave = build_wave(cfg)
    _, _, nmie = build_discretization(cfg)
    radius = _sphere_radius(_get(cfg, "surface", "sphere"))
    if radius is None:
        raise ConfigError("mie needs a sphere; the series has no radial surface")
    theta, phi, dirs = direction_grid(cfg)
    out = _outdir(cfg)
    F = oracle.mie_far_field(mat, radius, wave, dirs, nmax=nmie)
    write_far_csv(out / "mie_far_field.csv", theta, phi, F)
    summary = {
        "command": "mie",
        "radius": radius,
        "far_field_csv": "mie_far_field.csv",
        "far_field_max": float(np.abs(F).max()),
    }
    write_summary(out, summary)
    return summary


def cmd_validate(cfg, suite):
    from .checks import SUITES

    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    check, tols = SUITES[suite]
    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    build = {
        "mat": lambda: build_material(cfg),
        "wave": lambda: build_wave(cfg),
        "xi": lambda: build_deformation(cfg, S),
        "h": lambda: _step(cfg),
    }
    names = list(inspect.signature(check).parameters)[1:]  # inputs after S
    measured = check(S, **{name: build[name]() for name in names})
    properties = {
        k: {"measured": v, "tolerance": tols[k], "pass": v is not None and v < tols[k]}
        for k, v in measured.items()
    }
    summary = {
        "command": "validate",
        "suite": suite,
        "properties": properties,
        "all_pass": all(p["pass"] for p in properties.values()),
    }
    write_summary(_outdir(cfg), summary)
    return summary


# -- entry point -----------------------------------------------------------
def build_parser():
    p = argparse.ArgumentParser(
        prog="dielshape",
        description="Spectral boundary-integral solver for dielectric "
        "scattering and its shape derivative.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("solve", "mie"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
    sp = sub.add_parser("dsolve")
    sp.add_argument("--config", required=True)
    sp.add_argument("--routes", default="A,B,C")
    sp = sub.add_parser("validate")
    sp.add_argument("--config", required=True)
    sp.add_argument("--suite", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_thread_limit()
        cfg = load_config(args.config)
        if args.command == "solve":
            summary = cmd_solve(cfg)
        elif args.command == "dsolve":
            routes = [r.strip().upper() for r in args.routes.split(",") if r.strip()]
            if not routes or any(r not in ("A", "B", "C") for r in routes):
                raise ConfigError(f"invalid --routes {args.routes!r}")
            summary = cmd_dsolve(cfg, routes)
        elif args.command == "mie":
            summary = cmd_mie(cfg)
        else:
            summary = cmd_validate(cfg, args.suite)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}))
        return EXIT_CONFIG
    except DielshapeError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return EXIT_NUMERICAL
    print(json.dumps(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
