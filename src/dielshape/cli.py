"""Configuration-driven command line interface.

Subcommands
-----------
solve     solve the scattering problem, write the far field as CSV
dsolve    far-field shape derivative by the requested routes (A, B, C)
validate  run a named property suite and report pass/fail per property
mie       series far field of the dielectric ball

All commands read a single JSON configuration file (``--config``).  Output is
a summary JSON document plus CSV tables with columns
theta, phi, re_Ex, im_Ex, re_Ey, im_Ey, re_Ez, im_Ez.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  The
environment variable DIELSHAPE_NUM_THREADS (integer) bounds the BLAS/OpenMP
thread count; it must be set before numpy is loaded, which is why the numeric
modules are imported lazily inside :func:`main` and why the package's
re-exports resolve lazily.
"""

from __future__ import annotations

import argparse
import csv
import json
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
        int(n)
    except ValueError as exc:
        raise ConfigError(f"{THREAD_ENV} must be an integer, got {n!r}") from exc
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ.setdefault(var, n)


# -- configuration ---------------------------------------------------------
def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
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


def build_material(cfg):
    from .geometry import Material

    m = _get(cfg, "material", {})
    if not isinstance(m, dict):
        raise ConfigError("'material' must be an object")
    allowed = {"eps_i", "eps_e", "mu_i", "mu_e", "omega", "eta"}
    bad = set(m) - allowed
    if bad:
        raise ConfigError(f"unknown material keys {sorted(bad)}")
    try:
        return Material(**{k: float(v) for k, v in m.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid material: {exc}") from exc


def build_wave(cfg):
    from .solver import PlaneWave

    w = _get(cfg, "wave", {})
    try:
        return PlaneWave(
            direction=tuple(w.get("direction", (0.0, 0.0, 1.0))),
            polarization=tuple(w.get("polarization", (1.0, 0.0, 0.0))),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid wave: {exc}") from exc


def build_discretization(cfg):
    d = _get(cfg, "discretization", {})
    L = int(d.get("L", 12))
    nquad = int(d.get("nquad", 2 * L + 2))
    if L < 1 or nquad < 2:
        raise ConfigError(f"invalid discretization L={L}, nquad={nquad}")
    return L, nquad, d.get("N_mie")


def build_surface(cfg, L, nquad):
    from . import geometry
    from .errors import NonPositiveRadial, ResolutionTooLow

    s = _get(cfg, "surface", {"type": "sphere", "radius": 1.0})
    try:
        if s == "sphere":
            return geometry.sphere(1.0, L, nquad)
        if not isinstance(s, dict):
            raise ConfigError("'surface' must be \"sphere\" or an object")
        if s.get("type") == "sphere" or "radius" in s and "radial" not in s:
            return geometry.sphere(float(s.get("radius", 1.0)), L, nquad)
        if "radial" in s:
            return geometry.build_surface(dict(s["radial"]), L, nquad)
    except (NonPositiveRadial, ResolutionTooLow, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid surface: {exc}") from exc
    raise ConfigError(f"unrecognized surface specification {s!r}")


def build_deformation(cfg, surface):
    from . import sh
    from .geometry import DeformationField

    d = _get(cfg, "deformation", required=True)
    grid = surface.grid
    if d == "radial":
        return DeformationField.radial(surface)
    if not isinstance(d, dict):
        raise ConfigError("'deformation' must be \"radial\" or an object")
    if "translation" in d:
        vec = d["translation"]
        if len(vec) != 3:
            raise ConfigError("'translation' needs a 3-vector")
        return DeformationField.translation(grid, [float(v) for v in vec])
    if "radial_profile" in d:
        prof = sh.coeff_dict_to_vector(dict(d["radial_profile"]), grid.Lmax)
        return DeformationField.radial_profile(grid, prof)
    if "components" in d:
        import numpy as np

        comps = d["components"]
        if len(comps) != 3:
            raise ConfigError("'components' needs three coefficient maps")
        coef = np.zeros((3, grid.ncoef(grid.Lmax)))
        for a, cmap in enumerate(comps):
            vec = sh.coeff_dict_to_vector(dict(cmap), grid.Lmax)
            coef[a, : vec.shape[0]] = vec
        return DeformationField(grid, coef)
    raise ConfigError(f"unrecognized deformation specification {d!r}")


def direction_grid(cfg):
    import numpy as np

    d = _get(cfg, "directions", {})
    ntheta = int(d.get("n_theta", 10))
    nphi = int(d.get("n_phi", 20))
    if ntheta < 1 or nphi < 1:
        raise ConfigError("direction grid sizes must be positive")
    theta = (np.arange(ntheta) + 0.5) * np.pi / ntheta
    phi = np.arange(nphi) * 2.0 * np.pi / nphi
    T, P = np.meshgrid(theta, phi, indexing="ij")
    t, p = T.ravel(), P.ravel()
    dirs = np.stack(
        [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=1
    )
    return t, p, dirs


# -- output ----------------------------------------------------------------
def write_far_csv(path, theta, phi, F):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["theta", "phi", "re_Ex", "im_Ex", "re_Ey", "im_Ey", "re_Ez", "im_Ez"]
        )
        for i in range(len(theta)):
            row = [f"{theta[i]:.17g}", f"{phi[i]:.17g}"]
            for c in range(3):
                row += [f"{F[i, c].real:.17g}", f"{F[i, c].imag:.17g}"]
            w.writerow(row)


def write_summary(outdir, summary):
    path = Path(outdir) / "summary.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _outdir(cfg):
    out = Path(_get(cfg, "output", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands --------------------------------------------------------------
def cmd_solve(cfg):
    import numpy as np

    from . import oracle, solver

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
        "far_field_csv": "far_field.csv",
        "far_field_max": float(np.abs(F).max()),
    }
    if S.radial is not None and np.allclose(S.radial[1:], 0.0):
        radius = float(S.radial[0] / np.sqrt(4.0 * np.pi))
        Fm = oracle.mie_far_field(mat, radius, wave, dirs)
        summary["mie_relative_l2_error"] = float(
            np.linalg.norm(F - Fm) / np.linalg.norm(Fm)
        )
    write_summary(out, summary)
    return summary


def cmd_dsolve(cfg, routes):
    import numpy as np

    from . import shapederiv, solver

    mat = build_material(cfg)
    wave = build_wave(cfg)
    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    xi = build_deformation(cfg, S)
    theta, phi, dirs = direction_grid(cfg)
    h = float(_get(cfg, "h", 1e-3))
    out = _outdir(cfg)

    sol = solver.solve(S, mat, wave)
    results = {}
    for route in routes:
        if route == "A":
            res = shapederiv.d_solution_routeA(S, mat, wave, xi, dirs, sol=sol)
        elif route == "B":
            res = shapederiv.d_solution_routeB(S, mat, wave, xi, dirs, sol=sol)
        elif route == "C":
            res = shapederiv.d_solution_routeC(S, mat, wave, xi, dirs, h=h)
        else:
            raise ConfigError(f"unknown route {route!r}")
        results[route] = res
        write_far_csv(out / f"dfar_route{route}.csv", theta, phi, res.dE_far)

    summary = {
        "command": "dsolve",
        "routes": routes,
        "L": L,
        "nquad": nquad,
        "tables": {r: f"dfar_route{r}.csv" for r in results},
    }
    pair_diffs = {}
    keys = sorted(results)
    for i, r1 in enumerate(keys):
        for r2 in keys[i + 1 :]:
            d = np.linalg.norm(results[r1].dE_far - results[r2].dE_far)
            ref = np.linalg.norm(results[r1].dE_far)
            pair_diffs[f"{r1}-{r2}"] = float(d / max(ref, 1e-300))
    summary["pairwise_relative_l2"] = pair_diffs
    write_summary(_outdir(cfg), summary)
    return summary


def cmd_mie(cfg):
    import numpy as np

    from . import oracle

    mat = build_material(cfg)
    wave = build_wave(cfg)
    _, _, nmie = build_discretization(cfg)
    s = _get(cfg, "surface", {"type": "sphere", "radius": 1.0})
    radius = 1.0 if s == "sphere" else float(s.get("radius", 1.0))
    theta, phi, dirs = direction_grid(cfg)
    out = _outdir(cfg)
    F = oracle.mie_far_field(
        mat, radius, wave, dirs, nmax=None if nmie is None else int(nmie)
    )
    write_far_csv(out / "mie_far_field.csv", theta, phi, F)
    summary = {
        "command": "mie",
        "radius": radius,
        "far_field_csv": "mie_far_field.csv",
        "far_field_max": float(np.abs(F).max()),
    }
    write_summary(out, summary)
    return summary


# -- validation suites -----------------------------------------------------
def _suite_surfcalc(cfg):
    import numpy as np

    from . import geometry, surfcalc as sc

    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    g = S.grid
    rng = np.random.default_rng(0)
    ncL = g.ncoef(g.L)
    c = np.zeros(g.ncoef(g.Lmax))
    c[1:ncL] = rng.normal(size=ncL - 1) * np.exp(-0.5 * np.arange(1, ncL))
    f = g.synthesize(c)
    checks = {}
    # differential identities
    checks["scurl_grad_zero"] = float(
        np.abs(sc.surface_scalar_curl(S, sc.surface_gradient(S, f))).max()
    )
    checks["div_curl_zero"] = float(
        np.abs(sc.surface_divergence(S, sc.tangential_vector_curl(S, f))).max()
    )
    # duality of grad/div and curl/scurl
    u = sc.surface_gradient(S, g.synthesize(np.roll(c, 1)))
    w = g.weights * S.jacobian
    lhs = np.sum(w * np.einsum("ij,ij->i", sc.surface_gradient(S, f), u))
    rhs = -np.sum(w * f * sc.surface_divergence(S, u))
    checks["grad_div_duality"] = float(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return checks, {
        "scurl_grad_zero": 1e-10,
        "div_curl_zero": 1e-10,
        "grad_div_duality": 1e-9,
    }


def _suite_bio(cfg):
    import numpy as np

    from . import bio

    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    checks = {}
    # translation invariance of operator derivatives
    from .geometry import DeformationField

    xi = DeformationField.translation(S.grid, [0.3, -0.2, 0.5])
    kappa = build_material(cfg).kappa_e
    for name, mat_d in (
        ("dC_translation", bio.d_electric_block(S, kappa, xi)),
        ("dM_translation", bio.d_magnetic_block(S, kappa, xi)),
        ("dC0_translation", bio.d_static_block(S, xi)),
    ):
        checks[name] = float(np.abs(mat_d).max())
    tols = {k: 1e-8 for k in checks}
    return checks, tols


def _suite_solver(cfg):
    import numpy as np

    from . import solver
    from .geometry import Material

    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    wave = build_wave(cfg)
    rng = np.random.default_rng(1)
    dirs = rng.normal(size=(16, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    checks = {}
    mat0 = Material(eps_i=1.0)
    sol0 = solver.solve(S, mat0, wave)
    checks["no_contrast_far"] = float(np.abs(solver.far_field(sol0, dirs)).max())
    mat = build_material(cfg)
    mat2 = Material(
        eps_i=mat.eps_i, eps_e=mat.eps_e, mu_i=mat.mu_i, mu_e=mat.mu_e,
        omega=mat.omega, eta=0.5 * mat.eta,
    )
    F1 = solver.far_field(solver.solve(S, mat, wave), dirs)
    F2 = solver.far_field(solver.solve(S, mat2, wave), dirs)
    checks["eta_independence"] = float(
        np.abs(F1 - F2).max() / max(np.abs(F1).max(), 1e-300)
    )
    return checks, {"no_contrast_far": 1e-7, "eta_independence": 1e-6}


def _suite_shapederiv(cfg):
    import numpy as np

    from . import shapederiv, solver

    L, nquad, _ = build_discretization(cfg)
    S = build_surface(cfg, L, nquad)
    mat = build_material(cfg)
    wave = build_wave(cfg)
    xi = build_deformation(cfg, S)
    rng = np.random.default_rng(2)
    dirs = rng.normal(size=(12, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    sol = solver.solve(S, mat, wave)
    A = shapederiv.d_solution_routeA(S, mat, wave, xi, dirs, sol=sol)
    B = shapederiv.d_solution_routeB(S, mat, wave, xi, dirs, sol=sol)
    C = shapederiv.d_solution_routeC(S, mat, wave, xi, dirs, h=float(_get(cfg, "h", 1e-3)))
    Fn = np.linalg.norm(solver.far_field(sol, dirs))
    checks = {
        "routeA_routeC": float(np.linalg.norm(A.dE_far - C.dE_far) / Fn),
        "routeA_routeB": float(np.linalg.norm(A.dE_far - B.dE_far) / Fn),
    }
    return checks, {"routeA_routeC": 1e-4, "routeA_routeB": 1e-2}


SUITES = {
    "surfcalc": _suite_surfcalc,
    "bio": _suite_bio,
    "solver": _suite_solver,
    "shapederiv": _suite_shapederiv,
}


def cmd_validate(cfg, suite):
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    checks, tols = SUITES[suite](cfg)
    properties = {
        name: {"measured": val, "tolerance": tols[name], "pass": val < tols[name]}
        for name, val in checks.items()
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
        json.dump({"error": "config", "message": str(exc)}, sys.stdout)
        sys.stdout.write("\n")
        return EXIT_CONFIG
    except DielshapeError as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)}, sys.stdout
        )
        sys.stdout.write("\n")
        return EXIT_NUMERICAL
    json.dump(summary, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
