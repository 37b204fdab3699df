"""Accuracy checks: the identities and error norms the command line reports.

A suite takes built inputs, never a configuration: the surface S and, as
its signature names them, the material ``mat``, the incident ``wave``, the
deformation field ``xi`` and route C's step ``h``; it returns {property:
measured value}.  SUITES maps each suite name to its function and the
tolerance of each property.  relative_l2 is the one relative error of
``solve``, ``dsolve`` and the suites.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import bio, shapederiv, solver, surfcalc as sc
from .geometry import DeformationField, Material


def relative_l2(diff: np.ndarray, ref: np.ndarray) -> float | None:
    """||diff|| / ||ref|| over all entries; None (JSON null) for a zero ref."""
    norm = np.linalg.norm(ref)
    return float(np.linalg.norm(diff) / norm) if norm > 0 else None


def _directions(seed: int, n: int) -> np.ndarray:
    dirs = np.random.default_rng(seed).normal(size=(n, 3))
    return dirs / np.linalg.norm(dirs, axis=1)[:, None]


def surface_identities(S) -> dict:
    """curl_Gamma grad_Gamma f = 0, div_Gamma curl_Gamma f = 0 and the duality
    int grad_Gamma f . u ds = -int f div_Gamma u ds for a gradient field u, on
    a smooth random f of degree <= L (seed 0)."""
    g = S.grid
    ncL = g.ncoef(g.L)
    c = np.zeros(g.ncoef(g.Lmax))
    rand = np.random.default_rng(0).normal(size=ncL - 1)
    c[1:ncL] = rand * np.exp(-0.5 * np.arange(1, ncL))
    f = g.synthesize(c)
    curl_grad = sc.surface_scalar_curl(S, sc.surface_gradient(S, f))
    div_curl = sc.surface_divergence(S, sc.tangential_vector_curl(S, f))
    u = sc.surface_gradient(S, g.synthesize(np.roll(c, 1)))
    w = g.weights * S.jacobian
    lhs = np.sum(w * np.einsum("ij,ij->i", sc.surface_gradient(S, f), u))
    rhs = -np.sum(w * f * sc.surface_divergence(S, u))
    return {
        "scurl_grad_zero": float(np.abs(curl_grad).max()),
        "div_curl_zero": float(np.abs(div_curl).max()),
        "grad_div_duality": float(abs(lhs - rhs) / max(abs(lhs), 1e-300)),
    }


def translation_invariance(S, mat) -> dict:
    """The block derivatives (exterior wavenumber) vanish under a translation."""
    xi = DeformationField.translation(S.grid, [0.3, -0.2, 0.5])
    blocks = {
        "dC_translation": bio.d_electric_block(S, mat.kappa_e, xi),
        "dM_translation": bio.d_magnetic_block(S, mat.kappa_e, xi),
        "dC0_translation": bio.d_static_block(S, xi),
    }
    return {name: float(np.abs(d).max()) for name, d in blocks.items()}


def solver_identities(S, mat, wave) -> dict:
    """A body without contrast scatters nothing, and the far field does not
    depend on the coupling eta (halved here); 16 random directions (seed 1)."""
    dirs = _directions(1, 16)
    F0 = solver.far_field(solver.solve(S, Material(eps_i=1.0), wave), dirs)
    F1 = solver.far_field(solver.solve(S, mat, wave), dirs)
    half = dataclasses.replace(mat, eta=0.5 * mat.eta)
    F2 = solver.far_field(solver.solve(S, half, wave), dirs)
    return {
        "no_contrast_far": float(np.abs(F0).max()),
        "eta_independence": float(
            np.abs(F1 - F2).max() / max(np.abs(F1).max(), 1e-300)
        ),
    }


def route_agreement(S, mat, wave, xi, h) -> dict:
    """Routes C (step h) and B against route A, relative to the far field;
    12 random directions (seed 2)."""
    dirs = _directions(2, 12)
    sol = solver.solve(S, mat, wave)
    A = shapederiv.d_solution_routeA(S, mat, wave, xi, dirs, sol=sol)
    B = shapederiv.d_solution_routeB(S, mat, wave, xi, dirs, sol=sol)
    C = shapederiv.d_solution_routeC(S, mat, wave, xi, dirs, h=h)
    F = solver.far_field(sol, dirs)
    return {
        "routeA_routeC": relative_l2(A.dE_far - C.dE_far, F),
        "routeA_routeB": relative_l2(A.dE_far - B.dE_far, F),
    }


SUITES = {
    "surfcalc": (
        surface_identities,
        {"scurl_grad_zero": 1e-10, "div_curl_zero": 1e-10, "grad_div_duality": 1e-9},
    ),
    "bio": (
        translation_invariance,
        dict.fromkeys(["dC_translation", "dM_translation", "dC0_translation"], 1e-8),
    ),
    "solver": (solver_identities, {"no_contrast_far": 1e-7, "eta_independence": 1e-6}),
    "shapederiv": (route_agreement, {"routeA_routeC": 1e-4, "routeA_routeB": 1e-2}),
}
