"""First shape derivative of the dielectric scattering solution.

Three independent routes compute the derivative of the far field with respect
to a deformation field xi at t = 0:

A. differentiate the discrete integral representation: every assembly stage
   (kernels, surface operators, Galerkin solves, far-field weights) has an
   analytic derivative, combined by the product rule;
B. solve the derived transmission problem: the shape derivative of the field
   pair satisfies the homogeneous Maxwell transmission problem with interface
   jumps (g_D, g_N) built from the primal solution traces and (xi . n), so
   the same single-source system is reused with modified data;
C. central finite differences of full solves on the deformed surfaces.

Routes A and B are analytic in the deformation; route C is the plumbing
oracle.  All three agree up to discretization error, which is the main
cross-validation property of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Surface, Material, DeformationField, deform
from .errors import SingularSystem
from . import bio
from . import solver as sv
from . import surfcalc as sc

__all__ = [
    "TransmissionData",
    "DerivativeResult",
    "d_operator",
    "incident_trace_derivative",
    "d_solution_routeA",
    "transmission_rhs",
    "d_solution_routeB",
    "d_solution_routeC",
]


@dataclass
class TransmissionData:
    """Interface jump data (g_D, g_N) of the derived transmission problem."""

    surface: Surface
    g_D: np.ndarray  # node values (N, 3), tangential
    g_N: np.ndarray  # node values (N, 3), tangential
    g_D_stack: np.ndarray = field(init=False)
    g_N_stack: np.ndarray = field(init=False)

    def __post_init__(self):
        S = self.surface
        n = S.normal
        defect = max(
            np.abs(np.einsum("ij,ij->i", n, self.g_D)).max(initial=0.0),
            np.abs(np.einsum("ij,ij->i", n, self.g_N)).max(initial=0.0),
        )
        scale = max(np.abs(self.g_D).max(initial=0.0), np.abs(self.g_N).max(initial=0.0))
        if defect > 1e-10 * max(scale, 1.0):
            raise ValueError(f"transmission data not tangential: defect {defect:.3e}")
        self.g_D_stack = sc.helmholtz_decompose(S, self.g_D).stacked()
        self.g_N_stack = sc.helmholtz_decompose(S, self.g_N).stacked()


@dataclass
class DerivativeResult:
    """Far-field derivative samples from one route."""

    route: str
    directions: np.ndarray
    dE_far: np.ndarray
    dE_near: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def d_operator(which, S: Surface, kappa: float, xi, directions=None):
    """Derivative block of a boundary/far-field operator at the base surface.

    which in {"C", "M", "C0star", "FarE", "FarM"} returns a matrix; for the
    far blocks ``directions`` is required.
    """
    if which == "C":
        return bio.d_electric_block(S, kappa, xi)
    if which == "M":
        return bio.d_magnetic_block(S, kappa, xi)
    if which == "C0star":
        return bio.d_static_block(S, xi)
    if which in ("FarE", "FarM"):
        if directions is None:
            raise ValueError("far-field derivative blocks require directions")
        kind = "electric" if which == "FarE" else "magnetic"
        return bio.d_far_field_block(S, kappa, directions, kind, xi)
    raise ValueError(f"unknown operator tag {which!r}")


def incident_trace_derivative(S: Surface, mat: Material, wave: sv.PlaneWave, xi):
    """Derivatives of the transported incident trace coefficients.

    Returns stacked coefficient vectors (dgD, dgN) of d/dt at t=0 of the
    Helmholtz decomposition, on Gamma_{t xi}, of the incident traces.
    """
    ke = mat.kappa_e
    n = S.normal
    dg = bio._dgeom(S, xi)
    dN = dg["dN"]
    xiv = xi.values
    E = wave.field(ke, S.points)
    dE = 1j * ke * (xiv @ wave.d)[:, None] * E  # (xi . grad) E_inc
    dxE = 1j * np.cross(wave.d, E)  # (1/k) curl E_inc
    ddxE = 1j * np.cross(wave.d, dE)

    ncL = S.grid.ncoef(S.grid.L)

    def d_stack(v, dv):
        divv = sc.surface_divergence(S, v)
        ddivv = sc.d_surface_operator("divergence", S, xi, v) + sc.surface_divergence(
            S, dv
        )
        rotv = sc.surface_scalar_curl(S, v)
        drotv = sc.d_surface_operator("scalar_curl", S, xi, v) + sc.surface_scalar_curl(
            S, dv
        )
        dp = bio._d_weak_poisson(S, dg, divv, ddivv)[1:ncL]
        dq = -bio._d_weak_poisson(S, dg, rotv, drotv)[1:ncL]
        return np.concatenate([dp, dq])

    vD = np.cross(E, n)
    dvD = np.cross(dE, n) + np.cross(E, dN)
    vN = np.cross(dxE, n)
    dvN = np.cross(ddxE, n) + np.cross(dxE, dN)
    return d_stack(vD, dvD), d_stack(vN, dvN)


def _far_matrices(S, mat, directions):
    ke = mat.kappa_e
    FE = bio.far_field_block(S, ke, directions, "electric")
    FM = bio.far_field_block(S, ke, directions, "magnetic")
    return FE, FM


def d_solution_routeA(
    S: Surface,
    mat: Material,
    wave: sv.PlaneWave,
    xi: DeformationField,
    directions: np.ndarray,
    sol: sv.ScatteringSolution | None = None,
    exterior_probes: np.ndarray | None = None,
    interior_probes: np.ndarray | None = None,
) -> DerivativeResult:
    """Far-field derivative by differentiating the integral representation.

    If probe points are given, the derivative of the scattered (exterior) and
    transmitted (interior) fields at those fixed points is returned as well.
    """
    if sol is None:
        sol = sv.solve(S, mat, wave)
    ops = sol.ops
    ke, ki = mat.kappa_e, mat.kappa_i
    eta, rho = mat.eta, mat.rho
    j = sol.j
    a = ops.C0 @ j
    half = lambda M, v: M @ v - 0.5 * v  # (-1/2 + M) v

    # derivative blocks only ever act on these few vectors
    ja = np.stack([j, a], axis=1)
    dCe_j, dCe_a = bio.d_electric_block(S, ke, xi, ja).T
    dMe_j, dMe_a = bio.d_magnetic_block(S, ke, xi, ja).T
    dC0_j = bio.d_static_block(S, xi, j[:, None])[:, 0]
    # dL j and dN j, the derivatives of the exterior traces at fixed j
    dL_j = dCe_j + 1j * eta * (dMe_a + half(ops.Me, dC0_j))
    dN_j = dMe_j + 1j * eta * (dCe_a + ops.Ce @ dC0_j)

    # S dj = db - dS j, and at fixed j the right side is the derivative of
    # b - S j = C_i (g_N - N j) + rho (-1/2 + M_i)(g_D - L j), whose
    # factors are the interior Cauchy data: g_N - N j = rho tN, g_D - L j = tD
    dgD, dgN = incident_trace_derivative(S, mat, wave, xi)
    dCi_t = bio.d_electric_block(S, ki, xi, sol.tN[:, None])[:, 0]
    dMi_t = bio.d_magnetic_block(S, ki, xi, sol.tD[:, None])[:, 0]
    rhs = rho * (dCi_t + dMi_t) + ops.Ci @ (dgN - dN_j) + rho * half(ops.Mi, dgD - dL_j)

    try:
        dj = np.linalg.solve(ops.S, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"derivative solve failed: {exc}") from exc

    FE, FM = _far_matrices(S, mat, directions)
    dFE = bio.d_far_field_block(S, ke, directions, "electric", xi)
    dFM = bio.d_far_field_block(S, ke, directions, "magnetic", xi)
    da = dC0_j + ops.C0 @ dj
    dF = -(dFE @ j + FE @ dj) - 1j * eta * (dFM @ a + FM @ da)

    dE_near = None
    if exterior_probes is not None or interior_probes is not None:
        dE_near = {}
        hd = lambda v: sc.HelmholtzDensity.from_stacked(S, v)
        if exterior_probes is not None:
            pts = np.atleast_2d(exterior_probes)
            out = -bio.d_electric_potential(S, ke, hd(j), pts, xi)
            out -= bio.electric_potential(S, ke, hd(dj), pts)
            out -= 1j * eta * bio.d_magnetic_potential(S, ke, hd(a), pts, xi)
            out -= 1j * eta * bio.magnetic_potential(S, ke, hd(da), pts)
            dE_near["exterior"] = out
        if interior_probes is not None:
            pts = np.atleast_2d(interior_probes)
            dtD = dgD - dL_j - ops.L @ dj
            dtN = (dgN - dN_j - ops.N @ dj) / rho
            out = bio.d_electric_potential(S, ki, hd(sol.tN), pts, xi)
            out += bio.electric_potential(S, ki, hd(dtN), pts)
            out += bio.d_magnetic_potential(S, ki, hd(sol.tD), pts, xi)
            out += bio.magnetic_potential(S, ki, hd(dtD), pts)
            dE_near["interior"] = out
    return DerivativeResult(
        route="A",
        directions=np.atleast_2d(directions),
        dE_far=dF,
        dE_near=dE_near,
        diagnostics={"dj_norm": float(np.linalg.norm(dj))},
    )


def transmission_rhs(sol: sv.ScatteringSolution, xi: DeformationField) -> TransmissionData:
    """Interface data of the derivative's transmission problem.

    All boundary traces of the solved fields are obtained from the solved
    Cauchy data via the transmission conditions and the Maxwell-field trace
    identities (never by near-surface quadrature):

        n ^ curl E_i           = -k_i tN,
        n ^ curl (E_s + E_inc) = -k_e rho tN,
        n . E                  = (1/k) div_G (Neumann trace),
        curl_G E               = div_G (Dirichlet trace).
    """
    S = sol.surface
    mat = sol.material
    n = S.normal
    ki, ke = mat.kappa_i, mat.kappa_e
    rho = mat.rho
    mi, me = mat.mu_i, mat.mu_e

    theta = np.einsum("ij,ij->i", xi.values, n)
    tDv = sc.HelmholtzDensity.from_stacked(S, sol.tD).node_values()
    tNv = sc.HelmholtzDensity.from_stacked(S, sol.tN).node_values()
    div_tD = sc.surface_divergence(S, tDv)
    div_tN = sc.surface_divergence(S, tNv)

    # jump of n ^ curl E across the interface, in units of tN
    cM = ke * rho - ki
    # jump of n . E (normal components are discontinuous)
    nE_jump = (1.0 / ki - rho / ke) * div_tN
    g_D = -theta[:, None] * np.cross(cM * tNv, n) + sc.tangential_vector_curl(
        S, theta * nE_jump
    )

    cD = ki**2 / mi - ke**2 / me
    rot_jump = (1.0 / mi - 1.0 / me) * div_tD
    g_N = theta[:, None] * cD * np.cross(tDv, n) + sc.tangential_vector_curl(
        S, theta * rot_jump
    )
    return TransmissionData(surface=S, g_D=g_D, g_N=g_N)


def d_solution_routeB(
    S: Surface,
    mat: Material,
    wave: sv.PlaneWave,
    xi: DeformationField,
    directions: np.ndarray,
    sol: sv.ScatteringSolution | None = None,
) -> DerivativeResult:
    """Far-field derivative by solving the derived transmission problem.

    The derivative pair (dE_i, dE_s) satisfies the same transmission problem
    as the primal one but with interface data (g_D, g_N) in place of the
    incident traces; converting the jump conventions to the package traces
    gives effective data gD_eff = -g_D and gN_eff = -(mu_e / k_e) g_N, and
    the solver's system matrix is reused unchanged.
    """
    if sol is None:
        sol = sv.solve(S, mat, wave)
    ops = sol.ops
    data = transmission_rhs(sol, xi)
    gD_eff = -data.g_D_stack
    gN_eff = -(mat.mu_e / mat.kappa_e) * data.g_N_stack
    b = ops.rhs(gD_eff, gN_eff)
    try:
        jB = np.linalg.solve(ops.S, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"transmission solve failed: {exc}") from exc
    FE, FM = _far_matrices(S, mat, directions)
    dF = -(FE @ jB) - 1j * mat.eta * (FM @ (ops.C0 @ jB))
    return DerivativeResult(
        route="B",
        directions=np.atleast_2d(directions),
        dE_far=dF,
        diagnostics={"data_norm": float(np.abs(data.g_D).max() + np.abs(data.g_N).max())},
    )


def d_solution_routeC(
    S: Surface,
    mat: Material,
    wave: sv.PlaneWave,
    xi: DeformationField,
    directions: np.ndarray,
    h: float = 1e-3,
) -> DerivativeResult:
    """Far-field derivative by central differences of full solves."""
    def far_at(t):
        St = deform(S, xi, t)
        solt = sv.solve(St, mat, wave)
        return sv.far_field(solt, directions)

    dF = (far_at(h) - far_at(-h)) / (2.0 * h)
    return DerivativeResult(
        route="C", directions=np.atleast_2d(directions), dE_far=dF, diagnostics={"h": h}
    )
