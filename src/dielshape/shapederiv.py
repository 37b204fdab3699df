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
from . import bio
from . import solver as sv
from . import surfcalc as sc

__all__ = [
    "TransmissionData",
    "DerivativeResult",
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
        g = np.stack([self.g_D, self.g_N], axis=2)
        self.g_D_stack, self.g_N_stack = sc.helmholtz_decompose(S, g).T


@dataclass
class DerivativeResult:
    """Far-field derivative samples from one route."""

    route: str
    directions: np.ndarray
    dE_far: np.ndarray
    dE_near: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def incident_trace_derivative(S: Surface, mat: Material, wave: sv.PlaneWave, xi):
    """Derivatives of the transported incident trace coefficients.

    Returns stacked coefficient vectors (dgD, dgN) of d/dt at t=0 of the
    Helmholtz decomposition, on Gamma_{t xi}, of the incident traces: the
    derivative of the weak projection of sc.helmholtz_decompose
    (sc._d_weak_project) on the node traces and their stage derivatives.
    """
    ke = mat.kappa_e
    n = S.normal
    dN = sc._dgeom(S, xi)["dN"]
    E = wave.field(ke, S.points)
    dE = 1j * ke * (xi.values @ wave.d)[:, None] * E  # (xi . grad) E_inc
    dxE = 1j * np.cross(wave.d, E)  # (1/k) curl E_inc
    ddxE = 1j * np.cross(wave.d, dE)
    v = np.stack([np.cross(E, n), np.cross(dxE, n)], axis=2)
    dv = np.stack(
        [np.cross(dE, n) + np.cross(E, dN), np.cross(ddxE, n) + np.cross(dxE, dN)],
        axis=2,
    )
    dgD, dgN = sc._stack_pq(sc._d_weak_project(S, xi, v, dv)).T
    return dgD, dgN


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

    # derivative blocks only ever act on these few vectors; one kernel pass
    # per wavenumber gives the electric and magnetic ones
    ja = np.stack([j, a], axis=1)
    dCe, dMe = bio.d_wave_blocks(S, ke, xi, ja)
    (dCe_j, dCe_a), (dMe_j, dMe_a) = dCe.T, dMe.T
    dC0_j = bio.d_static_block(S, xi, j[:, None])[:, 0]
    # dL j and dN j, the derivatives of the exterior traces at fixed j
    dL_j = dCe_j + 1j * eta * (dMe_a + half(ops.Me, dC0_j))
    dN_j = dMe_j + 1j * eta * (dCe_a + ops.Ce @ dC0_j)

    # S dj = db - dS j, and at fixed j the right side is the derivative of
    # b - S j = C_i (g_N - N j) + rho (-1/2 + M_i)(g_D - L j), whose
    # factors are the interior Cauchy data: g_N - N j = rho tN, g_D - L j = tD
    dgD, dgN = incident_trace_derivative(S, mat, wave, xi)
    dCi, dMi = bio.d_wave_blocks(S, ki, xi, np.stack([sol.tN, sol.tD], axis=1))
    rhs = rho * (dCi[:, 0] + dMi[:, 1]) + ops.Ci @ (dgN - dN_j)
    rhs += rho * half(ops.Mi, dgD - dL_j)

    dj = ops.solve(rhs)

    # the far field is linear in (j, a): differentiate the transported
    # moments at fixed (j, a) and add the moments of (dj, da)
    da = dC0_j + ops.C0 @ dj
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    I = bio._far_moments(S, ke, d, ja, xi)
    I += bio._far_moments(S, ke, d, np.stack([dj, da], axis=1))
    dF = sv._ansatz_far_field(ke, eta, d, I)

    dE_near = None
    if exterior_probes is not None or interior_probes is not None:
        dE_near = {}
        if exterior_probes is not None:
            pts = exterior_probes
            out = -bio.d_electric_potential(S, ke, j, pts, xi)
            out -= bio.electric_potential(S, ke, dj, pts)
            out -= 1j * eta * bio.d_magnetic_potential(S, ke, a, pts, xi)
            out -= 1j * eta * bio.magnetic_potential(S, ke, da, pts)
            dE_near["exterior"] = out
        if interior_probes is not None:
            pts = interior_probes
            dtD = dgD - dL_j - ops.L @ dj
            dtN = (dgN - dN_j - ops.N @ dj) / rho
            out = bio.d_electric_potential(S, ki, sol.tN, pts, xi)
            out += bio.electric_potential(S, ki, dtN, pts)
            out += bio.d_magnetic_potential(S, ki, sol.tD, pts, xi)
            out += bio.magnetic_potential(S, ki, dtD, pts)
            dE_near["interior"] = out
    return DerivativeResult(
        route="A",
        directions=d,
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
    # node values and divergences of the interior Cauchy data, from the basis
    jb, divb = sc.density_basis(S)
    K = jb.shape[2] // 2
    tDN = np.stack([sol.tD, sol.tN], axis=1)
    tDv, tNv = sc._times(jb, tDN).transpose(2, 0, 1)
    div_tD, div_tN = sc._times(divb, tDN).T

    # theta times the scalar jumps of n . E (normal components are
    # discontinuous) and of curl_G E; curl_G of each is the curl columns of
    # the basis on its degree 1..L coefficients, whose weak projection is
    # that of the curl of the node data (see surfcalc), without a transform
    nE_jump = (1.0 / ki - rho / ke) * div_tN
    rot_jump = (1.0 / mi - 1.0 / me) * div_tD
    coef = S.grid.analyze(theta[:, None] * np.stack([nE_jump, rot_jump], 1), S.grid.L)
    curl_nE, curl_rot = sc._times(jb[:, :, K:], coef[1:]).transpose(2, 0, 1)

    # jump of n ^ curl E across the interface, in units of tN
    cM = ke * rho - ki
    g_D = -theta[:, None] * np.cross(cM * tNv, n) + curl_nE
    cD = ki**2 / mi - ke**2 / me
    g_N = theta[:, None] * cD * np.cross(tDv, n) + curl_rot
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
    jB = ops.solve(b)
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    I = bio._far_moments(S, mat.kappa_e, d, np.stack([jB, ops.C0 @ jB], axis=1))
    return DerivativeResult(
        route="B",
        directions=d,
        dE_far=sv._ansatz_far_field(mat.kappa_e, mat.eta, d, I),
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
