"""Single-source integral equation for plane-wave scattering by a dielectric.

The scattered field is sought as the combined layer potential

    E_s = -Psi_E^(k_e) j - i eta Psi_M^(k_e) (C0 j),

where j is a tangential density in Helmholtz coordinates and C0 the static
coupling of :func:`dielshape.bio.static_block`.  With the traces

    gamma_D u = u ^ n,        gamma_N^(k) u = (1/k) (curl u) ^ n,

the exterior traces of the ansatz are -L j and -N j with

    L = C_e + i eta (-1/2 + M_e) C0,      N = (-1/2 + M_e) + i eta C_e C0,

and enforcing the dielectric transmission conditions through the interior
Calderon identity yields the square system

    [ C_i N + rho (-1/2 + M_i) L ] j = C_i g_N + rho (-1/2 + M_i) g_D,

with g_D, g_N the incident traces and rho = k_i mu_e / (k_e mu_i).  The
interior field is recovered from the representation
E_i = Psi_E^(k_i) t_N + Psi_M^(k_i) t_D with the interior Cauchy data
t_D = g_D - L j and t_N = (g_N - N j)/rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SingularSystem, NoConvergence
from .geometry import Surface, Material
from . import bio
from . import surfcalc as sc

__all__ = [
    "PlaneWave",
    "incident_traces",
    "SystemOperators",
    "build_system",
    "ScatteringSolution",
    "solve",
    "far_field",
    "scattered_field",
    "interior_field",
]

# relative residual of the solved system above which solve raises
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class PlaneWave:
    """Linearly polarized incident plane wave p exp(i k d.x)."""

    direction: tuple = (0.0, 0.0, 1.0)
    polarization: tuple = (1.0, 0.0, 0.0)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        p = np.asarray(self.polarization, dtype=float)
        for name, v in (("direction", d), ("polarization", p)):
            if not 0 < np.linalg.norm(v) < np.inf:
                raise ValueError(f"{name} must be a nonzero finite vector")
        d = d / np.linalg.norm(d)
        if abs(p @ d) > 1e-12 * np.linalg.norm(p):
            raise ValueError("polarization must be orthogonal to the direction")
        object.__setattr__(self, "direction", tuple(d))
        object.__setattr__(self, "polarization", tuple(p))

    @property
    def d(self) -> np.ndarray:
        return np.asarray(self.direction)

    @property
    def p(self) -> np.ndarray:
        return np.asarray(self.polarization)

    def field(self, kappa: float, points: np.ndarray) -> np.ndarray:
        phase = np.exp(1j * kappa * (points @ self.d))
        return self.p[None, :] * phase[:, None]

    def curl(self, kappa: float, points: np.ndarray) -> np.ndarray:
        return 1j * kappa * np.cross(self.d, self.field(kappa, points))


def incident_traces(S: Surface, mat: Material, wave: PlaneWave):
    """Coefficient stacks (g_D, g_N) of the incident traces E ^ n and
    (1/k_e) curl E ^ n, from one batched weak projection."""
    ke = mat.kappa_e
    E = np.stack([wave.field(ke, S.points), wave.curl(ke, S.points) / ke], axis=2)
    gD, gN = sc.helmholtz_decompose(S, np.cross(E, S.normal[:, :, None], axis=1)).T
    return gD, gN


@dataclass
class SystemOperators:
    """Assembled coefficient-space matrices of the scattering system."""

    surface: Surface
    material: Material
    Ce: np.ndarray
    Me: np.ndarray
    Ci: np.ndarray
    Mi: np.ndarray
    C0: np.ndarray
    L: np.ndarray = field(init=False)
    N: np.ndarray = field(init=False)
    S: np.ndarray = field(init=False)

    def __post_init__(self):
        eta = self.material.eta
        rho = self.material.rho
        # (-1/2 + M) X is formed as M X - X/2, without an identity matrix
        self.L = self.Ce + 1j * eta * (self.Me @ self.C0 - 0.5 * self.C0)
        self.N = self.Me + 1j * eta * (self.Ce @ self.C0)
        self.N[np.diag_indices_from(self.N)] -= 0.5
        self.S = self.Ci @ self.N + rho * (self.Mi @ self.L - 0.5 * self.L)

    @cached_property
    def _inv(self):
        try:
            return np.linalg.inv(self.S)
        except np.linalg.LinAlgError as err:
            raise SingularSystem(f"system matrix is singular: {err}") from None

    @cached_property
    def condition(self) -> float:
        """1-norm condition number ||S||_1 ||S^{-1}||_1, exact and O(K^2)
        from the cached inverse."""
        return float(np.linalg.norm(self.S, 1) * np.linalg.norm(self._inv, 1))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """S^{-1} b from the one inverse of S, made on first use."""
        return self._inv @ b

    def rhs(self, gD: np.ndarray, gN: np.ndarray) -> np.ndarray:
        """Right-hand side for stacked incident trace coefficients."""
        rho = self.material.rho
        return self.Ci @ gN + rho * (self.Mi @ gD - 0.5 * gD)


def build_system(S: Surface, mat: Material) -> SystemOperators:
    """Assemble all boundary operator blocks for a surface and material.

    Three kernel passes: one per wavenumber for (C, M), one static for C0.
    """
    Ce, Me = bio.wave_blocks(S, mat.kappa_e)
    Ci, Mi = bio.wave_blocks(S, mat.kappa_i)
    return SystemOperators(
        surface=S, material=mat, Ce=Ce, Me=Me, Ci=Ci, Mi=Mi, C0=bio.static_block(S)
    )


@dataclass
class ScatteringSolution:
    """Solved density and derived traces for one incident wave."""

    surface: Surface
    material: Material
    wave: PlaneWave
    ops: SystemOperators
    j: np.ndarray          # stacked density coefficients
    gD: np.ndarray         # stacked incident Dirichlet trace
    gN: np.ndarray         # stacked incident Neumann trace
    residual: float

    @property
    def tD(self) -> np.ndarray:
        """Interior Dirichlet data gamma_D E_i (stacked coefficients)."""
        return self.gD - self.ops.L @ self.j

    @property
    def tN(self) -> np.ndarray:
        """Interior Neumann data gamma_N^(k_i) E_i (stacked coefficients)."""
        return (self.gN - self.ops.N @ self.j) / self.material.rho


def solve(
    S: Surface,
    mat: Material,
    wave: PlaneWave,
    ops: SystemOperators | None = None,
) -> ScatteringSolution:
    """Solve the single-source system for one incident plane wave; a relative
    residual above RESIDUAL_TOL raises NoConvergence."""
    if ops is None:
        ops = build_system(S, mat)
    gD, gN = incident_traces(S, mat, wave)
    b = ops.rhs(gD, gN)
    j = ops.solve(b)
    res = np.linalg.norm(ops.S @ j - b) / max(np.linalg.norm(b), 1e-300)
    if not res <= RESIDUAL_TOL:  # written so that a NaN residual fails
        raise NoConvergence(f"relative residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return ScatteringSolution(
        surface=S, material=mat, wave=wave, ops=ops, j=j, gD=gD, gN=gN, residual=res
    )


# -- evaluation -----------------------------------------------------------
def _ansatz_far_field(kappa: float, eta: float, d: np.ndarray, I: np.ndarray):
    """Far field of the ansatz -Psi_E j - i eta Psi_M a at the directions d
    from the moments I of shape (ndir, 3, 2) of j (column 0) and a (column 1);
    see bio.far_field_block for the two kinds."""
    FE = bio._far_kind(kappa, d, I, "electric")[:, :, 0]
    FM = bio._far_kind(kappa, d, I, "magnetic")[:, :, 1]
    return -FE - 1j * eta * FM


def far_field(sol: ScatteringSolution, directions: np.ndarray) -> np.ndarray:
    """Scattered far field E_inf at unit directions, shape (ndir, 3).

    Normalized by E_s ~ exp(i k r) / (4 pi r) E_inf(xhat).  The moments of
    j and a = C0 j come from their node values, without forming the
    far-field operators.
    """
    ke = sol.material.kappa_e
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    ja = np.stack([sol.j, sol.ops.C0 @ sol.j], axis=1)
    I = bio._far_moments(sol.surface, ke, d, ja)
    return _ansatz_far_field(ke, sol.material.eta, d, I)


def scattered_field(sol: ScatteringSolution, targets: np.ndarray) -> np.ndarray:
    """E_s at exterior points (smooth-rule evaluation)."""
    S = sol.surface
    ke = sol.material.kappa_e
    out = -bio.electric_potential(S, ke, sol.j, targets)
    a = sol.ops.C0 @ sol.j
    out -= 1j * sol.material.eta * bio.magnetic_potential(S, ke, a, targets)
    return out


def interior_field(sol: ScatteringSolution, targets: np.ndarray) -> np.ndarray:
    """E_i at interior points from the interior representation."""
    S = sol.surface
    ki = sol.material.kappa_i
    return bio.electric_potential(S, ki, sol.tN, targets) + bio.magnetic_potential(
        S, ki, sol.tD, targets
    )
