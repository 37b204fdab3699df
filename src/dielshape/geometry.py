"""Surfaces over the reference sphere and deformation fields.

A surface is stored as real spherical-harmonic coefficients of the three
Cartesian components of the parametrization x(theta, phi); star-shaped
surfaces x = rho(xhat) xhat are the common special case.  All node data
(points, tangents, normal, Jacobian, metric) is synthesized analytically from
the coefficients -- no finite differencing of geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import ReferenceGrid
from .errors import (
    GridMismatch,
    InadmissibleDeformation,
    NonPositiveRadial,
)

__all__ = [
    "Material",
    "Surface",
    "DeformationField",
    "build_surface",
    "sphere",
    "deform",
]


@dataclass(frozen=True)
class Material:
    """Piecewise-constant electromagnetic material data.

    kappa_* are the interior/exterior wavenumbers, rho the impedance-type
    contrast entering the integral equation, eta the coupling parameter of
    the single-source layer ansatz.
    """

    eps_i: float = 2.25
    eps_e: float = 1.0
    mu_i: float = 1.0
    mu_e: float = 1.0
    omega: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        for name in ("eps_i", "eps_e", "mu_i", "mu_e", "omega", "eta"):
            if not getattr(self, name) > 0:  # written so that NaN fails
                raise ValueError(f"material constant {name} must be positive")

    @property
    def kappa_i(self) -> float:
        return self.omega * np.sqrt(self.mu_i * self.eps_i)

    @property
    def kappa_e(self) -> float:
        return self.omega * np.sqrt(self.mu_e * self.eps_e)

    @property
    def rho(self) -> float:
        return self.kappa_i * self.mu_e / (self.kappa_e * self.mu_i)


class Surface:
    """Discretized closed surface parametrized over the reference sphere."""

    def __init__(self, grid: ReferenceGrid, coef: np.ndarray, radial=None):
        self.grid = grid
        self.coef = np.asarray(coef, dtype=float)  # (3, ncoef_full)
        if self.coef.shape != (3, grid.ncoef(grid.Lmax)):
            raise ValueError("surface coefficients must span the full grid basis")
        self.radial = radial  # coefficients of rho if star-shaped, else None
        self._cache: dict = {}
        self._compute_node_data()

    def _compute_node_data(self):
        g = self.grid
        c = self.coef.T  # (ncoef, 3)
        self.points = g.synthesize(c)
        self.xt = g.synthesize(c, deriv="theta")
        self.xp = g.synthesize(c, deriv="phi")
        cross = np.cross(self.xt, self.xp)
        norm = np.linalg.norm(cross, axis=1)
        if np.any(norm <= 0):
            raise InadmissibleDeformation("degenerate parametrization (|xt x xp| = 0)")
        self.normal = cross / norm[:, None]
        st = np.sin(g.theta)
        self.jacobian = norm / st
        # first fundamental form and contravariant tangent basis
        E = np.einsum("ij,ij->i", self.xt, self.xt)
        F = np.einsum("ij,ij->i", self.xt, self.xp)
        G = np.einsum("ij,ij->i", self.xp, self.xp)
        W2 = E * G - F * F
        self.grad_t = (G[:, None] * self.xt - F[:, None] * self.xp) / W2[:, None]
        self.grad_p = (E[:, None] * self.xp - F[:, None] * self.xt) / W2[:, None]

    @property
    def area(self) -> float:
        return float(np.sum(self.grid.weights * self.jacobian))

    def __repr__(self):
        return f"Surface(grid={self.grid!r}, area={self.area:.6f})"


def surface_memo(fn):
    """Memoize fn(S) or fn(S, xi) in S._cache under fn's name.  A function of
    a deformation keeps its value for the last xi only, matched by identity:
    the derivative routes work along one xi at a time."""
    name = fn.__name__

    @functools.wraps(fn)
    def cached(S, xi=None):
        hit = S._cache.get(name)
        if hit is None or hit[0] is not xi:
            hit = S._cache[name] = (xi, fn(S) if xi is None else fn(S, xi))
        return hit[1]

    return cached


class DeformationField:
    """Smooth vector field xi on a surface, stored spectrally per component."""

    def __init__(self, grid: ReferenceGrid, coef: np.ndarray):
        self.grid = grid
        self.coef = np.asarray(coef, dtype=float)
        if self.coef.shape != (3, grid.ncoef(grid.Lmax)):
            raise ValueError("deformation coefficients must span the full grid basis")
        self.values = grid.synthesize(self.coef.T)

    @classmethod
    def from_node_values(cls, grid: ReferenceGrid, values: np.ndarray):
        return cls(grid, grid.analyze(np.asarray(values, float), grid.Lmax).T)

    @classmethod
    def radial(cls, surface: Surface) -> "DeformationField":
        """xi = x on the surface (uniform dilation direction)."""
        return cls(surface.grid, surface.coef.copy())

    @classmethod
    def translation(cls, grid: ReferenceGrid, d) -> "DeformationField":
        coef = np.zeros((3, grid.ncoef(grid.Lmax)))
        # Y_00 = 1/sqrt(4 pi); a constant c has coefficient c*sqrt(4 pi)
        coef[:, 0] = np.asarray(d, dtype=float) * np.sqrt(4.0 * np.pi)
        return cls(grid, coef)

    @classmethod
    def radial_profile(cls, grid: ReferenceGrid, profile_coeffs: np.ndarray):
        """xi = f(xhat) xhat with f given by real SH coefficients."""
        c = np.zeros(grid.ncoef(grid.Lmax))
        pc = np.asarray(profile_coeffs, dtype=float)
        c[: pc.shape[0]] = pc
        f = grid.synthesize(c)
        vals = f[:, None] * grid.nodes
        return cls.from_node_values(grid, vals)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.linalg.norm(self.values, axis=1)))


def build_surface(radial, L: int, nquad: int) -> Surface:
    """Star-shaped surface x = rho(xhat) xhat from SH coefficients of rho.

    ``radial`` may be a flat coefficient vector, a {"n,m": value} map, or a
    scalar (sphere radius).
    """
    from . import sh as _sh

    grid = ReferenceGrid.get(L, nquad)
    nc_full = grid.ncoef(grid.Lmax)
    rho_c = np.zeros(nc_full)
    if np.isscalar(radial):
        rho_c[0] = float(radial) * np.sqrt(4.0 * np.pi)
    elif isinstance(radial, dict):
        vec = _sh.coeff_dict_to_vector(radial, grid.Lmax)
        rho_c[: vec.shape[0]] = vec
    else:
        vec = np.asarray(radial, dtype=float)
        if vec.shape[0] > nc_full:
            raise ValueError("radial coefficient vector longer than grid basis")
        rho_c[: vec.shape[0]] = vec
    rho = grid.synthesize(rho_c)
    if not np.all(rho > 0):  # written so that NaN fails
        raise NonPositiveRadial(f"min rho = {rho.min():.3e} on the grid, not positive")
    coef = grid.analyze(rho[:, None] * grid.nodes, grid.Lmax).T
    return Surface(grid, coef, radial=rho_c)


def sphere(radius: float, L: int, nquad: int) -> Surface:
    return build_surface(float(radius), L, nquad)


def deform(base: Surface, xi: DeformationField, t: float) -> Surface:
    """Surface for Gamma_{t xi} = { x + t xi(x) : x in Gamma }."""
    if base.grid is not xi.grid:
        raise GridMismatch("deformation field lives on a different grid")
    if t == 0.0:
        return base
    out = Surface(base.grid, base.coef + t * xi.coef)
    if np.any(out.jacobian <= 0):
        raise InadmissibleDeformation("deformed surface has non-positive Jacobian")
    support = np.einsum("ij,ij->i", out.points, out.normal)
    if np.any(support <= 0):
        raise InadmissibleDeformation(
            "deformed surface is no longer star-shaped about the origin "
            f"(min x.n = {support.min():.3e})"
        )
    align = np.einsum("ij,ij->i", out.normal, base.normal)
    if np.min(align) < 0.1:
        raise InadmissibleDeformation(
            f"normal alignment n_r.n dropped to {align.min():.3f} < 0.1"
        )
    return out
