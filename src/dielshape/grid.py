"""Reference-sphere quadrature grid and discrete spherical-harmonic transforms.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) (``nquad``
points) with a uniform azimuthal rule (``2*nquad`` points).  With
``Lmax = nquad - 1`` the rule integrates products of two harmonics of degree
<= Lmax exactly, which is what both the discrete transform and the singular
product quadrature need.  Angular derivatives of node data go through the
coefficients; the one N x N matrix is the product rule for weakly singular
kernels (singular_weights), which carries the reference chord in it.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import sh
from .errors import ResolutionTooLow

__all__ = ["ReferenceGrid"]

def _real_apply(op: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The real matrix op applied along the first axis of f, in real
    arithmetic.

    Complex data enters through its real view, which interleaves real and
    imaginary parts as columns; a real f is its own view, so both kinds of
    data take the same path.
    """
    f = np.ascontiguousarray(f, dtype=np.result_type(f, float))
    cols = f.reshape(f.shape[0], math.prod(f.shape[1:])).view(np.float64)
    out = np.ascontiguousarray(op @ cols)
    return out.view(f.dtype).reshape(out.shape[:1] + f.shape[1:])


class ReferenceGrid:
    """Quadrature nodes, weights and spectral transform data on S^2.

    Parameters
    ----------
    L : int
        Spectral truncation degree for densities / Helmholtz potentials.
    nquad : int
        Number of Gauss-Legendre polar nodes; must satisfy nquad >= 2L+2.
    """

    _cache: dict = {}

    def __init__(self, L: int, nquad: int):
        if L < 2:
            raise ValueError("spectral truncation degree L must be >= 2")
        if nquad < 2 * L + 2:
            raise ResolutionTooLow(
                f"nquad={nquad} cannot resolve degree-2L products; need >= {2 * L + 2}"
            )
        self.L = int(L)
        self.nquad = int(nquad)
        self.ntheta = int(nquad)
        self.nphi = 2 * int(nquad)
        self.Lmax = self.ntheta - 1

        xg, wg = np.polynomial.legendre.leggauss(self.ntheta)
        # descending in cos(theta) = ascending in theta
        order = np.argsort(-xg)
        xg, wg = xg[order], wg[order]
        self.theta_1d = np.arccos(xg)
        self.phi_1d = 2.0 * np.pi * np.arange(self.nphi) / self.nphi

        th, ph = np.meshgrid(self.theta_1d, self.phi_1d, indexing="ij")
        self.theta = th.ravel()
        self.phi = ph.ravel()
        self.nnodes = self.theta.size
        w2d = np.outer(wg, np.full(self.nphi, 2.0 * np.pi / self.nphi))
        self.weights = w2d.ravel()

        st, ct = np.sin(self.theta), np.cos(self.theta)
        sp, cp = np.sin(self.phi), np.cos(self.phi)
        self.nodes = np.stack([st * cp, st * sp, ct], axis=1)

        self.Y, self.Yth, self.Yph = sh.sh_basis(self.Lmax, self.theta, self.phi)
        # analysis: c_k = sum_i w_i Y_k(x_i) f(x_i)
        self.analysis_full = (self.weights[:, None] * self.Y).T
        self.degrees, self.orders = sh.degree_order_arrays(self.Lmax)

    # -- construction ----------------------------------------------------
    @classmethod
    def get(cls, L: int, nquad: int) -> "ReferenceGrid":
        """Memoized constructor (grids are immutable and expensive)."""
        key = (int(L), int(nquad))
        if key not in cls._cache:
            cls._cache[key] = cls(L, nquad)
        return cls._cache[key]

    # -- transforms ------------------------------------------------------
    def ncoef(self, L: int | None = None) -> int:
        return sh.num_coeffs(self.L if L is None else L)

    def analyze(self, f: np.ndarray, L: int | None = None) -> np.ndarray:
        """Spherical-harmonic coefficients of node values, degrees <= L."""
        nc = self.ncoef(L)
        return _real_apply(self.analysis_full[:nc], f)

    def synthesize(self, c: np.ndarray, deriv: str | None = None) -> np.ndarray:
        """Node values (or an angular derivative) from coefficients."""
        nc = c.shape[0]
        basis = {None: self.Y, "theta": self.Yth, "phi": self.Yph}[deriv]
        return _real_apply(basis[:, :nc], c)

    def dtheta(self, f: np.ndarray) -> np.ndarray:
        """Spectral d/dtheta of node values, through their coefficients."""
        return self.synthesize(self.analyze(f, self.Lmax), deriv="theta")

    def dphi(self, f: np.ndarray) -> np.ndarray:
        """Spectral d/dphi of node values, through their coefficients."""
        return self.synthesize(self.analyze(f, self.Lmax), deriv="phi")

    # -- singular product quadrature -------------------------------------
    @cached_property
    def singular_weights(self) -> np.ndarray:
        """Product rule W = B o C for kernels g = F / |xhat - yhat| with F
        smooth off the diagonal: W[i,j] g(x_i, y_j) = B[i,j] F(x_i, y_j), i != j.

        B = Y diag(1/(2n+1)) Y^T W_q gives int f(y) / (4 pi |x_i - y|) ds(y)
        on the unit sphere exactly for harmonics f of degree <= Lmax (via
        1/|x-y| = sum_n P_n(x.y) and the addition theorem).  The chords
        C[i,j] = |xhat_i - xhat_j| are set to 1 on the diagonal, so W's
        diagonal is B's; the caller multiplies it by the limit of F.
        """
        chord = np.sqrt(2.0 - 2.0 * np.clip(self.nodes @ self.nodes.T, -1.0, 1.0))
        np.fill_diagonal(chord, 1.0)
        scale = 1.0 / (2.0 * self.degrees + 1.0)
        return (self.Y * scale) @ self.analysis_full * chord

    def __repr__(self):
        return f"ReferenceGrid(L={self.L}, nquad={self.nquad})"
