"""Surface differential operators and their first shape derivatives.

All operators are evaluated intrinsically from the parametric metric of a
:class:`~dielshape.geometry.Surface`; the derivative formulas are the
closed forms for the transported operator families
tau_r o op_{Gamma_r} o tau_r^{-1} at the base surface.

Scalar fields are arrays of shape (N,) or (N, k) (k = batch of columns);
vector fields (N, 3) or (N, 3, k).  Everything works for complex data.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import KindMismatch, NonZeroMean
from .geometry import Surface, projector_pi_inv

__all__ = [
    "HelmholtzDensity",
    "surface_gradient",
    "surface_divergence",
    "surface_scalar_curl",
    "tangential_vector_curl",
    "tangential_jacobian",
    "laplace_beltrami",
    "laplace_beltrami_inverse",
    "helmholtz_decompose",
    "mean_value",
    "mean_curvature",
    "d_normal",
    "d_jacobian",
    "d_surface_operator",
    "rstar_apply",
    "d_rstar",
    "dstar_apply",
    "d_dstar",
    "d_lstar",
    "d_laplace_inverse",
]


# -- broadcasting helpers -------------------------------------------------
def _cross_n(a, n):
    """Cross product a x n for a of shape (N,3[,k]), n of shape (N,3)."""
    if a.ndim == 2:
        return np.cross(a, n)
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * n[:, 2, None] - a[:, 2] * n[:, 1, None]
    out[:, 1] = a[:, 2] * n[:, 0, None] - a[:, 0] * n[:, 2, None]
    out[:, 2] = a[:, 0] * n[:, 1, None] - a[:, 1] * n[:, 0, None]
    return out


def dot_n(a, n):
    """Dot product with a per-node vector, shape (N[,k])."""
    if a.ndim == 2:
        return np.einsum("ij,ij->i", a, n.astype(a.dtype, copy=False))
    return np.einsum("ijk,ij->ik", a, n.astype(a.dtype, copy=False))


# -- first-order operators ------------------------------------------------
def surface_gradient(S: Surface, u: np.ndarray) -> np.ndarray:
    """grad_Gamma u via the contravariant tangent basis."""
    uth = S.grid.dtheta(u)
    uph = S.grid.dphi(u)
    if u.ndim == 1:
        return S.grad_t * uth[:, None] + S.grad_p * uph[:, None]
    return S.grad_t[:, :, None] * uth[:, None, :] + S.grad_p[:, :, None] * uph[:, None, :]


def tangential_vector_curl(S: Surface, u: np.ndarray) -> np.ndarray:
    """curl_Gamma u = grad_Gamma u x n (scalar -> tangential vector)."""
    return _cross_n(surface_gradient(S, u), S.normal)


def tangential_jacobian(S: Surface, U: np.ndarray) -> np.ndarray:
    """Matrix [grad_Gamma U] with entries out[:, a, c] = (grad_Gamma U_c)_a.

    The c-th column is the surface gradient of the c-th Cartesian component;
    this is the matrix written [G(r)u] in the derivative formulas.
    """
    shape = (U.shape[0], 3, 3) if U.ndim == 2 else (U.shape[0], 3, 3, U.shape[2])
    out = np.empty(shape, dtype=U.dtype if np.iscomplexobj(U) else float)
    for c in range(3):
        out[:, :, c] = surface_gradient(S, U[:, c])
    return out


def surface_divergence(S: Surface, U: np.ndarray) -> np.ndarray:
    """div_Gamma U = trace of the tangential Jacobian (extension-free)."""
    out = surface_gradient(S, U[:, 0])[:, 0]
    for c in (1, 2):
        out = out + surface_gradient(S, U[:, c])[:, c]
    return out


def surface_scalar_curl(S: Surface, U: np.ndarray) -> np.ndarray:
    """curl_Gamma U = n . curl(extension of U); defined for any vector field."""
    J = tangential_jacobian(S, U)
    n = S.normal
    if U.ndim == 2:
        curl = np.stack(
            [J[:, 1, 2] - J[:, 2, 1], J[:, 2, 0] - J[:, 0, 2], J[:, 0, 1] - J[:, 1, 0]],
            axis=1,
        )
        return np.einsum("ij,ij->i", curl, n)
    curl = np.stack(
        [J[:, 1, 2] - J[:, 2, 1], J[:, 2, 0] - J[:, 0, 2], J[:, 0, 1] - J[:, 1, 0]],
        axis=1,
    )
    return np.einsum("ijk,ij->ik", curl, n)


def laplace_beltrami(S: Surface, u: np.ndarray) -> np.ndarray:
    return surface_divergence(S, surface_gradient(S, u))


def mean_value(S: Surface, f: np.ndarray) -> np.ndarray:
    """Surface average (1/|Gamma|) int_Gamma f ds."""
    w = S.grid.weights * S.jacobian
    return np.tensordot(w, f, axes=(0, 0)) / S.area


def mean_curvature(S: Surface) -> np.ndarray:
    """H = (1/2) div_Gamma n; equals +1 on the unit sphere."""
    if "mean_curvature" not in S._cache:
        S._cache["mean_curvature"] = 0.5 * surface_divergence(S, S.normal)
    return S._cache["mean_curvature"]


# -- Laplace-Beltrami inverse (spectral Galerkin) -------------------------
def _lb_factor(S: Surface):
    """Cholesky factor of the stiffness matrix on degrees >= 1."""
    if "lb_factor" not in S._cache:
        g = S.grid
        nc = g.ncoef(g.Lmax)
        GY = np.empty((g.nnodes, 3, nc))
        for a in range(3):
            GY[:, a, :] = (
                S.grad_t[:, a, None] * g.Yth + S.grad_p[:, a, None] * g.Yph
            )
        w = g.weights * S.jacobian
        GYw = GY * w[:, None, None]
        A = np.tensordot(GYw, GY, axes=([0, 1], [0, 1]))
        A1 = A[1:, 1:]
        S._cache["lb_gradbasis"] = GY
        S._cache["lb_factor"] = cho_factor(A1)
        S._cache["lb_mass"] = (w[:, None] * g.Y).T  # (nc, N): k-th row int . Y_k ds
    return S._cache["lb_factor"]


def laplace_beltrami_inverse(
    S: Surface, f: np.ndarray, check_mean: bool = True
) -> np.ndarray:
    """Solve Delta_Gamma u = f for mean-zero f; returns the mean-zero representative.

    Galerkin in the spherical-harmonic basis through the grid's full degree:
    int grad u . grad phi ds = -int f phi ds.
    """
    fac = _lb_factor(S)
    mass = S._cache["lb_mass"]
    rhs = -np.tensordot(mass, f, axes=(1, 0))
    if check_mean:
        mean = rhs[0] / np.sqrt(4.0 * np.pi)  # int f ds
        scale = np.max(np.abs(f)) + 1e-300
        if np.max(np.abs(mean)) > 1e-6 * scale:
            raise NonZeroMean(
                f"laplace_beltrami_inverse requires mean-zero data; "
                f"|int f ds| = {np.max(np.abs(mean)):.3e}"
            )
    c = cho_solve(fac, rhs[1:])
    if c.ndim == 1:
        full = np.concatenate([np.zeros(1, dtype=c.dtype), c])
    else:
        full = np.concatenate([np.zeros((1, c.shape[1]), dtype=c.dtype), c], axis=0)
    u = S.grid.synthesize(full)
    return u - mean_value(S, u)


# -- Helmholtz decomposition ----------------------------------------------
class HelmholtzDensity:
    """Tangential field j = grad_Gamma p + curl_Gamma q, stored via (p, q).

    Coefficients are real-spherical-harmonic vectors of length (L+1)^2 with
    the degree-0 entry identically zero (potentials are mean-zero).
    """

    def __init__(self, surface: Surface, p_coeffs, q_coeffs):
        self.surface = surface
        L = surface.grid.L
        nc = surface.grid.ncoef(L)
        self.p_coeffs = np.zeros(nc, dtype=complex)
        self.q_coeffs = np.zeros(nc, dtype=complex)
        self.p_coeffs[: len(p_coeffs)] = p_coeffs
        self.q_coeffs[: len(q_coeffs)] = q_coeffs
        self.p_coeffs[0] = 0.0
        self.q_coeffs[0] = 0.0

    @property
    def grid(self):
        return self.surface.grid

    def potentials(self):
        """Node values of (p, q)."""
        return self.grid.synthesize(self.p_coeffs), self.grid.synthesize(self.q_coeffs)

    def node_values(self) -> np.ndarray:
        p, q = self.potentials()
        return surface_gradient(self.surface, p) + tangential_vector_curl(
            self.surface, q
        )

    def stacked(self) -> np.ndarray:
        """Concatenated (p, q) coefficient vector without the degree-0 slots."""
        return np.concatenate([self.p_coeffs[1:], self.q_coeffs[1:]])

    @classmethod
    def from_stacked(cls, surface: Surface, vec: np.ndarray) -> "HelmholtzDensity":
        n = vec.shape[0] // 2
        p = np.concatenate([[0.0], vec[:n]])
        q = np.concatenate([[0.0], vec[n:]])
        return cls(surface, p, q)

    def norm(self) -> float:
        j = self.node_values()
        w = self.grid.weights * self.surface.jacobian
        return float(np.sqrt(np.sum(w * np.einsum("ij,ij->i", j, j.conj()).real)))


def helmholtz_decompose(S: Surface, j: np.ndarray) -> HelmholtzDensity:
    """Split a tangential field into gradient and rotational potentials.

    p = Delta^{-1} div_Gamma j,  q = -Delta^{-1} curl_Gamma j.
    """
    div = surface_divergence(S, j)
    rot = surface_scalar_curl(S, j)
    p = laplace_beltrami_inverse(S, div, check_mean=False)
    q = -laplace_beltrami_inverse(S, rot, check_mean=False)
    L = S.grid.L
    return HelmholtzDensity(S, S.grid.analyze(p, L), S.grid.analyze(q, L))


# -- shape derivatives of the surface operators ---------------------------
def _xi_values(S: Surface, xi):
    if hasattr(xi, "values"):
        return xi.values
    return np.asarray(xi)


def d_normal(S: Surface, xi) -> np.ndarray:
    """First derivative of the transported unit normal: -[grad_Gamma xi] n."""
    A = tangential_jacobian(S, _xi_values(S, xi))
    return -np.einsum("iac,ic->ia", A, S.normal)


def d_jacobian(S: Surface, xi) -> np.ndarray:
    """First derivative of the surface Jacobian: J div_Gamma xi."""
    return S.jacobian * surface_divergence(S, _xi_values(S, xi))


def d_surface_operator(which: str, S: Surface, xi, u: np.ndarray) -> np.ndarray:
    """Closed-form first derivative of a transported surface operator.

    which in {"gradient", "divergence", "vector_curl", "scalar_curl"}.
    """
    xiv = _xi_values(S, xi)
    A = tangential_jacobian(S, xiv)  # [G xi]
    n = S.normal
    if which == "gradient":
        if u.ndim not in (1, 2) or (u.ndim == 2 and u.shape[1] == 3):
            raise KindMismatch("gradient derivative needs a scalar field")
        gu = surface_gradient(S, u)
        if gu.ndim == 2:
            Agu = np.einsum("iac,ic->ia", A, gu)
            An = np.einsum("iac,ic->ia", A, n)
            return -Agu + np.einsum("ia,ia->i", gu, An)[:, None] * n
        Agu = np.einsum("iac,ick->iak", A, gu)
        An = np.einsum("iac,ic->ia", A, n)
        return -Agu + np.einsum("iak,ia->ik", gu, An)[:, None, :] * n[:, :, None]
    if which == "divergence":
        Au = tangential_jacobian(S, u)
        An = np.einsum("iac,ic->ia", A, n)
        if u.ndim == 2:
            tr = np.einsum("iac,ica->i", A, Au)
            Aun = np.einsum("iac,ic->ia", Au, n)
            return -tr + np.einsum("ia,ia->i", Aun, An)
        tr = np.einsum("iac,icak->ik", A, Au)
        Aun = np.einsum("iack,ic->iak", Au, n)
        return -tr + np.einsum("iak,ia->ik", Aun, An)
    if which == "vector_curl":
        cu = tangential_vector_curl(S, u)
        dxi = surface_divergence(S, xiv)
        if cu.ndim == 2:
            At_cu = np.einsum("iac,ia->ic", A, cu)
            return At_cu - dxi[:, None] * cu
        At_cu = np.einsum("iac,iak->ick", A, cu)
        return At_cu - dxi[:, None, None] * cu
    if which == "scalar_curl":
        dxi = surface_divergence(S, xiv)
        ru = surface_scalar_curl(S, u)
        if u.ndim == 2:
            acc = np.zeros(u.shape[0], dtype=np.result_type(u, float))
            for c in range(3):
                acc += np.einsum(
                    "ia,ia->i", A[:, :, c], tangential_vector_curl(S, u[:, c])
                )
            return -acc - dxi * ru
        acc = np.zeros((u.shape[0], u.shape[2]), dtype=np.result_type(u, float))
        for c in range(3):
            acc += np.einsum(
                "ia,iak->ik", A[:, :, c], tangential_vector_curl(S, u[:, c])
            )
        return -acc - dxi[:, None] * ru
    raise KindMismatch(f"unknown surface operator {which!r}")


# -- transported weighted operators R*, D* --------------------------------
def rstar_apply(base: Surface, S_r: Surface, u: np.ndarray) -> np.ndarray:
    """R*(r) u = J_rel tau_r curl_{Gamma_r} tau_r^{-1} u (J-weighted scalar curl)."""
    jrel = S_r.jacobian / base.jacobian
    out = surface_scalar_curl(S_r, u)
    return out * (jrel if out.ndim == 1 else jrel[:, None])


def d_rstar(S: Surface, xi, u: np.ndarray) -> np.ndarray:
    """dR*[0,xi] u = -sum_c grad_Gamma xi_c . curl_Gamma u_c ; all higher
    derivatives of r -> R*(r) vanish identically."""
    xiv = _xi_values(S, xi)
    A = tangential_jacobian(S, xiv)
    if u.ndim == 2:
        acc = np.zeros(u.shape[0], dtype=np.result_type(u, float))
        for c in range(3):
            acc += np.einsum("ia,ia->i", A[:, :, c], tangential_vector_curl(S, u[:, c]))
        return -acc
    acc = np.zeros((u.shape[0], u.shape[2]), dtype=np.result_type(u, float))
    for c in range(3):
        acc += np.einsum("ia,iak->ik", A[:, :, c], tangential_vector_curl(S, u[:, c]))
    return -acc


def dstar_apply(base: Surface, S_r: Surface, u: np.ndarray) -> np.ndarray:
    """D*(r) u = J_rel tau_r div_{Gamma_r} pi^{-1}(r) u for tangential u."""
    jrel = S_r.jacobian / base.jacobian
    ur = projector_pi_inv(base, S_r, u)
    out = surface_divergence(S_r, ur)
    return out * (jrel if out.ndim == 1 else jrel[:, None])


def d_dstar(S: Surface, xi, u: np.ndarray) -> np.ndarray:
    """First derivative of D*(r) at r = 0 on tangential u."""
    xiv = _xi_values(S, xi)
    dxi = surface_divergence(S, xiv)
    du = surface_divergence(S, u)
    dd = d_surface_operator("divergence", S, xi, u)
    dn = d_normal(S, xi)
    H = mean_curvature(S)
    dn_u = dot_n(u, dn)
    if u.ndim == 2:
        return dxi * du + dd - 2.0 * H * dn_u
    return dxi[:, None] * du + dd - 2.0 * H[:, None] * dn_u


def d_lstar(S: Surface, xi, u: np.ndarray) -> np.ndarray:
    """dL*[0,xi] u for the weighted Laplace-Beltrami family L* = -R*(r) R(r)."""
    cu = tangential_vector_curl(S, u)
    return -d_rstar(S, xi, cu) - surface_scalar_curl(
        S, d_surface_operator("vector_curl", S, xi, u)
    )


def d_laplace_inverse(S: Surface, xi, f: np.ndarray) -> np.ndarray:
    """First derivative of (L*(r))^{-1} f:  -Delta^{-1} dL*[0,xi] Delta^{-1} f."""
    u = laplace_beltrami_inverse(S, f)
    g = d_lstar(S, xi, u)
    return -laplace_beltrami_inverse(S, g, check_mean=False)
