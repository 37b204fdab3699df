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

from . import sh
from .errors import KindMismatch, NonZeroMean
from .geometry import Surface
from .grid import _real_apply

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


# -- first-order operators ------------------------------------------------
def _tangents(S: Surface, ndim: int):
    """grad_Gamma theta and grad_Gamma phi, shape (N, 3) followed by ndim
    unit axes, to broadcast against batched angular derivatives."""
    shape = S.grad_t.shape + (1,) * ndim
    return S.grad_t.reshape(shape), S.grad_p.reshape(shape)


def surface_gradient(S: Surface, u: np.ndarray) -> np.ndarray:
    """grad_Gamma u via the contravariant tangent basis; out[:, a, ...] is the
    a-th Cartesian component for u of shape (N, ...)."""
    gt, gp = _tangents(S, u.ndim - 1)
    return gt * S.grid.dtheta(u)[:, None] + gp * S.grid.dphi(u)[:, None]


def tangential_vector_curl(S: Surface, u: np.ndarray) -> np.ndarray:
    """curl_Gamma u = grad_Gamma u x n (scalar -> tangential vector)."""
    return _cross_n(surface_gradient(S, u), S.normal)


def tangential_jacobian(S: Surface, U: np.ndarray) -> np.ndarray:
    """Matrix [grad_Gamma U] with entries out[:, a, c] = (grad_Gamma U_c)_a.

    The c-th column is the surface gradient of the c-th Cartesian component;
    this is the matrix written [G(r)u] in the derivative formulas.  The three
    components share one d/dtheta and one d/dphi transform.
    """
    return surface_gradient(S, U)


def _div_scurl(S: Surface, U: np.ndarray):
    """(div_Gamma U, curl_Gamma U) from one d/dtheta and one d/dphi transform.

    With t, p = grad_Gamma theta, grad_Gamma phi the tangential Jacobian is
    [grad_Gamma U]_ac = t_a U_c,theta + p_a U_c,phi.  The divergence is its
    trace; the scalar curl n . curl U is its contraction eps_bac n_b, which
    pairs U_theta and U_phi with n ^ t and n ^ p.  The nine entries of the
    Jacobian are never formed.
    """
    t, p = _tangents(S, U.ndim - 2)
    nt, npp = (np.cross(S.normal, v).reshape(t.shape) for v in (S.grad_t, S.grad_p))
    uth, uph = S.grid.dtheta(U), S.grid.dphi(U)
    return (t * uth + p * uph).sum(axis=1), (nt * uth + npp * uph).sum(axis=1)


def surface_divergence(S: Surface, U: np.ndarray) -> np.ndarray:
    """div_Gamma U = trace of the tangential Jacobian (extension-free)."""
    return _div_scurl(S, U)[0]


def surface_scalar_curl(S: Surface, U: np.ndarray) -> np.ndarray:
    """curl_Gamma U = n . curl(extension of U); defined for any vector field."""
    return _div_scurl(S, U)[1]


def laplace_beltrami(S: Surface, u: np.ndarray) -> np.ndarray:
    return surface_divergence(S, surface_gradient(S, u))


def mean_value(S: Surface, f: np.ndarray) -> np.ndarray:
    """Surface average (1/|Gamma|) int_Gamma f ds."""
    w = S.grid.weights * S.jacobian
    return np.tensordot(w, f, axes=(0, 0)) / S.area


def mean_curvature(S: Surface) -> np.ndarray:
    """H = (1/2) div_Gamma n = (1/2) tr W of the shape operator W = grad_Gamma n
    (see _curvature); equals +1 on the unit sphere."""
    return _curvature(S)["H"]


# -- curvature in closed form ---------------------------------------------
def _second_derivatives(grid, coef: np.ndarray) -> np.ndarray:
    """(x_tt, x_tp, x_pp) stacked as (3, N, 3): the second angular
    derivatives at the nodes of the map with coefficients coef (3, nc).

    x_tp and x_pp come from d/dphi on coefficients (sh.dphi_coeffs); x_tt
    from the Legendre equation Y_tt = -n(n+1) Y - cot(t) Y_t - Y_pp / sin^2(t),
    so no basis of second derivatives is built."""
    c = coef.T
    n = grid.degrees[:, None]
    st, ct = np.sin(grid.theta)[:, None], np.cos(grid.theta)[:, None]
    x_tp = grid.synthesize(sh.dphi_coeffs(c), deriv="theta")
    x_pp = grid.synthesize(sh.dphi_coeffs(sh.dphi_coeffs(c)))
    x_t = grid.synthesize(c, deriv="theta")
    x_tt = grid.synthesize(-n * (n + 1) * c) - (ct / st) * x_t - x_pp / st**2
    return np.stack([x_tt, x_tp, x_pp])


def _shape_form(h: np.ndarray, t1, p1, t2, p2) -> np.ndarray:
    """h_tt t1 (x) t2 + h_tp (t1 (x) p2 + p1 (x) t2) + h_pp p1 (x) p2 per node,
    shape (N, 3, 3), for coefficients h of shape (3, N)."""

    def outer(a, b):
        return a[:, :, None] * b[:, None, :]

    return (
        h[0, :, None, None] * outer(t1, t2)
        + h[1, :, None, None] * (outer(t1, p2) + outer(p1, t2))
        + h[2, :, None, None] * outer(p1, p2)
    )


def _curvature(S: Surface) -> dict:
    """Cached closed-form curvature of S: the second derivatives "d2x" of the
    parametrization (_second_derivatives), the second fundamental form
    "h" = x_ij . n, the shape operator "W" = grad_Gamma n and "H" = tr W / 2.

    With t, p = grad_Gamma theta, grad_Gamma phi (dual to x_t, x_p), n_t =
    -h_tt t - h_tp p and n_p = -h_tp t - h_pp p, so
    W = t (x) n_t + p (x) n_p = -(h_tt t t + h_tp (t p + p t) + h_pp p p):
    symmetric, W n = 0, and W = P / a on a sphere of radius a.  It takes no
    transform of node data, only syntheses of the surface coefficients."""
    if "curvature" not in S._cache:
        d2x = _second_derivatives(S.grid, S.coef)
        h = np.einsum("jia,ia->ji", d2x, S.normal)
        W = -_shape_form(h, S.grad_t, S.grad_p, S.grad_t, S.grad_p)
        S._cache["curvature"] = {
            "d2x": d2x,
            "h": h,
            "W": W,
            "H": 0.5 * np.einsum("iaa->i", W),
        }
    return S._cache["curvature"]


def _d_curvature(S: Surface, xi, dN, dt, dp) -> tuple:
    """(dW, dH): derivatives of the transported shape operator and mean
    curvature at the base surface, from the derivatives dN, dt, dp of the
    normal and of grad_Gamma theta, grad_Gamma phi.  The second derivatives
    of the transported map are x_ij + r xi_ij, so dh_ij = xi_ij . n + x_ij . dN."""
    cv = _curvature(S)
    d2xi = _second_derivatives(S.grid, xi.coef)
    dh = np.einsum("jia,ia->ji", d2xi, S.normal)
    dh += np.einsum("jia,ia->ji", cv["d2x"], dN)
    X = _shape_form(cv["h"], dt, dp, S.grad_t, S.grad_p)
    dW = -(_shape_form(dh, S.grad_t, S.grad_p, S.grad_t, S.grad_p) + X)
    dW -= X.swapaxes(1, 2)
    return dW, 0.5 * np.einsum("iaa->i", dW)


# -- Laplace-Beltrami inverse (spectral Galerkin) -------------------------
def _metric_gram(grid, a, b, c) -> np.ndarray:
    """Y_t^T diag(a) Y_t + B + B^T + Y_p^T diag(c) Y_p with B = Y_t^T diag(b) Y_p,
    over the full grid degree (Y_t, Y_p = Y_theta, Y_phi at the nodes).

    With (a, b, c) = w J (t.t, t.p, p.p) this is the stiffness matrix
    int grad_Gamma Y_k . grad_Gamma Y_l ds, since grad_Gamma Y = t Y_theta +
    p Y_phi; with their derivatives, its derivative."""
    Yt, Yp = grid.Yth, grid.Yph
    B = Yt.T @ (b[:, None] * Yp)
    return Yt.T @ (a[:, None] * Yt) + B + B.T + Yp.T @ (c[:, None] * Yp)


def _lb_data(S: Surface) -> dict:
    """Cached Galerkin data of the Laplace-Beltrami operator in the full
    spherical-harmonic basis: the inverse of the stiffness matrix
    (_metric_gram) on degrees >= 1 ("inverse"), its rows for the solver
    degrees 1..L ("rows", (K, nc - 1)) and the mass rows int . Y_k ds
    ("mass", (nc, N)).

    The Galerkin solves run over the full grid degree, but the solver keeps
    only degrees <= L; "rows" gives those coefficients directly.  A solve is
    a product with the inverse, which the well conditioned stiffness matrix
    (eigenvalues growing like l(l+1), l = 1..Lmax) allows.  The inverse
    comes from numpy.linalg, whose LAPACK runs on numpy's BLAS threads:
    scipy.linalg links its own OpenBLAS, whose threads compete with numpy's
    when several are in use, and its Cholesky factor and triangular solves
    of this small matrix then took tens of milliseconds each."""
    if "lb" not in S._cache:
        g = S.grid
        w = g.weights * S.jacobian
        t, p = S.grad_t, S.grad_p
        metric = (np.einsum("ia,ia->i", u, v) for u, v in ((t, t), (t, p), (p, p)))
        A = _metric_gram(g, *(w * m for m in metric))
        inverse = np.linalg.inv(A[1:, 1:])
        S._cache["lb"] = {
            "inverse": inverse,
            "rows": inverse[: g.ncoef(g.L) - 1],
            "mass": (w[:, None] * g.Y).T,
        }
    return S._cache["lb"]


def _lb_solve(S: Surface, rhs: np.ndarray) -> np.ndarray:
    """Mean-zero Galerkin solve: u[0] = 0 and A u[1:] = rhs[1:] (batched)."""
    out = np.zeros(rhs.shape, dtype=np.result_type(rhs, float))
    out[1:] = _real_apply(_lb_data(S)["inverse"], rhs[1:])
    return out


def laplace_beltrami_inverse(
    S: Surface, f: np.ndarray, check_mean: bool = True
) -> np.ndarray:
    """Solve Delta_Gamma u = f for mean-zero f; returns the mean-zero representative.

    Galerkin in the spherical-harmonic basis through the grid's full degree:
    int grad u . grad phi ds = -int f phi ds.
    """
    rhs = -_real_apply(_lb_data(S)["mass"], f)
    if check_mean:
        mean = rhs[0] / np.sqrt(4.0 * np.pi)  # int f ds
        scale = np.max(np.abs(f)) + 1e-300
        if np.max(np.abs(mean)) > 1e-6 * scale:
            raise NonZeroMean(
                f"laplace_beltrami_inverse requires mean-zero data; "
                f"|int f ds| = {np.max(np.abs(mean)):.3e}"
            )
    u = S.grid.synthesize(_lb_solve(S, rhs))
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

    p = Delta^{-1} div_Gamma j,  q = -Delta^{-1} curl_Gamma j, taken from the
    Galerkin solves at the solver degrees.
    """
    lb = _lb_data(S)
    div, rot = _div_scurl(S, j)
    rhs = _real_apply(lb["mass"], np.stack([-div, rot], axis=1))
    pq = _real_apply(lb["rows"], rhs[1:])  # = _lb_solve(S, rhs)[1:ncL]
    return HelmholtzDensity.from_stacked(S, pq.T.ravel())


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
        Agu = np.einsum("iac,ic...->ia...", A, gu)
        An = np.einsum("iac,ic->ia", A, n)
        nb = n if gu.ndim == 2 else n[:, :, None]
        return -Agu + np.einsum("ia...,ia->i...", gu, An)[:, None] * nb
    if which == "divergence":
        Au = tangential_jacobian(S, u)
        An = np.einsum("iac,ic->ia", A, n)
        tr = np.einsum("iac,ica...->i...", A, Au)
        Aun = np.einsum("iac...,ic->ia...", Au, n)
        return -tr + np.einsum("ia...,ia->i...", Aun, An)
    if which == "vector_curl":
        cu = tangential_vector_curl(S, u)
        dxi = surface_divergence(S, xiv)
        At_cu = np.einsum("iac,ia...->ic...", A, cu)
        return At_cu - (dxi[:, None] if cu.ndim == 2 else dxi[:, None, None]) * cu
    if which == "scalar_curl":
        dxi = surface_divergence(S, xiv)
        ru = surface_scalar_curl(S, u)
        return _d_rstar(S, A, u) - (dxi if u.ndim == 2 else dxi[:, None]) * ru
    raise KindMismatch(f"unknown surface operator {which!r}")


# -- transported weighted operators R*, L* --------------------------------
def rstar_apply(base: Surface, S_r: Surface, u: np.ndarray) -> np.ndarray:
    """R*(r) u = J_rel tau_r curl_{Gamma_r} tau_r^{-1} u (J-weighted scalar curl)."""
    jrel = S_r.jacobian / base.jacobian
    out = surface_scalar_curl(S_r, u)
    return out * (jrel if out.ndim == 1 else jrel[:, None])


def _d_rstar(S: Surface, A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """-sum_c grad_Gamma xi_c . curl_Gamma u_c for A = [grad_Gamma xi]."""
    acc = 0.0
    for c in range(3):
        curl_c = tangential_vector_curl(S, u[:, c])
        acc = acc + np.einsum("ia,ia...->i...", A[:, :, c], curl_c)
    return -acc


def d_rstar(S: Surface, xi, u: np.ndarray) -> np.ndarray:
    """dR*[0,xi] u = -sum_c grad_Gamma xi_c . curl_Gamma u_c ; all higher
    derivatives of r -> R*(r) vanish identically."""
    return _d_rstar(S, tangential_jacobian(S, _xi_values(S, xi)), u)


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
