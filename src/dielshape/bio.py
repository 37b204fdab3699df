"""Boundary integral operators of the Maxwell layer ansatz, in Helmholtz
coordinates.

Tangential densities are represented by the scalar potentials (p, q) of
j = grad_Gamma p + curl_Gamma q, stored as mean-zero real-spherical-harmonic
coefficient stacks s = [p_1.., q_1..] of length 2((L+1)^2 - 1).  Every
boundary operator becomes a dense complex matrix acting on such stacks:

* ``electric_block``  -- the tangential trace of the electric potential,
  C_k j = -k n ^ V_k j + (1/k) curl_Gamma V_k (div_Gamma j), taken with the
  orientation gamma_D u = u ^ n.
* ``magnetic_block``  -- the principal value M_k j = (curl Psi_k j) ^ n,
  realized in a Galerkin form that only needs single-layer and
  normal-derivative kernels (the exterior/interior traces of curl Psi are
  -1/2 j + M j and +1/2 j + M j).
* ``static_block``    -- the static coupling j -> -n ^ V_0 j - curl_Gamma
  V_0 (div_Gamma j) used to regularize the layer ansatz.

``d_*_block`` variants return the first derivative, at the base surface, of
the transported-operator family r -> block(Gamma + r xi) with the potential
coefficients held fixed; they differentiate the exact discrete recipe
(kernel matrices, surface operators, Galerkin solves) term by term, so they
agree with finite differences of the primal assembly to O(h^2).  They take
an optional coefficient batch c of shape (2K, m) and return dBlock @ c
without forming the matrix: every stage then runs on m columns instead of
2K.  Without c the batch is the identity and the result is the matrix.

Far-field operators and smooth off-surface potential evaluations are at the
end of the module.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve

from .errors import TargetOnSurface
from .geometry import Surface, DeformationField
from . import kernels as kn
from . import surfcalc as sc

__all__ = [
    "density_basis",
    "electric_block",
    "magnetic_block",
    "static_block",
    "d_electric_block",
    "d_magnetic_block",
    "d_static_block",
    "far_field_block",
    "d_far_field_block",
    "scalar_single_layer",
    "electric_potential",
    "magnetic_potential",
    "d_electric_potential",
    "d_magnetic_potential",
]

_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[0, 1, 2] = _LEVI_CIVITA[1, 2, 0] = _LEVI_CIVITA[2, 0, 1] = 1.0
_LEVI_CIVITA[0, 2, 1] = _LEVI_CIVITA[2, 1, 0] = _LEVI_CIVITA[1, 0, 2] = -1.0


# -- basis densities and Galerkin plumbing --------------------------------
def _basis_fields(S: Surface) -> dict:
    """Cached node data of the potential basis: gradients, curls, Laplacians.

    GY[:, a, k] = (grad_Gamma Y_k)_a, TK = GY ^ n (the curl basis),
    LBY[:, k] = Delta_Gamma Y_k, over the full grid degree.
    """
    if "bio_basis" not in S._cache:
        g = S.grid
        sc._lb_factor(S)  # ensures lb_gradbasis / lb_mass / lb_factor
        GY = S._cache["lb_gradbasis"]
        n = S.normal
        TK = np.cross(GY, n[:, :, None], axis=1)
        LBY = np.zeros((g.nnodes, g.ncoef(g.Lmax)))
        for a in range(3):
            LBY += sc.surface_gradient(S, GY[:, a, :])[:, a, :]
        S._cache["bio_basis"] = {"GY": GY, "TK": TK, "LBY": LBY}
    return S._cache["bio_basis"]


def _magnetic_test_divs(S: Surface) -> np.ndarray:
    """Cached Df[b] = div_Gamma F_b - 2 H n.F_b with F_b = e_b ^ grad_Gamma Y.

    Shape (N, 3, nc_full), like TK; independent of the wavenumber.
    """
    if "bio_Df" not in S._cache:
        g = S.grid
        GY = _basis_fields(S)["GY"]
        n = S.normal
        H = sc.mean_curvature(S)
        Df = []
        for b in range(3):
            eb = np.zeros(3)
            eb[b] = 1.0
            F = np.cross(np.broadcast_to(eb, (g.nnodes, 3))[:, :, None], GY, axis=1)
            nF = np.einsum("ij,ijk->ik", n, F)
            Df.append(_div_batch(S, F) - 2.0 * H[:, None] * nF)
        S._cache["bio_Df"] = np.stack(Df, axis=1)
    return S._cache["bio_Df"]


def density_basis(S: Surface):
    """Node values of the 2K basis densities of the solver space.

    Returns (jb, divb): jb has shape (N, 3, 2K) with gradient-type columns
    first, divb holds div_Gamma of each column (zero for the curl family).
    """
    bb = _basis_fields(S)
    ncL = S.grid.ncoef(S.grid.L)
    K = ncL - 1
    jb = np.concatenate([bb["GY"][:, :, 1:ncL], bb["TK"][:, :, 1:ncL]], axis=2)
    divb = np.concatenate(
        [bb["LBY"][:, 1:ncL], np.zeros((S.grid.nnodes, K))], axis=1
    )
    return jb, divb


def _weak_poisson(S: Surface, f: np.ndarray) -> np.ndarray:
    """Coefficients of the mean-zero weak solution of Delta u = f (batched)."""
    fac = sc._lb_factor(S)
    mass = S._cache["lb_mass"]
    rhs = -(mass @ f)
    out = np.zeros(rhs.shape, dtype=complex)
    out[1:] = cho_solve(fac, rhs[1:])
    return out


def _div_batch(S: Surface, U: np.ndarray) -> np.ndarray:
    out = sc.surface_gradient(S, U[:, 0, :])[:, 0, :].astype(U.dtype)
    for c in (1, 2):
        out += sc.surface_gradient(S, U[:, c, :])[:, c, :]
    return out


def _scurl_batch(S: Surface, U: np.ndarray) -> np.ndarray:
    return sc.surface_scalar_curl(S, U)


def _cross_n_batch(n: np.ndarray, U: np.ndarray) -> np.ndarray:
    """n ^ U for a batch U of shape (N, 3, K)."""
    return np.cross(n[:, :, None], U, axis=1)


def _vec_apply(Vmat: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Apply an (N, N) kernel matrix componentwise to (N, 3, K) fields."""
    return np.tensordot(Vmat, U, axes=(1, 0))


def _bsum(T: np.ndarray, U: np.ndarray) -> np.ndarray:
    """sum_b T[:, b]^T U[:, b] for T of shape (N, 3, k) and U of shape (N, 3, m)."""
    return np.tensordot(T, U, axes=([0, 1], [0, 1]))


def _project(S: Surface, f: np.ndarray) -> np.ndarray:
    """Mean-zero reference-sphere coefficients of node values, solver degrees."""
    ncL = S.grid.ncoef(S.grid.L)
    return S.grid.analyze(f, S.grid.L)[1:ncL]


# -- primal operator blocks ----------------------------------------------
def electric_block(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of C_kappa = gamma_D Psi_E on stacked (p, q) coefficients."""
    jb, divb = density_basis(S)
    V = kn.vmat(S, kappa)
    a = _cross_n_batch(S.normal, _vec_apply(V, jb))
    p1 = _weak_poisson(S, _div_batch(S, a))
    q1 = _weak_poisson(S, _scurl_batch(S, a))
    ncL = S.grid.ncoef(S.grid.L)
    p_rows = -kappa * p1[1:ncL]
    q_rows = kappa * q1[1:ncL] + (1.0 / kappa) * _project(S, V @ divb)
    return np.concatenate([p_rows, q_rows], axis=0)


def _magnetic_galerkin_rhs(S: Surface, kappa: float):
    """Cached target-independent matrices of the magnetic Galerkin form.

    Per Cartesian component b, W[b] = V Df[b] - KS TK_b has shape
    (N, nc_full) and the rotational coefficients are c = sum_b W[b]^T (w J j_b).
    """
    key = ("mag_rhs", float(kappa))
    if key not in S._cache:
        TK = _basis_fields(S)["TK"]
        Df = _magnetic_test_divs(S)
        V = kn.vmat(S, kappa)
        KS = kn.kprime_src_mat(S, kappa)
        S._cache[key] = [V @ Df[:, b, :] - KS @ TK[:, b, :] for b in range(3)]
    return S._cache[key]


def magnetic_block(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of M_kappa = (curl Psi_kappa . ) ^ n (principal value).

    The gradient potential follows from div_Gamma(M j) = kappa^2 n.Vj +
    K'(div_Gamma j); the rotational potential from the weak form
    int curl_Gamma Y . M j ds = int grad Y . (grad G ^ j) ds integrated by
    parts so that only weakly singular kernels appear.
    """
    g = S.grid
    jb, divb = density_basis(S)
    n = S.normal
    wJ = g.weights * S.jacobian
    V = kn.vmat(S, kappa)
    KP = kn.kprime_mat(S, kappa)
    ncL = g.ncoef(g.L)

    Vj = _vec_apply(V, jb)
    nVj = np.einsum("ij,ijk->ik", n, Vj)
    p_rows = _weak_poisson(S, kappa**2 * nVj + KP @ divb)[1:ncL]

    W = _magnetic_galerkin_rhs(S, kappa)
    c = np.zeros((g.ncoef(g.Lmax), 2 * (ncL - 1)), dtype=complex)
    for b in range(3):
        c += W[b].T @ (wJ[:, None] * jb[:, b, :])
    fac = sc._lb_factor(S)
    Q = np.zeros_like(c)
    Q[1:] = cho_solve(fac, c[1:])
    q_rows = -Q[1:ncL]
    return np.concatenate([p_rows, q_rows], axis=0)


def static_block(S: Surface) -> np.ndarray:
    """Matrix of the static coupling j -> -n^V_0 j - curl_Gamma V_0 div_Gamma j."""
    jb, divb = density_basis(S)
    V0 = kn.vmat(S, 0.0)
    a = _cross_n_batch(S.normal, _vec_apply(V0, jb))
    ncL = S.grid.ncoef(S.grid.L)
    p_rows = -_weak_poisson(S, _div_batch(S, a))[1:ncL]
    q_rows = _weak_poisson(S, _scurl_batch(S, a))[1:ncL] - _project(S, V0 @ divb)
    return np.concatenate([p_rows, q_rows], axis=0)


# -- shape derivatives of the blocks --------------------------------------
def _dgeom(S: Surface, xi: DeformationField) -> dict:
    """Stage derivatives shared by all transported-block assemblies."""
    ent = S._cache.get("dgeom")
    if ent is not None and ent[0] is xi:
        return ent[1]
    g = S.grid
    bb = _basis_fields(S)
    GY, TK = bb["GY"], bb["TK"]
    n = S.normal
    xiv = xi.values
    dN = sc.d_normal(S, xi)
    divxi = sc.surface_divergence(S, xiv)
    dJ = S.jacobian * divxi
    dGY = sc.d_surface_operator("gradient", S, xi, g.Y)
    dTK = np.cross(dGY, n[:, :, None], axis=1) + np.cross(GY, dN[:, :, None], axis=1)
    dH = 0.5 * (
        sc.d_surface_operator("divergence", S, xi, n) + sc.surface_divergence(S, dN)
    )
    # d/dt div_Gamma U for the fields U = M GY with constant 3x3 mixes M:
    # M = [e_b ^ .] gives F_b of the magnetic test divergences Df[b], M = I
    # gives GY itself (dLBY).  This is the divergence formula of
    # sc.d_surface_operator plus div_Gamma dU, written so that the surface
    # gradients of the components of GY and dGY are computed once for all U.
    mixes = np.concatenate([_LEVI_CIVITA.transpose(1, 0, 2), np.eye(3)[None]])
    A = sc.tangential_jacobian(S, xiv)
    An = np.einsum("iac,ic->ia", A, n)
    W = np.einsum("bej,ie,ic->ibjc", mixes, n, An)
    W -= np.einsum("baj,iac->ibjc", mixes, A)
    ddiv = np.zeros((g.nnodes, 4, GY.shape[2]))
    for j in range(3):
        Tj = sc.surface_gradient(S, GY[:, j])
        dTj = sc.surface_gradient(S, dGY[:, j])
        ddiv += np.einsum("ibc,ick->ibk", W[:, :, j], Tj)
        ddiv += np.einsum("bc,ick->ibk", mixes[:, :, j], dTj)
    dLBY = ddiv[:, 3, : g.ncoef(g.L)].copy()  # a view would keep ddiv alive
    # Df[b] = div_Gamma F_b - 2 H n.F_b
    nF = np.einsum("cbj,ic,ijk->ibk", _LEVI_CIVITA, n, GY)
    dnF = np.einsum("cbj,ic,ijk->ibk", _LEVI_CIVITA, dN, GY)
    dnF += np.einsum("cbj,ic,ijk->ibk", _LEVI_CIVITA, n, dGY)
    H = sc.mean_curvature(S)
    dDf = ddiv[:, :3] - 2.0 * dH[:, None, None] * nF - 2.0 * H[:, None, None] * dnF
    # Galerkin stage derivatives
    w = g.weights
    GYw = GY * (w * S.jacobian)[:, None, None]
    dA = np.tensordot(GYw, dGY, axes=([0, 1], [0, 1]))
    dA = dA + dA.T
    dA += np.tensordot(GY * (w * dJ)[:, None, None], GY, axes=([0, 1], [0, 1]))
    dmass = ((w * dJ)[:, None] * g.Y).T
    out = {
        "dN": dN,
        "dJ": dJ,
        "divxi": divxi,
        "dGY": dGY,
        "dTK": dTK,
        "dLBY": dLBY,
        "dDf": dDf,
        "dA": dA,
        "dmass": dmass,
    }
    S._cache["dgeom"] = (xi, out)
    return out


def _d_weak_poisson(S: Surface, dg: dict, f: np.ndarray, df: np.ndarray):
    """Derivative of the transported Galerkin solve u(r) = Delta_r^{-1} f(r)."""
    fac = sc._lb_factor(S)
    mass = S._cache["lb_mass"]
    u = _weak_poisson(S, f)
    rhs = -(dg["dmass"] @ f) - (mass @ df) - dg["dA"] @ u
    out = np.zeros(rhs.shape, dtype=complex)
    out[1:] = cho_solve(fac, rhs[1:])
    return out


def _d_density_basis(S: Surface, dg: dict):
    """Derivatives of the transported basis densities and their divergences."""
    ncL = S.grid.ncoef(S.grid.L)
    K = ncL - 1
    djb = np.concatenate([dg["dGY"][:, :, 1:ncL], dg["dTK"][:, :, 1:ncL]], axis=2)
    ddivb = np.concatenate(
        [dg["dLBY"][:, 1:ncL], np.zeros((S.grid.nnodes, K))], axis=1
    )
    return djb, ddivb


def _d_div(S: Surface, xi, U, dU):
    return sc.d_surface_operator("divergence", S, xi, U) + _div_batch(S, dU)


def _d_scurl(S: Surface, xi, U, dU):
    return sc.d_surface_operator("scalar_curl", S, xi, U) + _scurl_batch(S, dU)


def _coef_batch(S: Surface, dg: dict, c):
    """Node values of the densities with coefficient batch c, their
    divergences, and the stage derivatives of both.

    c has shape (2K, m); c = None stands for the identity, so the basis
    densities themselves are returned and the caller assembles a matrix.
    """
    jb, divb = density_basis(S)
    djb, ddivb = _d_density_basis(S, dg)
    if c is None:
        return jb, divb, djb, ddivb
    return jb @ c, divb @ c, djb @ c, ddivb @ c


def _d_layer_block(S: Surface, kappa: float, xi, c, sa: float, sv: float):
    """Derivative of the single-layer recipe shared by the electric and static
    blocks: p = -sa Delta^{-1} div a, q = sa Delta^{-1} scurl a + sv P(V div j)
    with a = n ^ V j."""
    g = S.grid
    dg = _dgeom(S, xi)
    j, divj, dj, ddivj = _coef_batch(S, dg, c)
    n, dN = S.normal, dg["dN"]
    V = kn.vmat(S, kappa)
    dV = kn.dvmat(S, kappa, xi, measure_term=True)
    ncL = g.ncoef(g.L)

    Vj = _vec_apply(V, j)
    a = _cross_n_batch(n, Vj)
    da = _cross_n_batch(dN, Vj) + _cross_n_batch(
        n, _vec_apply(dV, j) + _vec_apply(V, dj)
    )
    d_div_a = _d_weak_poisson(S, dg, _div_batch(S, a), _d_div(S, xi, a, da))
    d_scurl_a = _d_weak_poisson(S, dg, _scurl_batch(S, a), _d_scurl(S, xi, a, da))
    p_rows = -sa * d_div_a[1:ncL]
    q_rows = sa * d_scurl_a[1:ncL] + sv * _project(S, dV @ divj + V @ ddivj)
    return np.concatenate([p_rows, q_rows], axis=0)


def d_electric_block(
    S: Surface, kappa: float, xi: DeformationField, c=None
) -> np.ndarray:
    """Derivative of the transported electric block at the base surface,
    applied to the coefficient batch c (the matrix when c is None)."""
    return _d_layer_block(S, kappa, xi, c, kappa, 1.0 / kappa)


def d_magnetic_block(
    S: Surface, kappa: float, xi: DeformationField, c=None
) -> np.ndarray:
    """Derivative of the transported magnetic block at the base surface,
    applied to the coefficient batch c (the matrix when c is None).

    The Galerkin right-hand side W[b]^T y_b = Df[b]^T V^T y_b - TK_b^T KS^T y_b
    and its derivative are applied factor by factor to y_b = w J j_b, so no
    (N, nc_full) matrix is formed.
    """
    g = S.grid
    TK = _basis_fields(S)["TK"]
    Df = _magnetic_test_divs(S)
    dg = _dgeom(S, xi)
    j, divj, dj, ddivj = _coef_batch(S, dg, c)
    n, dN = S.normal, dg["dN"]
    wJ = (g.weights * S.jacobian)[:, None, None]
    wdJ = (g.weights * dg["dJ"])[:, None, None]
    ncL = g.ncoef(g.L)

    V = kn.vmat(S, kappa)
    dV = kn.dvmat(S, kappa, xi, measure_term=True)
    KP = kn.kprime_mat(S, kappa)
    dKP = kn.dkprime_mat(S, kappa, xi, measure_term=True)
    KS = kn.kprime_src_mat(S, kappa)
    dKS = kn.dkprime_src_mat(S, kappa, xi, measure_term=True)

    # gradient potential
    Vj = _vec_apply(V, j)
    nVj = np.einsum("ij,ijk->ik", n, Vj)
    f = kappa**2 * nVj + KP @ divj
    dnVj = np.einsum("ij,ijk->ik", dN, Vj) + np.einsum(
        "ij,ijk->ik", n, _vec_apply(dV, j) + _vec_apply(V, dj)
    )
    df = kappa**2 * dnVj + dKP @ divj + KP @ ddivj
    p_rows = _d_weak_poisson(S, dg, f, df)[1:ncL]

    # rotational potential: Q = A^{-1} rc, dQ = A^{-1}(drc - dA Q)
    y = wJ * j
    dy = wdJ * j + wJ * dj
    Vy = _vec_apply(V.T, y)
    dVy = _vec_apply(dV.T, y) + _vec_apply(V.T, dy)
    Ky = _vec_apply(KS.T, y)
    dKy = _vec_apply(KS.T, dy) + _vec_apply(dKS.T, y)
    rc = _bsum(Df, Vy) - _bsum(TK, Ky)
    drc = _bsum(Df, dVy) + _bsum(dg["dDf"], Vy)
    drc -= _bsum(TK, dKy) + _bsum(dg["dTK"], Ky)
    fac = sc._lb_factor(S)
    Q = np.zeros_like(rc)
    Q[1:] = cho_solve(fac, rc[1:])
    rhs = drc - dg["dA"] @ Q
    dQ = np.zeros_like(rc)
    dQ[1:] = cho_solve(fac, rhs[1:])
    q_rows = -dQ[1:ncL]
    return np.concatenate([p_rows, q_rows], axis=0)


def d_static_block(S: Surface, xi: DeformationField, c=None) -> np.ndarray:
    """Derivative of the transported static coupling block, applied to the
    coefficient batch c (the matrix when c is None)."""
    return _d_layer_block(S, 0.0, xi, c, 1.0, -1.0)


# -- far-field operators --------------------------------------------------
def far_field_block(
    S: Surface, kappa: float, directions: np.ndarray, kind: str
) -> np.ndarray:
    """Far-field operator on coefficient stacks, shape (ndir, 3, 2K).

    With I(d) = int exp(-i kappa d.y) j(y) ds(y):
    electric: kappa d ^ I ^ d = kappa (I - d (d.I)); magnetic: i kappa d ^ I.
    """
    g = S.grid
    jb, _ = density_basis(S)
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    wJ = g.weights * S.jacobian
    phase = np.exp(-1j * kappa * (d @ S.points.T)) * wJ[None, :]  # (ndir, N)
    I = np.tensordot(phase, jb, axes=(1, 0))  # (ndir, 3, 2K)
    if kind == "electric":
        dI = np.einsum("da,dak->dk", d, I)
        return kappa * (I - d[:, :, None] * dI[:, None, :])
    if kind == "magnetic":
        return 1j * kappa * np.cross(d[:, :, None], I, axis=1)
    raise ValueError(f"unknown far-field kind {kind!r}")


def d_far_field_block(
    S: Surface, kappa: float, directions: np.ndarray, kind: str, xi: DeformationField
) -> np.ndarray:
    """Derivative of the transported far-field operator at the base surface."""
    g = S.grid
    jb, _ = density_basis(S)
    dg = _dgeom(S, xi)
    djb, _ = _d_density_basis(S, dg)
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    wJ = g.weights * S.jacobian
    wdJ = g.weights * dg["dJ"]
    phase = np.exp(-1j * kappa * (d @ S.points.T))
    dphase = phase * (-1j * kappa) * (d @ xi.values.T)
    I = np.tensordot(phase * wdJ[None, :] + dphase * wJ[None, :], jb, axes=(1, 0))
    I += np.tensordot(phase * wJ[None, :], djb, axes=(1, 0))
    if kind == "electric":
        dI = np.einsum("da,dak->dk", d, I)
        return kappa * (I - d[:, :, None] * dI[:, None, :])
    if kind == "magnetic":
        return 1j * kappa * np.cross(d[:, :, None], I, axis=1)
    raise ValueError(f"unknown far-field kind {kind!r}")


# -- off-surface potentials ----------------------------------------------
def _check_targets(S: Surface, targets: np.ndarray):
    d = np.linalg.norm(targets[:, None, :] - S.points[None, :, :], axis=2)
    hmin = np.pi / S.grid.nquad
    if d.min() < 0.5 * hmin:
        raise TargetOnSurface(
            f"target within {d.min():.3e} of the surface; quadrature unreliable"
        )
    return d


def scalar_single_layer(S: Surface, kappa: float, f: np.ndarray, targets):
    """V_kappa f evaluated at off-surface points by the smooth rule."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    R = _check_targets(S, targets)
    G = np.exp(1j * kappa * R) / (4.0 * np.pi * R)
    wJ = S.grid.weights * S.jacobian
    return (G * wJ[None, :]) @ f


def _density_values(S: Surface, density):
    if hasattr(density, "node_values"):
        j = density.node_values()
        p = S.grid.synthesize(density.p_coeffs)
        divj = sc.laplace_beltrami(S, p)
        return j, divj
    raise TypeError("density must be a HelmholtzDensity")


def electric_potential(S: Surface, kappa: float, density, targets) -> np.ndarray:
    """Psi_E j = kappa V j + (1/kappa) grad V (div_Gamma j) off the surface."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    R = _check_targets(S, targets)
    j, divj = _density_values(S, density)
    wJ = S.grid.weights * S.jacobian
    G = np.exp(1j * kappa * R) / (4.0 * np.pi * R)
    out = kappa * np.tensordot(G * wJ[None, :], j, axes=(1, 0))
    diff = targets[:, None, :] - S.points[None, :, :]
    gp = np.exp(1j * kappa * R) * (1j * kappa * R - 1.0) / (4.0 * np.pi * R**3)
    out += (1.0 / kappa) * np.einsum("tn,tna,n->ta", gp, diff, wJ * divj)
    return out


def magnetic_potential(S: Surface, kappa: float, density, targets) -> np.ndarray:
    """Psi_M j = curl V j off the surface."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    R = _check_targets(S, targets)
    j, _ = _density_values(S, density)
    wJ = S.grid.weights * S.jacobian
    diff = targets[:, None, :] - S.points[None, :, :]
    gp = np.exp(1j * kappa * R) * (1j * kappa * R - 1.0) / (4.0 * np.pi * R**3)
    ker = (gp * wJ[None, :])[:, :, None] * diff
    return np.cross(ker, j[None, :, :], axis=2).sum(axis=1)


def _d_density_values(S: Surface, density, xi):
    """Stage derivative of the transported density realization at the nodes."""
    dg = _dgeom(S, xi)
    pc, qc = density.p_coeffs, density.q_coeffs  # degrees <= L
    nc = pc.shape[0]
    dj = dg["dGY"][:, :, :nc] @ pc + dg["dTK"][:, :, :nc] @ qc
    ddivj = dg["dLBY"] @ pc
    return dj, ddivj


def _d_kernel_factors(S, kappa, targets, xiv):
    """Derivatives of G and grad_x G under y -> y + t xi at fixed targets."""
    diff = targets[:, None, :] - S.points[None, :, :]
    R = np.linalg.norm(diff, axis=2)
    dxi = np.einsum("tna,na->tn", diff, xiv)
    ekr = np.exp(1j * kappa * R)
    G = ekr / (4.0 * np.pi * R)
    gp = ekr * (1j * kappa * R - 1.0) / (4.0 * np.pi * R**3)
    g2 = ekr * (3.0 - 3j * kappa * R - kappa**2 * R * R) / (4.0 * np.pi * R**5)
    dG = -gp * dxi
    # d of (gp * diff) = -g2 (diff.xi) diff - gp xi
    dgrad = -(g2 * dxi)[:, :, None] * diff - gp[:, :, None] * xiv[None, :, :]
    return diff, G, gp, dG, dgrad


def d_electric_potential(S: Surface, kappa: float, density, targets, xi) -> np.ndarray:
    """Derivative of the transported electric potential at fixed targets."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _check_targets(S, targets)
    j, divj = _density_values(S, density)
    dj, ddivj = _d_density_values(S, density, xi)
    dg = _dgeom(S, xi)
    w = S.grid.weights
    wJ = w * S.jacobian
    wdJ = w * dg["dJ"]
    diff, G, gp, dG, dgrad = _d_kernel_factors(S, kappa, targets, xi.values)
    out = kappa * (
        np.tensordot(dG * wJ[None, :], j, axes=(1, 0))
        + np.tensordot(G * wJ[None, :], dj, axes=(1, 0))
        + np.tensordot(G * wdJ[None, :], j, axes=(1, 0))
    )
    out += (1.0 / kappa) * (
        np.einsum("tna,n->ta", dgrad, wJ * divj)
        + np.einsum("tn,tna,n->ta", gp, diff, wJ * ddivj + wdJ * divj)
    )
    return out


def d_magnetic_potential(S: Surface, kappa: float, density, targets, xi) -> np.ndarray:
    """Derivative of the transported magnetic potential at fixed targets."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    _check_targets(S, targets)
    j, _ = _density_values(S, density)
    dj, _ = _d_density_values(S, density, xi)
    dg = _dgeom(S, xi)
    w = S.grid.weights
    wJ = w * S.jacobian
    wdJ = w * dg["dJ"]
    diff, G, gp, dG, dgrad = _d_kernel_factors(S, kappa, targets, xi.values)
    ker = dgrad * wJ[None, :, None] + (gp * wdJ[None, :])[:, :, None] * diff
    out = np.cross(ker, j[None, :, :], axis=2).sum(axis=1)
    ker2 = (gp * wJ[None, :])[:, :, None] * diff
    out += np.cross(ker2, dj[None, :, :], axis=2).sum(axis=1)
    return out
