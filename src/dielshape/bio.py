"""Boundary integral operators of the Maxwell layer ansatz, in Helmholtz
coordinates.

Tangential densities are represented by the scalar potentials (p, q) of
j = grad_Gamma p + curl_Gamma q, stored as mean-zero real-spherical-harmonic
coefficient stacks c = [p_1.., q_1..] of length 2((L+1)^2 - 1), the only
density format (surfcalc).  Every boundary operator becomes a dense complex
matrix acting on such stacks:

* ``electric_block``  -- the tangential trace of the electric potential,
  C_k j = -k n ^ V_k j + (1/k) curl_Gamma V_k (div_Gamma j), taken with the
  orientation gamma_D u = u ^ n.
* ``magnetic_block``  -- the principal value M_k j = (curl Psi_k j) ^ n,
  realized in a Galerkin form that only needs single-layer and
  normal-derivative kernels (the exterior/interior traces of curl Psi are
  -1/2 j + M j and +1/2 j + M j).
* ``static_block``    -- the static coupling j -> -n ^ V_0 j - curl_Gamma
  V_0 (div_Gamma j) used to regularize the layer ansatz.  It and the
  electric block share one single-layer recipe with two scalar weights.

Every block is a Galerkin projection against the test fields of the
potential basis (surfcalc, whose module docstring describes the basis, its
frames and the weak projection), with the rows of A^{-1} folded in, so a
block is one product of kernel data with wavenumber-independent test data:

* electric and static blocks, in weak form.  The pointwise identities
  GY.(n ^ v) = TK.v and TK.(n ^ v) = -GY.v turn the weak projection of
  a = n ^ V j into one of V j: _bsum(Zc, V j) = -(p_a; q_a), so
      (p; q) = sa _bsum(Zc, V j) + (0; sv P(V div_Gamma j)).
  No surface derivative of V j is taken.
* magnetic block.  Its rotational right-hand side is
  sum_b Df_b^T V^T y_b - TK_b^T K's^T y_b with y_b = w J j_b.  V is
  core diag(w J) with a symmetric core (the singular weights are
  Bs diag(w) with Bs symmetric, and the kernel values are symmetric), so
  V^T (w J j) = w J (V j): the product V j of the electric block serves
  here too.  K's is the adjoint diag(w J)^-1 K'^T diag(w J) of K'
  (kernels) and is not built: K's^T y = w J (K' j).  The test divergences
  Df_b = div_Gamma(e_b ^ GY) - 2 H TK_b come in closed form from the shape
  operator (surfcalc._basis_fields).

The recipes take the kernels of a pass as real pairs (Re, Im) of N x N
matrices (kernels._stack), Im None for the static kernel.  ``wave_blocks``
returns the electric and magnetic blocks of one wavenumber, which share V
and V j, from one pass of (V, K'); a forward assembly makes three passes
(kappa_e, kappa_i, static) and keeps no matrix afterwards.  Every product
of kernel and node data is _block_apply, two real products, so no real
operand is promoted to complex; K'^T is the transposed pair, which BLAS
reads without a copy.

``d_*_block`` variants return the first derivative, at the base surface, of
the transported-operator family r -> block(Gamma + r xi) with the potential
coefficients held fixed; they differentiate the exact discrete recipe
(kernel matrices, test fields, Galerkin solves) term by term, so they agree
with finite differences of the primal assembly to O(h^2).  The weak-form
recipe differentiates through surfcalc._d_weak_project and the stage
derivatives of the basis (surfcalc._dbasis, on the record surfcalc._dgeom).

They take an optional coefficient batch c of shape (2K, m) and return
dBlock @ c without forming the matrix: every stage then runs on m columns
instead of 2K.  Without c the batch is the identity and the result is the
matrix.  ``d_wave_blocks`` mirrors ``wave_blocks``: one kernel pass of
(V, dV), (K', dK') gives (dC @ c, dM @ c), the two recipes sharing V j,
dV j and V dj; route A makes one such pass per wavenumber and one static
pass.  The recipes read only the products of a pass with the densities,
taken block by block as it yields its rows (_d_pass), so no N x N kernel
matrix is formed.

Far-field operators and smooth off-surface potential evaluations are at the
end of the module.  The far-field operators are the moments of the basis
densities; a coefficient batch takes the moments of its node values, one
(ndir, N) x (N, 3m) product, without forming the operators.  The potentials
take the coefficient stack c of their density and form its node values
from the basis; they and ``scalar_single_layer`` share one target-kernel
helper for G, grad G and, under a deformation, their derivatives.
"""

from __future__ import annotations

import numpy as np

from .errors import TargetOnSurface
from .geometry import Surface, DeformationField
from .grid import _real_apply
from . import kernels as kn
from . import surfcalc as sc

__all__ = [
    "electric_block",
    "magnetic_block",
    "static_block",
    "wave_blocks",
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


# -- kernel x basis plumbing ---------------------------------------------
def _block_apply(pair: tuple, U: np.ndarray) -> np.ndarray:
    """re @ U + 1j (im @ U) for a kernel pair (re, im) of real (r, N) rows,
    im None for a real kernel, and node data U of shape (N, ...), in real
    arithmetic."""
    re, im = pair
    out = _real_apply(re, U)
    return out if im is None else out + 1j * _real_apply(im, U)


def _project(S: Surface, f: np.ndarray) -> np.ndarray:
    """Mean-zero reference-sphere coefficients of node values, solver degrees."""
    ncL = S.grid.ncoef(S.grid.L)
    return S.grid.analyze(f, S.grid.L)[1:ncL]


# -- primal operator blocks ----------------------------------------------
# The recipes take the kernel pairs of a pass and the product V jb, which the
# electric and magnetic blocks of one wavenumber share.  divb vanishes on the
# K curl columns, so products with it run on the K gradient columns only.
def _layer_block(S: Surface, V, Vj, sa: float, sv: float) -> np.ndarray:
    """Weak-form single-layer recipe shared by the electric and static
    blocks: p = -sa A^{-1} T_TK^T V j, q = sa A^{-1} T_GY^T V j + sv P(V div j)
    with T = w J [TK | GY], the Galerkin form of p = -sa Delta^{-1} div a,
    q = sa Delta^{-1} curl a for a = n ^ V j (see the module docstring).
    The rows of A^{-1} come folded into the test fields Zc."""
    bb = sc._basis_fields(S)
    K = Vj.shape[2] // 2
    C = sa * sc._bsum(bb["Zc"], Vj)
    C[K:, :K] += sv * _project(S, _block_apply(V, bb["divb"][:, :K]))
    return C


def _magnetic_block(S: Surface, kappa: float, V, Vj, KP) -> np.ndarray:
    """Magnetic recipe on the kernel pairs V and K' of kappa and the
    product V jb.  The rotational right-hand side needs V^T y with
    y = w J jb, which is w J (V jb) since V = core diag(w J) with a symmetric
    core; its K's term sum_b TK_b^T K's^T y_b is sum_b (K'^T (w J TK_b))^T
    jb_b, with -w J TK the first K columns of Zc."""
    bb = sc._basis_fields(S)
    jb, divb = bb["jb"], bb["divb"]
    K = divb.shape[1] // 2

    f = kappa**2 * np.einsum("ij,ijk->ik", S.normal, Vj)
    f[:, :K] += _block_apply(KP, divb[:, :K])
    p_rows = _real_apply(bb["Zp"].T, f)
    KPT = tuple(None if M is None else M.T for M in KP)
    KZ = _block_apply(KPT, bb["Zc"][..., :K])
    q_rows = sc._bsum(bb["Zq"], Vj) - sc._bsum(jb, KZ).T
    return np.concatenate([p_rows, q_rows], axis=0)


def _single_layer_block(S: Surface, kappa: float, sa: float, sv: float) -> np.ndarray:
    """The weak-form single-layer recipe on a single-group kernel pass of V."""
    (V,) = kn._stack(S, kappa, (kn._V,))
    return _layer_block(S, V, _block_apply(V, sc.density_basis(S)[0]), sa, sv)


def electric_block(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of C_kappa = gamma_D Psi_E on stacked (p, q) coefficients."""
    return _single_layer_block(S, kappa, kappa, 1.0 / kappa)


def magnetic_block(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of M_kappa = (curl Psi_kappa . ) ^ n (principal value).

    The gradient potential follows from div_Gamma(M j) = kappa^2 n.Vj +
    K'(div_Gamma j); the rotational potential from the weak form
    int curl_Gamma Y . M j ds = int grad Y . (grad G ^ j) ds integrated by
    parts so that only weakly singular kernels appear.  Its right-hand side
    is sum_b Df[b]^T V^T y_b - TK_b^T KS^T y_b with y_b = w J j_b.
    """
    return wave_blocks(S, kappa)[1]


def wave_blocks(S: Surface, kappa: float) -> tuple:
    """(electric_block, magnetic_block) of one wavenumber from one kernel
    pass; the two blocks share V and its product with the basis."""
    V, KP = kn._stack(S, kappa, (kn._V, kn._KP))
    Vj = _block_apply(V, sc.density_basis(S)[0])
    C = _layer_block(S, V, Vj, kappa, 1.0 / kappa)
    return C, _magnetic_block(S, kappa, V, Vj, KP)


def static_block(S: Surface) -> np.ndarray:
    """Matrix of the static coupling j -> -n^V_0 j - curl_Gamma V_0 div_Gamma j
    (real: the static kernel is real)."""
    return _single_layer_block(S, 0.0, 1.0, -1.0)


# -- shape derivatives of the blocks --------------------------------------
def _d_pass(S: Surface, kappa: float, xi: DeformationField, groups, c) -> list:
    """Products of one derivative kernel pass with the densities of the batch
    c, accumulated over its row blocks: per pair (K, dK) of groups,
    [K j, K divj, dK j + K dj, dK divj + K ddivj] for the node values
    (j, divj, dj, ddivj) of _densities.  No N x N matrix is formed.

    c has shape (2K, m); c = None stands for the identity, so the recipes
    run on the basis densities themselves and assemble a matrix."""
    N = S.grid.nnodes
    dens = _densities(S, c, xi)
    U = np.concatenate([a.reshape(N, -1) for a in dens], axis=1)
    nu = U.shape[1] // 2
    out = [np.empty_like(U, dtype=complex) for _ in groups[::2]]
    for rows, blocks in kn._kernel_mats(S, kappa, groups, xi):
        for o, K, dK in zip(out, blocks[::2], blocks[1::2]):
            o[rows] = _block_apply(K, U)
            o[rows, nu:] += _block_apply(dK, U[:, :nu])
    cuts = np.cumsum([a[0].size for a in dens])[:-1]
    return [
        [a.reshape(d.shape) for a, d in zip(np.split(o, cuts, axis=1), dens)] for o in out
    ]


def _d_layer_block(S: Surface, xi, V, sa: float, sv: float):
    """Derivative of the weak-form single-layer recipe of _layer_block, on the
    products V of the pair (V, dV) from _d_pass: the derivative of the weak
    projection of V j (sc._d_weak_project) with d(V j) = dV j + V dj."""
    Vj, _, dVj, dVdivj = V
    K = S.grid.ncoef(S.grid.L) - 1
    rows = sa * sc._d_weak_project(S, xi, Vj, dVj)
    rows[K:] += sv * _project(S, dVdivj)
    return rows


def _d_magnetic_block(S: Surface, kappa: float, xi, V, KP):
    """Derivative of the magnetic recipe on the products V and KP of the
    pairs (V, dV) and (K', dK') of kappa from _d_pass.

    The Galerkin right-hand side sum_b Df_b^T V^T y_b - TK_b^T KS^T y_b and
    its derivative are applied factor by factor to y_b = w J j_b, the test
    fields through their frames (_frame_rows), so no (N, nc_full) matrix is
    formed.  V^T y = w J (V j) and KS^T y = w J (K' j) hold on every
    transported surface (see _magnetic_block), so their derivatives are
    w J d(V j) + w dJ V j and w J (dK' j + K' dj) + w dJ K' j."""
    g = S.grid
    Vj, _, dVj, _ = V
    Kj, Kdivj, dKj, dKdivj = KP
    dg = sc._dgeom(S, xi)
    fr, dfr = sc._basis_fields(S)["frames"], sc._dbasis(S, xi)["frames"]
    n, dN = S.normal, dg["dN"]
    wJ = (g.weights * S.jacobian)[:, None, None]
    wdJ = (g.weights * dg["dJ"])[:, None, None]
    ncL = g.ncoef(g.L)

    # gradient potential
    f = kappa**2 * np.einsum("ij,ijk->ik", n, Vj) + Kdivj
    dnVj = np.einsum("ij,ijk->ik", dN, Vj) + np.einsum("ij,ijk->ik", n, dVj)
    df = kappa**2 * dnVj + dKdivj
    p_rows = sc._d_weak_poisson(S, xi, f, df)[1:ncL]

    # rotational potential: Q = A^{-1} rc, dQ = A^{-1}(drc - dA Q)
    Vy = wJ * Vj
    dVy = wJ * dVj + wdJ * Vj
    Ky = wJ * Kj
    dKy = wJ * dKj + wdJ * Kj
    rc = sc._frame_rows(g, fr["Df"], Vy) - sc._frame_rows(g, fr["TK"], Ky)
    drc = sc._frame_rows(g, fr["Df"], dVy) + sc._frame_rows(g, dfr["Df"], Vy)
    drc -= sc._frame_rows(g, fr["TK"], dKy) + sc._frame_rows(g, dfr["TK"], Ky)
    q_rows = -sc._d_lb_solve(S, xi, rc, drc)[1:ncL]
    return np.concatenate([p_rows, q_rows], axis=0)


_D_WAVE = (kn._V, kn._DV, kn._KP, kn._DKP)


def d_wave_blocks(S: Surface, kappa: float, xi: DeformationField, c) -> tuple:
    """(d_electric_block @ c, d_magnetic_block @ c) of one wavenumber from one
    kernel pass; the two recipes share the products V j, dV j and V dj of
    the densities j of the batch c."""
    V, KP = _d_pass(S, kappa, xi, _D_WAVE, c)
    dC = _d_layer_block(S, xi, V, kappa, 1.0 / kappa)
    return dC, _d_magnetic_block(S, kappa, xi, V, KP)


def d_electric_block(
    S: Surface, kappa: float, xi: DeformationField, c=None
) -> np.ndarray:
    """Derivative of the transported electric block at the base surface,
    applied to the coefficient batch c (the matrix when c is None)."""
    (V,) = _d_pass(S, kappa, xi, (kn._V, kn._DV), c)
    return _d_layer_block(S, xi, V, kappa, 1.0 / kappa)


def d_magnetic_block(
    S: Surface, kappa: float, xi: DeformationField, c=None
) -> np.ndarray:
    """Derivative of the transported magnetic block at the base surface,
    applied to the coefficient batch c (the matrix when c is None)."""
    return _d_magnetic_block(S, kappa, xi, *_d_pass(S, kappa, xi, _D_WAVE, c))


def d_static_block(S: Surface, xi: DeformationField, c=None) -> np.ndarray:
    """Derivative of the transported static coupling block, applied to the
    coefficient batch c (the matrix when c is None)."""
    (V,) = _d_pass(S, 0.0, xi, (kn._V, kn._DV), c)
    return _d_layer_block(S, xi, V, 1.0, -1.0)


# -- far-field operators --------------------------------------------------
def _far_kind(kappa: float, d: np.ndarray, I: np.ndarray, kind: str) -> np.ndarray:
    """Far-field pattern from the moments I(d) of shape (ndir, 3, m)."""
    if kind == "electric":
        dI = np.einsum("da,dak->dk", d, I)
        return kappa * (I - d[:, :, None] * dI[:, None, :])
    if kind == "magnetic":
        return 1j * kappa * np.cross(d[:, :, None], I, axis=1)
    raise ValueError(f"unknown far-field kind {kind!r}")


def _far_moments(S: Surface, kappa: float, d: np.ndarray, c=None, xi=None):
    """Moments I(d) = int exp(-i kappa d.y) j(y) ds(y), shape (ndir, 3, m), of
    the densities j with coefficient batch c of shape (2K, m); c = None is
    the identity (m = 2K).  With a deformation xi, the derivative of the
    transported moments at fixed coefficients.

    The node values of the densities are formed once, so a batch of m
    columns costs one (ndir, N) x (N, 3m) product."""
    g = S.grid
    wJ = g.weights * S.jacobian
    phase = np.exp(-1j * kappa * (d @ S.points.T))
    jc = sc._times(sc.density_basis(S)[0], c)
    if xi is None:
        return np.tensordot(phase * wJ[None, :], jc, axes=1)
    djc = sc._times(sc._dbasis(S, xi)["djb"], c)
    dphase = phase * (-1j * kappa) * (d @ xi.values.T)
    wdJ = g.weights * sc._dgeom(S, xi)["dJ"]
    I = np.tensordot(phase * wdJ[None, :] + dphase * wJ[None, :], jc, axes=1)
    I += np.tensordot(phase * wJ[None, :], djc, axes=1)
    return I


def far_field_block(
    S: Surface, kappa: float, directions: np.ndarray, kind: str
) -> np.ndarray:
    """Far-field operator on coefficient stacks, shape (ndir, 3, 2K).

    With I(d) = int exp(-i kappa d.y) j(y) ds(y):
    electric: kappa d ^ I ^ d = kappa (I - d (d.I)); magnetic: i kappa d ^ I.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return _far_kind(kappa, d, _far_moments(S, kappa, d), kind)


def d_far_field_block(
    S: Surface, kappa: float, directions: np.ndarray, kind: str, xi: DeformationField
) -> np.ndarray:
    """Derivative of the transported far-field operator at the base surface."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return _far_kind(kappa, d, _far_moments(S, kappa, d, xi=xi), kind)


# -- off-surface potentials ----------------------------------------------
def _target_kernels(S: Surface, kappa: float, targets, xi=None) -> tuple:
    """(diff, G, grad G) between the targets x and the nodes y: diff = x - y,
    G = exp(i kappa R) / (4 pi R) and grad_x G = gp diff, returned as gp.
    With a deformation xi also (dG, d grad_x G), their derivatives under
    y -> y + t xi at fixed targets.  Targets closer to the surface than half
    a polar spacing raise TargetOnSurface: the smooth rule is unreliable
    there."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    diff = targets[:, None, :] - S.points[None, :, :]
    R = np.linalg.norm(diff, axis=2)
    if R.min() < 0.5 * np.pi / S.grid.nquad:
        raise TargetOnSurface(
            f"target within {R.min():.3e} of the surface; quadrature unreliable"
        )
    ekr = np.exp(1j * kappa * R)
    G = ekr / (4.0 * np.pi * R)
    gp = ekr * (1j * kappa * R - 1.0) / (4.0 * np.pi * R**3)
    if xi is None:
        return diff, G, gp
    dxi = np.einsum("tna,na->tn", diff, xi.values)
    g2 = ekr * (3.0 - 3j * kappa * R - kappa**2 * R * R) / (4.0 * np.pi * R**5)
    # d of (gp * diff) = -g2 (diff.xi) diff - gp xi
    dgrad = -(g2 * dxi)[:, :, None] * diff - gp[:, :, None] * xi.values[None, :, :]
    return diff, G, gp, -gp * dxi, dgrad


def _densities(S: Surface, c, xi=None) -> tuple:
    """Node values (j, div_Gamma j) of the densities with coefficient stack c,
    shape (2K,) or a batch (2K, m); c = None stands for the identity and
    gives the basis.  With a deformation xi also their stage derivatives
    (dj, d div_Gamma j), from (djb, ddivb) of sc._dbasis."""
    basis = sc.density_basis(S)
    if xi is not None:
        db = sc._dbasis(S, xi)
        basis += (db["djb"], db["ddivb"])
    return tuple(sc._times(B, c) for B in basis)


def scalar_single_layer(S: Surface, kappa: float, f: np.ndarray, targets):
    """V_kappa f evaluated at off-surface points by the smooth rule."""
    _, G, _ = _target_kernels(S, kappa, targets)
    wJ = S.grid.weights * S.jacobian
    return (G * wJ[None, :]) @ f


def electric_potential(S: Surface, kappa: float, c, targets) -> np.ndarray:
    """Psi_E j = kappa V j + (1/kappa) grad V (div_Gamma j) off the surface,
    for the density j with coefficient stack c."""
    diff, G, gp = _target_kernels(S, kappa, targets)
    j, divj = _densities(S, c)
    wJ = S.grid.weights * S.jacobian
    out = kappa * np.tensordot(G * wJ[None, :], j, axes=(1, 0))
    out += (1.0 / kappa) * np.einsum("tn,tna,n->ta", gp, diff, wJ * divj)
    return out


def magnetic_potential(S: Surface, kappa: float, c, targets) -> np.ndarray:
    """Psi_M j = curl V j off the surface, for the density j with coefficient
    stack c."""
    diff, _, gp = _target_kernels(S, kappa, targets)
    j, _ = _densities(S, c)
    ker = (gp * (S.grid.weights * S.jacobian)[None, :])[:, :, None] * diff
    return np.cross(ker, j[None, :, :], axis=2).sum(axis=1)


def d_electric_potential(S: Surface, kappa: float, c, targets, xi) -> np.ndarray:
    """Derivative of the transported electric potential at fixed targets and
    fixed coefficients c."""
    diff, G, gp, dG, dgrad = _target_kernels(S, kappa, targets, xi)
    j, divj, dj, ddivj = _densities(S, c, xi)
    w = S.grid.weights
    wJ = w * S.jacobian
    wdJ = w * sc._dgeom(S, xi)["dJ"]
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


def d_magnetic_potential(S: Surface, kappa: float, c, targets, xi) -> np.ndarray:
    """Derivative of the transported magnetic potential at fixed targets and
    fixed coefficients c."""
    diff, _, gp, _, dgrad = _target_kernels(S, kappa, targets, xi)
    j, _, dj, _ = _densities(S, c, xi)
    w = S.grid.weights
    wJ = w * S.jacobian
    wdJ = w * sc._dgeom(S, xi)["dJ"]
    ker = dgrad * wJ[None, :, None] + (gp * wdJ[None, :])[:, :, None] * diff
    out = np.cross(ker, j[None, :, :], axis=2).sum(axis=1)
    ker2 = (gp * wJ[None, :])[:, :, None] * diff
    out += np.cross(ker2, dj[None, :, :], axis=2).sum(axis=1)
    return out
