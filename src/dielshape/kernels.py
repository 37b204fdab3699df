"""Dense kernel matrices for the layer potentials and their shape derivatives.

Every kernel here is a sum of terms  rad_p(kappa R) num / (4 pi R^(2p+1))
of radial order p = 0, 1, 2, with R = |x - y| and a smooth numerator num
(1, T = n(x).(x-y), Phi = (x-y).(xi(x)-xi(y)) and the derivative dT of T).
Order 0 is the single layer G_kappa; each shape derivative raises the order
by one, since d/dt R^2 = 2 Phi.  The real part of e^{i kappa R} gives the
singular radial factor (cos kR for order 0, -(cos kR + kR sin kR) for order
1, its d/d(R^2) companion for order 2), the imaginary part a smooth one.
The singular part is

    F(x, y) / |xhat - yhat|,   F = rad_p num chord / R^(2p+1),

with F smooth away from the diagonal.  The grid's product rule, exact for
1/|xhat - yhat| times spherical harmonics up to the grid degree, carries
the chord (ReferenceGrid.singular_weights), so a pass forms rad_p num /
R^(2p+1) only; the smooth part uses the plain rule.

Diagonal limits of F depend on the direction of approach; the diagonal is
their mean over PROBE_NDIRS directions, in closed form (probe_geometry).
Along a reference tangent with parameter direction u, a point at geodesic
distance s has chord ~ s and R ~ |v| s, v = x_theta u_theta + x_phi u_phi.
Each numerator vanishes with its parameter gradient at y = x, so num / s^2
is half its Hessian at u: T -> -h(u, u) / 2 (h_ij = x_ij . n), Phi ->
v . xi_u, dT -> -dh(u, u) / 2 (dh_ij = xi_ij . n + x_ij . dN).  A term tends
to rad_p(0) = 1, -1, 3/2 times its numerator limits over |v|^(2p+1).  The
derivative data of xi come from the per-node record surfcalc._dgeom, which
builds no basis and takes no transform (see _kernel_mats).

The source-normal kernel n(y).grad_y G is the weak-form adjoint of K',
K's = diag(w J)^-1 K'^T diag(w J): its numerator is T_ji, the radial factors
and the core of the singular weights are symmetric, and the diagonal limits
agree.  No pass assembles it (kprime_src_mat).

On the node pairs the numerators come from Gram products: each is U W^T
for two N x k factors (k <= 8), e.g. T_ij = n_i.x_i - (n X^T)_ij, so no
N x N x 3 difference array is formed.  The Gram form loses accuracy like
eps |x|^2 / R^2, so the near pairs (R below NEAR times the body's radius)
keep the difference form.

All matrices include the surface measure: a pass weights the singular part
by the product rule's B J and the smooth part by w J, so ``mat @ u``
approximates the boundary integral of the kernel against ``u ds``.  The
derivative matrices are those of the transported integrals, so they include
the measure variation dJ = J div_Gamma xi as the term K diag(div_Gamma xi).
That term needs the primal kernel K, so derivative kernels come in (K, dK)
pairs, and one pass builds several pairs of one wavenumber on shared
distances, radial factors and numerators.  A pass (_kernel_mats) yields
real row blocks of BLOCK_ELEMS node pairs, and all its temporaries are
block-sized.  Kernels reach bio as real data only: the forward blocks take a
pass stacked into real pairs (Re, Im) (_stack), route A its row blocks
(bio._d_pass).  The public complex matrices, built from the pairs, serve
tests and tracing; no package module outside this one calls them.
"""

from __future__ import annotations

import numpy as np

from .geometry import Surface, DeformationField, surface_memo
from .surfcalc import _curvature, _dgeom

__all__ = [
    "pair_geometry",
    "probe_geometry",
    "vmat",
    "kprime_mat",
    "kprime_src_mat",
    "dkprime_src_mat",
    "dvmat",
    "dkprime_mat",
]

# Node pairs closer than NEAR times the body's radius take their numerators
# in difference form, the others from Gram products (see _pair_numerators).
NEAR = 0.25
# Directions of approach averaged for the diagonal limits (probe_geometry).
PROBE_NDIRS = 8
# Node pairs per row block of a kernel pass, the size of its temporaries.
BLOCK_ELEMS = 1 << 14

# Kernel terms (order p, coefficient, numerator factors); see the docstring.
_V = ((0, 1.0, ()),)
_KP = ((1, 1.0, ("T",)),)
_DV = ((1, 1.0, ("Phi",)),)
_DKP = ((1, 1.0, ("dT",)), (2, 2.0, ("T", "Phi")))


# -- radial factors (even-analytic: smooth functions of R^2) --------------
def _trig(kappa, R):
    """z = kappa R with cos z and sin z, evaluated once per distance array."""
    if kappa == 0.0:
        return 0.0, 1.0, 0.0
    z = kappa * R
    return z, np.cos(z), np.sin(z)


def _singular_radial(p, z, c, s):
    """cos z, -(cos z + z sin z) and d/d(R^2) of -A/R^3 times R^5, for p = 0, 1, 2."""
    if p == 0:
        return c
    A = c + z * s
    if p == 1:
        return -A
    return (3.0 * A - z * z * c) / 2.0


def _smooth_radial(p, kappa, rinv, z, c, s):
    """Imaginary parts of the order-p radial factors over 4 pi R^(2p+1), for
    rinv = 1/R^(2p+1): p = 0: sin(kR)/(4 pi R); p = 1: (kR cos kR -
    sin kR)/(4 pi R^3); p = 2: its d/d(R^2).  Series branches keep orders 1
    and 2 accurate for small kR."""
    if p == 0:
        return s * rinv / (4.0 * np.pi)
    if p == 1:
        small = z < 1e-2
        out = (z * c - s) * rinv / (4.0 * np.pi)
        zs = z[small]
        out[small] = kappa**3 / (4.0 * np.pi) * (-1 / 3 + zs**2 / 30 - zs**4 / 840)
        return out
    small = z < 5e-2
    out = (-(z**2) * s - 3.0 * (z * c - s)) * rinv / (8.0 * np.pi)
    out[small] = kappa**5 / (8.0 * np.pi) * (1.0 / 15.0 - z[small] ** 2 / 210.0)
    return out


def _radial(kappa, R, orders) -> tuple:
    """The singular and smooth radial factors over R^(2p+1) of the orders,
    dicts p -> factor on the distances R of one row block; the smooth ones
    are None at kappa = 0.  1/R^(2p+1) comes from powers of one reciprocal."""
    zcs = _trig(kappa, R)
    rinv = [1.0 / R]
    inv2 = rinv[0] * rinv[0]
    while len(rinv) <= max(orders):
        rinv.append(rinv[-1] * inv2)
    sing = {p: _singular_radial(p, *zcs) * rinv[p] for p in orders}
    if kappa == 0.0:
        return sing, None
    return sing, {p: _smooth_radial(p, kappa, rinv[p], *zcs) for p in orders}


# -- pairwise and diagonal geometry --------------------------------------
def _row_blocks(N: int):
    """Slices of consecutive target rows, BLOCK_ELEMS pairs (one row at least)."""
    step = max(1, BLOCK_ELEMS // N)
    return (slice(a, min(a + step, N)) for a in range(0, N, step))


@surface_memo
def pair_geometry(S: Surface) -> dict:
    """Cached pairwise distances R and the indices (I, J) of the near pairs,
    those closer than NEAR times the body's radius about its centroid, in
    row-major order.  R is built in the row blocks of the kernel passes, so
    no N x N x 3 difference array is formed.

    The diagonal of R is set to 1 (never used directly; diagonal kernel
    values are the closed-form limits of _kernel_mats)."""
    x = S.points
    R = np.empty((len(x), len(x)))
    for rows in _row_blocks(len(x)):
        dx = x[rows, None, :] - x[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", dx, dx), out=R[rows])
    np.fill_diagonal(R, 1.0)
    xc = x - x.mean(axis=0)
    return {"R": R, "near": np.nonzero(R < NEAR * np.sqrt(_dot(xc, xc).max()))}


@surface_memo
def probe_geometry(S: Surface) -> dict:
    """Cached per-node direction data of the diagonal limits, over the
    PROBE_NDIRS angles a_k = 2 pi k / PROBE_NDIRS: the parameter direction
    "u" = (cos a, sin a / sin theta) of the reference tangent cos a e_theta +
    sin a e_phi, the surface tangent "v" = x_theta u_theta + x_phi u_phi of
    shape (N, PROBE_NDIRS, 3), its length "vn" and the second fundamental
    form "h" = h(u, u), both of shape (N, PROBE_NDIRS)."""
    a = 2.0 * np.pi * np.arange(PROBE_NDIRS) / PROBE_NDIRS
    u = (np.cos(a)[None, :], np.sin(a)[None, :] / np.sin(S.grid.theta)[:, None])
    v = _along(u, S.xt, S.xp)
    return {"u": u, "v": v, "vn": np.sqrt(_dot(v, v)), "h": _form(_curvature(S)["h"], u)}


def _along(u, at, ap):
    """at u_theta + ap u_phi, the derivative along u of a map with angular
    derivatives at, ap (N, 3): shape (N, PROBE_NDIRS, 3)."""
    return u[0][..., None] * at[:, None, :] + u[1][..., None] * ap[:, None, :]


def _form(h, u):
    """h(u, u) = h_tt u_t^2 + 2 h_tp u_t u_p + h_pp u_p^2 for h of shape (3, N)."""
    ut, up = u
    return h[0][:, None] * ut**2 + 2 * h[1][:, None] * ut * up + h[2][:, None] * up**2


# -- the one assembly recipe ----------------------------------------------
def _dot(a, b):
    return np.einsum("...k,...k->...", a, b)


def _numerators(tgt: dict, src: dict, names) -> dict:
    """Kernel numerators between targets and sources, in difference form.

    tgt and src hold points x, normals n and, for derivatives, xi and the
    normal derivative dn at the two ends of the near node pairs."""
    out = {}
    if not names:
        return out
    dx = tgt["x"] - src["x"]
    dxi = tgt["xi"] - src["xi"] if "xi" in tgt else None
    for nm in names:
        if nm == "T":
            out[nm] = _dot(tgt["n"], dx)
        elif nm == "Phi":
            out[nm] = _dot(dx, dxi)
        else:  # dT
            out[nm] = _dot(tgt["dn"], dx) + _dot(tgt["n"], dxi)
    return out


def _gram_factors(nd: dict, nm: str) -> tuple:
    """Factors (U, W) of the node-pair numerator nm = U @ W.T.

    Each numerator is a sum of inner products of node data, e.g.
    T_ij = n_i.x_i - n_i.x_j and Phi_ij = x_i.xi_i + x_j.xi_j - x_i.xi_j -
    xi_i.x_j; its row and column terms enter as a column against ones."""
    x, n = nd["x"], nd["n"]
    one = np.ones((len(x), 1))

    def col(v):
        return v[:, None]

    if nm == "T":
        UW = ([n, col(_dot(n, x))], [-x, one])
    elif nm == "Phi":
        xi = nd["xi"]
        a = col(_dot(x, xi))
        UW = ([x, xi, a, one], [-xi, -x, one, a])
    else:  # dT
        xi, dn = nd["xi"], nd["dn"]
        UW = ([dn, n, col(_dot(dn, x) + _dot(n, xi))], [-x, -xi, one])
    return tuple(np.hstack(F) for F in UW)


def _pair_numerators(near, nodes: dict, names):
    """A function rows -> {nm: numerator nm on the node pairs of the row
    block rows}, from the node data x, n and, for derivatives, xi and dn.

    A Gram product on the centred data (the numerators do not change when
    x or xi is shifted by a constant) gives every pair; the near pairs
    (I, J) of pair_geometry, where the Gram form loses accuracy like
    eps |x|^2 / R^2, then take the difference form.  A block finds its
    near pairs by searchsorted on the row-major I."""
    I, J = near
    centred = {k: v - v.mean(axis=0) if k in ("x", "xi") else v for k, v in nodes.items()}
    factors = {nm: _gram_factors(centred, nm) for nm in names}

    def numerators(rows):
        lo, hi = np.searchsorted(I, (rows.start, rows.stop))
        i, j = I[lo:hi], J[lo:hi]
        ends = ({k: v[idx] for k, v in nodes.items()} for idx in (i, j))
        diff = _numerators(*ends, names)
        out = {nm: U[rows] @ W.T for nm, (U, W) in factors.items()}
        for nm, block in out.items():
            block[i - rows.start, j] = diff[nm]
        return out

    return numerators


def _term_sum(terms, nums, radial):
    """sum over terms of coefficient * radial[p] * prod(numerator factors)."""
    total = None
    for p, coef, names in terms:
        term = radial[p]
        for nm in names:
            term = term * nums[nm]
        if coef != 1.0:
            term = coef * term
        total = term if total is None else total + term
    return total


def _kernel_mats(S: Surface, kappa: float, groups, xi=None):
    """Yield, per block of target rows (_row_blocks), (rows, [(re, im) per
    group of (order, coefficient, numerator factors) terms]): the real and
    imaginary parts re = B F J, im = sm w J of the rows of B F J + 1j sm w J
    (im None at kappa = 0, where sm vanishes).  The groups share the radial
    factors and numerators of a block.  This is the one place where
    diagonals are set: F from its closed-form direction-mean limit (see the
    module docstring), sm from its R = 0 limit.

    With a deformation xi the groups come as (terms, dterms) pairs, and the
    second of each is the derivative of the transported first one:
    dK + K diag(div_Gamma xi), from dJ = J div_Gamma xi, with the measure
    term folded into F and sm before weighting; dN, div_Gamma xi, xi_u and
    dh are read from the per-node record surfcalc._dgeom."""
    g = S.grid
    N = g.nnodes
    P = pair_geometry(S)
    pr = probe_geometry(S)
    names = {nm for terms in groups for _, _, nms in terms for nm in nms}
    orders = {p for terms in groups for p, _, _ in terms}

    # numerator limits over s^2 and radial factors at R = 0 over |v|^(2p+1)
    nodes = {"x": S.points, "n": S.normal}
    lim = {"T": -0.5 * pr["h"]}
    if xi is not None:
        dg = _dgeom(S, xi)
        nodes["xi"], nodes["dn"] = xi.values, dg["dN"]
        lim["Phi"] = _dot(pr["v"], _along(pr["u"], *dg["xi_ang"]))
        lim["dT"] = -0.5 * _form(dg["dh"], pr["u"])
    rad0 = {p: _singular_radial(p, 0, 1, 0) / pr["vn"] ** (2 * p + 1) for p in orders}
    pair_numerators = _pair_numerators(P["near"], nodes, names)

    B = g.singular_weights
    J = S.jacobian
    wJ = g.weights * J
    # diagonals: direction mean of the limit of F; the smooth part is
    # kappa/(4 pi) for order 0 and vanishes for the higher orders
    diag_F = [_term_sum(t, lim, rad0).mean(axis=1) for t in groups]
    k0 = kappa / (4.0 * np.pi)
    diag_sm = [np.full(N, k0 * any(p == 0 for p, _, _ in t)) for t in groups]

    def weigh(parts, diag, weight, rows):
        """The block parts (F or sm) of the groups with their diagonal limits
        and measure terms, times their weights."""
        for F, dF in zip(parts, diag):
            np.fill_diagonal(F[:, rows], dF[rows])
        if xi is not None:
            for i in range(1, len(parts), 2):
                parts[i] = parts[i] + parts[i - 1] * dg["divxi"]
        for i, F in enumerate(parts):
            parts[i] = F * weight
        return parts

    def block(rows):
        sing, smooth = _radial(kappa, P["R"][rows], orders)
        nums = pair_numerators(rows)
        re = weigh([_term_sum(t, nums, sing) for t in groups], diag_F, B[rows] * J, rows)
        im = [None] * len(groups)
        if smooth is not None:
            im = weigh([_term_sum(t, nums, smooth) for t in groups], diag_sm, wJ, rows)
        return list(zip(re, im))

    for rows in _row_blocks(N):
        yield rows, block(rows)


def _stack(S: Surface, kappa: float, groups, xi=None) -> list:
    """The matrices of one kernel pass, filled from its row blocks: per group
    the pair (Re, Im) = (B F J, sm w J) of contiguous real N x N arrays, Im
    None at kappa = 0.  This pair is the kernel format bio applies."""
    N = S.grid.nnodes
    pairs = [(np.empty((N, N)), np.empty((N, N)) if kappa else None) for _ in groups]
    for rows, blocks in _kernel_mats(S, kappa, groups, xi):
        for (Re, Im), (re, im) in zip(pairs, blocks):
            Re[rows] = re
            if Im is not None:
                Im[rows] = im
    return pairs


def _complex_mats(S: Surface, kappa: float, groups, xi=None) -> list:
    """The matrices Re + 1j Im of a kernel pass, the real Re at kappa = 0."""
    return [re if im is None else re + 1j * im for re, im in _stack(S, kappa, groups, xi)]


# -- primal kernel matrices -------------------------------------------------
def vmat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of the on-surface single layer V_kappa including the measure.

    (vmat @ u)[i] ~ int_Gamma exp(i k R)/(4 pi R) u(y) ds(y) at x_i.
    Supports kappa = 0 (the static kernel of C0*, a real matrix).
    """
    return _complex_mats(S, kappa, (_V,))[0]


def kprime_mat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of K'_kappa u(x) = int (d/dn(x)) G_kappa(|x-y|) u(y) ds(y)."""
    return _complex_mats(S, kappa, (_KP,))[0]


def kprime_src_mat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of int (d/dn(y)) G_kappa(|x-y|) u(y) ds(y), normal at the source,
    from K' as its adjoint (see the module docstring)."""
    return _adjoint(S, kprime_mat(S, kappa))


def _adjoint(S: Surface, K: np.ndarray) -> np.ndarray:
    """diag(w J)^-1 K^T diag(w J): the weak-form adjoint of the matrix K."""
    wJ = S.grid.weights * S.jacobian
    return K.T / wJ[:, None] * wJ[None, :]


# -- shape derivatives: each returns (K, dK), the primal matrix and the ----
# -- derivative of its transported family at the base surface ------------
def dvmat(S: Surface, kappa: float, xi: DeformationField) -> tuple:
    """(vmat, dV) with dV = d/dt of  int G(kappa, |x_t - y_t|) u(y) J_t ds(y)
    at t = 0, where x_t = x + t xi."""
    return tuple(_complex_mats(S, kappa, (_V, _DV), xi))


def dkprime_mat(S: Surface, kappa: float, xi: DeformationField) -> tuple:
    """(kprime_mat, dK') for the kernel T_t g(R_t), T_t = n_t(x).(x_t - y_t);
    uses dT = dN(x).(x-y) + n(x).(xi(x)-xi(y)) and the chain rule in R^2."""
    return tuple(_complex_mats(S, kappa, (_KP, _DKP), xi))


def dkprime_src_mat(S: Surface, kappa: float, xi: DeformationField) -> tuple:
    """(kprime_src_mat, its derivative) from those of K': the adjoint of the
    transported kernel part dK' - K' diag(div_Gamma xi), plus the measure
    term of the source-normal matrix."""
    K, dK = dkprime_mat(S, kappa, xi)
    divxi = _dgeom(S, xi)["divxi"][None, :]
    KS = _adjoint(S, K)
    return KS, _adjoint(S, dK - K * divxi) + KS * divxi
