"""Surface differential operators and their first shape derivatives.

All operators are evaluated intrinsically from the parametric metric of a
:class:`~dielshape.geometry.Surface`; the derivative formulas are the
closed forms for the transported operator families
tau_r o op_{Gamma_r} o tau_r^{-1} at the base surface.

Scalar fields are arrays of shape (N,) or (N, k) (k = batch of columns);
vector fields (N, 3) or (N, 3, k).  Everything works for complex data.

The frame rule.  With t, p = grad_Gamma theta, grad_Gamma phi, a
first-order operator is a frame (a, b) of per-node vectors on the angular
derivatives of its argument (_frames): grad_Gamma u = t u_theta + p u_phi,
curl_Gamma u = (t ^ n) u_theta + (p ^ n) u_phi, div_Gamma U = t . U_theta +
p . U_phi and curl_Gamma U = (n ^ t) . U_theta + (n ^ p) . U_phi.  Transport
keeps the angular derivatives of tau_r^{-1} u, so a shape derivative is the
same formula on the derivative frame, read from the per-node record of xi
(_dgeom) that the paper's d_* operators, the kernel passes and route A's
basis derivatives (_dbasis) share.

The potential basis.  A tangential density j = grad_Gamma p + curl_Gamma q
is stored as the mean-zero real-spherical-harmonic coefficients
c = [p_1.., q_1..] of length 2K, K = (L+1)^2 - 1, or as a batch (2K, m) of
such stacks: the one format in which a density crosses a module boundary
(helmholtz_decompose returns it; the solver's traces and bio's potentials
take it).  Its node values are jb c and div_Gamma j = divb c
(density_basis), jb = [GY | TK] on the solver degrees, GY = grad_Gamma Y,
TK = GY ^ n: the only map from coefficients to node values.  Every basis
and test field is a Y_theta + b Y_phi with per-node vectors (a, b), its
"frame" (_basis_fields); full-degree test fields enter only through their
frames (_frame_rows), and their shape derivatives are frames too (_dbasis).
Only Delta_Gamma Y of the K gradient densities, and its stage derivative,
take a d/dtheta, d/dphi transform of node data (ReferenceGrid.dtheta).

The weak projection is the only map from node data to (p, q).  The
potentials solve A u = r with the Laplace-Beltrami stiffness matrix A over
the full grid degree, and the rows of A^{-1} for the solver degrees are
folded into the test fields Zc = w J [-TK | GY], so that
    _bsum(Zc, j) = [-q; p],  p = A^{-1} int GY . j,  q = A^{-1} int TK . j
(helmholtz_decompose; bio projects n ^ V j the same way).  No surface
derivative of j is taken.  Per node w J grad_Gamma Y . (grad_Gamma q ^ n) =
w (Y_theta q_phi - Y_phi q_theta) / sin(theta) does not depend on the
geometry, so the rule integrates it exactly for band-limited data and the
projection is an exact left inverse of jb on every surface.  For the same
reason, and because the stiffness matrix is the Gram matrix of TK under
the same rule, curl_Gamma f of scalar node data f projects to (0; the
degree 1..L coefficients of f), so TK times those coefficients stands in
for the curl.  The derivative of the projection on the transported
surfaces (_d_weak_project) serves route A's layer blocks and incident
traces alike.
"""

from __future__ import annotations

import numpy as np

from . import sh
from .errors import KindMismatch, NonZeroMean
from .geometry import DeformationField, Surface, surface_memo
from .grid import _real_apply

__all__ = [
    "density_basis",
    "surface_gradient",
    "surface_divergence",
    "surface_scalar_curl",
    "tangential_vector_curl",
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
    "d_laplace_inverse",
]


# -- first-order operators: frames on angular derivatives ------------------
@surface_memo
def _frames(S: Surface) -> dict:
    """Frames of the first-order operators (see the module docstring):
    "GY" = (t, p) of grad_Gamma and div_Gamma, "TK" = (t ^ n, p ^ n) of the
    vector curl; the scalar curl takes -TK."""
    t, p, n = S.grad_t, S.grad_p, S.normal
    return {"GY": (t, p), "TK": (np.cross(t, n), np.cross(p, n))}


def _angular(S: Surface, u: np.ndarray) -> tuple:
    """(u_theta, u_phi): one d/dtheta and one d/dphi transform of node data."""
    return S.grid.dtheta(u), S.grid.dphi(u)


def _frame_field(fr: tuple, Yt: np.ndarray, Yp: np.ndarray) -> np.ndarray:
    """a (x) Yt + b (x) Yp, shape (N, 3, ...), for the frame fr = (a, b) and
    angular derivatives Yt, Yp of shape (N, ...): the gradient-type field of
    the frame, e.g. a basis field on columns of Y_theta, Y_phi."""
    a, b = (v.reshape(v.shape + (1,) * (Yt.ndim - 1)) for v in fr)
    return a * Yt[:, None] + b * Yp[:, None]


def _div_frame(fr: tuple, Ut: np.ndarray, Up: np.ndarray) -> np.ndarray:
    """a . U_theta + b . U_phi per node (and column) for the frame fr = (a, b)
    and the angular derivatives Ut, Up (N, 3, ...) of a field U."""
    a, b = fr
    return np.einsum("ia,ia...->i...", a, Ut) + np.einsum("ia,ia...->i...", b, Up)


# operator -> (frame, takes vector data); the scalar curl takes -TK
_FIRST_ORDER = {
    "gradient": ("GY", False),
    "vector_curl": ("TK", False),
    "divergence": ("GY", True),
    "scalar_curl": ("TK", True),
}


def _first_order(which: str, frames: dict, ang: tuple) -> np.ndarray:
    """The operator which on the angular derivatives ang, with the frames of
    _frames or their derivatives (_dgeom)."""
    name, vector = _FIRST_ORDER[which]
    out = (_div_frame if vector else _frame_field)(frames[name], *ang)
    return -out if which == "scalar_curl" else out


def surface_gradient(S: Surface, u: np.ndarray) -> np.ndarray:
    """grad_Gamma u = t u_theta + p u_phi; out[:, a, ...] is the a-th Cartesian
    component for u of shape (N, ...).

    For a vector field U of shape (N, 3) this is the tangential Jacobian
    [grad_Gamma U], out[:, a, c] = (grad_Gamma U_c)_a, the matrix written
    [G(r)u] in the derivative formulas; the three components share one
    d/dtheta and one d/dphi transform."""
    return _first_order("gradient", _frames(S), _angular(S, u))


def tangential_vector_curl(S: Surface, u: np.ndarray) -> np.ndarray:
    """curl_Gamma u = grad_Gamma u x n (scalar -> tangential vector)."""
    return _first_order("vector_curl", _frames(S), _angular(S, u))


def surface_divergence(S: Surface, U: np.ndarray) -> np.ndarray:
    """div_Gamma U = trace of the tangential Jacobian (extension-free)."""
    return _first_order("divergence", _frames(S), _angular(S, U))


def surface_scalar_curl(S: Surface, U: np.ndarray) -> np.ndarray:
    """curl_Gamma U = n . curl(extension of U); defined for any vector field."""
    return _first_order("scalar_curl", _frames(S), _angular(S, U))


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


@surface_memo
def _curvature(S: Surface) -> dict:
    """Cached closed-form curvature of S: the second derivatives "d2x" of the
    parametrization (_second_derivatives), the second fundamental form
    "h" = x_ij . n, the shape operator "W" = grad_Gamma n and "H" = tr W / 2.

    With t, p = grad_Gamma theta, grad_Gamma phi (dual to x_t, x_p), n_t =
    -h_tt t - h_tp p and n_p = -h_tp t - h_pp p, so
    W = t (x) n_t + p (x) n_p = -(h_tt t t + h_tp (t p + p t) + h_pp p p):
    symmetric, W n = 0, and W = P / a on a sphere of radius a.  It takes no
    transform of node data, only syntheses of the surface coefficients."""
    d2x = _second_derivatives(S.grid, S.coef)
    h = np.einsum("jia,ia->ji", d2x, S.normal)
    W = -_shape_form(h, S.grad_t, S.grad_p, S.grad_t, S.grad_p)
    return {"d2x": d2x, "h": h, "W": W, "H": 0.5 * np.einsum("iaa->i", W)}


def _d_curvature(S: Surface, dh, dt, dp) -> tuple:
    """(dW, dH): derivatives of the transported shape operator and mean
    curvature at the base surface, from the derivatives dh of the second
    fundamental form and dt, dp of grad_Gamma theta, grad_Gamma phi (_dgeom)."""
    cv = _curvature(S)
    X = _shape_form(cv["h"], dt, dp, S.grad_t, S.grad_p)
    dW = -(_shape_form(dh, S.grad_t, S.grad_p, S.grad_t, S.grad_p) + X)
    dW -= X.swapaxes(1, 2)
    return dW, 0.5 * np.einsum("iaa->i", dW)


# -- Laplace-Beltrami inverse (spectral Galerkin) -------------------------
def _metric_gram(grid, a, b, c, u=None) -> np.ndarray:
    """Y_t^T diag(a) Y_t + B + B^T + Y_p^T diag(c) Y_p with B = Y_t^T diag(b) Y_p,
    over the full grid degree (Y_t, Y_p = Y_theta, Y_phi at the nodes); with
    coefficients u (nc[, m]) its product with u, without forming it.

    With (a, b, c) = w J (t.t, t.p, p.p) this is the stiffness matrix
    int grad_Gamma Y_k . grad_Gamma Y_l ds, since grad_Gamma Y = t Y_theta +
    p Y_phi; with their derivatives, its derivative."""
    Yt, Yp = grid.Yth, grid.Yph
    if u is not None:
        ut, up = (_real_apply(Y, u) for Y in (Yt, Yp))
        a, b, c = (v.reshape(v.shape + (1,) * (u.ndim - 1)) for v in (a, b, c))
        return _real_apply(Yt.T, a * ut + b * up) + _real_apply(Yp.T, b * ut + c * up)
    B = Yt.T @ (b[:, None] * Yp)
    return Yt.T @ (a[:, None] * Yt) + B + B.T + Yp.T @ (c[:, None] * Yp)


@surface_memo
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
    comes from numpy.linalg, the package's only LAPACK, whose calls run on
    numpy's BLAS threads."""
    g = S.grid
    w = g.weights * S.jacobian
    t, p = S.grad_t, S.grad_p
    metric = (np.einsum("ia,ia->i", u, v) for u, v in ((t, t), (t, p), (p, p)))
    inverse = np.linalg.inv(_metric_gram(g, *(w * m for m in metric))[1:, 1:])
    rows = inverse[: g.ncoef(g.L) - 1]
    return {"inverse": inverse, "rows": rows, "mass": (w[:, None] * g.Y).T}


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
        _check_mean(f, rhs)
    u = S.grid.synthesize(_lb_solve(S, rhs))
    return u - mean_value(S, u)


def _check_mean(f: np.ndarray, rhs: np.ndarray):
    """NonZeroMean unless f, of Galerkin right-hand side rhs, has mean zero."""
    mean = np.max(np.abs(rhs[0])) / np.sqrt(4.0 * np.pi)  # abs(int f ds) / 4 pi
    if mean > 1e-6 * (np.max(np.abs(f)) + 1e-300):
        raise NonZeroMean(f"the inverse Laplacian needs mean-zero data; mean {mean:.3e}")


# -- potential basis and test fields --------------------------------------
def _fold(F: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """F[..., 1:] @ rows.T for node data F of shape (N, ..., nc) over the full
    grid degree: test data whose products give the solver-degree rows of a
    Galerkin solve, rows being those of A^{-1} (_lb_data)."""
    cols = F.reshape(-1, F.shape[-1])[:, 1:] @ rows.T
    return cols.reshape(F.shape[:-1] + (rows.shape[0],))


def _frame_rows(g, fr: tuple, u: np.ndarray) -> np.ndarray:
    """sum_b F_b^T u_b over the full grid degree, shape (nc, m), for the basis
    field F with frame fr = (a, b) and node data u (N, 3, m):
    Y_theta^T (a.u) + Y_phi^T (b.u).  No (N, 3, nc) array is formed."""
    a, b = fr
    out = _real_apply(g.Yth.T, np.einsum("ia,iam->im", a, u))
    out += _real_apply(g.Yph.T, np.einsum("ia,iam->im", b, u))
    return out


def _curl_curv(n, H, W, v):
    """n ^ ((2 H - W) v) per node, for vectors v (N, 3); linear in n, in
    (H, W) and in v.  M v = _curl_curv(n, H, W, v) is the frame vector of the
    magnetic test divergences (see _basis_fields)."""
    return np.cross(n, 2.0 * H[:, None] * v - np.einsum("iac,ic->ia", W, v))


@surface_memo
def _basis_fields(S: Surface) -> dict:
    """Cached node data of the potential basis and of the test fields.

    "frames" holds the frames (_frame_field) of GY = grad_Gamma Y, TK = GY ^ n
    (the curl basis) and the magnetic test divergences Df over the full grid
    degree, which enter only through _frame_rows; jb and divb of
    density_basis, where divb holds Delta_Gamma Y_k on the K gradient
    columns, taken densely from the angular derivatives "GY_ang" of GY on
    the solver degrees.  The test fields come with the rows of A^{-1} folded
    in (_fold), so a projection is one product with them: "Zc" = w J
    [-TK | GY] for helmholtz_decompose and the electric and static blocks,
    "Zp" = -w J Y for the gradient potential of the magnetic block, and
    "Zq" = -w J Df for its rotational potential, whose K's term takes the
    first K columns of Zc.

    Df[:, b, k] = div_Gamma F_b - 2 H n.F_b for F_b = e_b ^ grad_Gamma Y_k
    (n.F_b = TK_b) is taken in closed form: the tangential Hessian of Y is
    symmetric, so div_Gamma(e_b ^ grad_Gamma Y) = -[n ^ (W grad_Gamma Y)]_b
    with the shape operator W = grad_Gamma n (_curvature), and
        Df = n ^ ((2H - W) grad_Gamma Y) = (M t) (x) Y_theta + (M p) (x) Y_phi,
    M = [n ^](2H I - W).  Folding acts on Y_theta and Y_phi alone, so only
    Delta_Gamma Y takes a transform, on the K solver columns.
    """
    g = S.grid
    rows = _lb_data(S)["rows"]
    K = rows.shape[0]
    cv = _curvature(S)
    fr = _frames(S)
    fr = {**fr, "Df": tuple(_curl_curv(S.normal, cv["H"], cv["W"], v) for v in fr["GY"])}
    YL = (g.Yth[:, 1 : K + 1], g.Yph[:, 1 : K + 1])
    Yf = (_fold(g.Yth, rows), _fold(g.Yph, rows))
    GYL = _frame_field(fr["GY"], *YL)
    GY_ang = _angular(S, GYL)
    LBY = _div_frame(fr["GY"], *GY_ang)
    wJ = (g.weights * S.jacobian)[:, None, None]
    return {
        "frames": fr,
        "GY_ang": GY_ang,
        "jb": np.concatenate([GYL, _frame_field(fr["TK"], *YL)], axis=2),
        "divb": np.concatenate([LBY, np.zeros_like(LBY)], axis=1),
        "Zc": wJ * np.concatenate(
            [-_frame_field(fr["TK"], *Yf), _frame_field(fr["GY"], *Yf)], axis=2
        ),
        "Zp": -_fold(wJ[:, :, 0] * g.Y, rows),
        "Zq": -wJ * _frame_field(fr["Df"], *Yf),
    }


def density_basis(S: Surface):
    """Node values of the 2K basis densities of the solver space.

    Returns (jb, divb): jb has shape (N, 3, 2K) with gradient-type columns
    first, divb holds div_Gamma of each column (zero for the curl family).
    Both are cached per surface and must not be modified.
    """
    bb = _basis_fields(S)
    return bb["jb"], bb["divb"]


def _bsum(T: np.ndarray, U: np.ndarray) -> np.ndarray:
    """sum_b T[:, b]^T U[:, b] for a real T of shape (N, 3, k) and U of shape
    (N, 3, m)."""
    return _real_apply(T.reshape(-1, T.shape[2]).T, U.reshape(-1, U.shape[2]))


def _times(B: np.ndarray, c) -> np.ndarray:
    """B @ c for a real B of shape (..., 2K) and coefficients c of shape (2K,)
    or a batch (2K, m); c = None stands for the identity and returns B."""
    if c is None:
        return B
    out = _real_apply(B.reshape(-1, B.shape[-1]), c)
    return out.reshape(B.shape[:-1] + c.shape[1:])


# -- Helmholtz decomposition ----------------------------------------------
def _stack_pq(mq_p: np.ndarray) -> np.ndarray:
    """The rows [-q; p] of a weak projection (the column order of Zc) as the
    coefficient stack [p; q]."""
    K = mq_p.shape[0] // 2
    return np.concatenate([mq_p[K:], -mq_p[:K]])


def helmholtz_decompose(S: Surface, j: np.ndarray) -> np.ndarray:
    """Coefficient stack c = [p; q] of a tangential field j = grad_Gamma p +
    curl_Gamma q, shape (2K,) for j of shape (N, 3), or a batch (2K, m) for
    j of shape (N, 3, m).

    p = A^{-1} int grad_Gamma Y . j ds and q = A^{-1} int curl_Gamma Y . j ds
    at the solver degrees, the weak projection _bsum(Zc, j) = [-q; p] (see
    the module docstring); it recovers the coefficients of jb c exactly.
    """
    c = _stack_pq(_bsum(_basis_fields(S)["Zc"], j.reshape(j.shape[:2] + (-1,))))
    return c.reshape(c.shape[:1] + j.shape[2:])


# -- the per-node derivative record and the paper's d_* operators ---------
@surface_memo
def _dgeom(S: Surface, xi: DeformationField) -> dict:
    """Per-node stage derivatives of the geometry under xi, the one record
    that the paper's d_* operators, the kernel passes and route A's basis
    derivatives (_dbasis) read.  No transform of node data is taken.

    "xi_ang" = (xi_theta, xi_phi) come from xi's coefficients, and
    A = [grad_Gamma xi] = t (x) xi_theta + p (x) xi_phi is formed here only:
        dN = -A n,  "divxi" = tr A,  dJ = J tr A,
        dt = -A t + (t.A n) n  (likewise dp),  dh_ij = xi_ij . n + x_ij . dN
    for the second fundamental form h_ij = x_ij . n.  "dmetric" = w d(J t.t,
    J t.p, J p.p) are the derivatives of the stiffness weights (_metric_gram)
    and "frames" the derivative frames of _frames (see the module
    docstring): dGY = (dt, dp), dTK = (dt ^ n + t ^ dN, dp ^ n + p ^ dN)."""
    g = S.grid
    n, t, p = S.normal, S.grad_t, S.grad_p
    xi_ang = tuple(g.synthesize(xi.coef.T, deriv=d) for d in ("theta", "phi"))
    A = _frame_field((t, p), *xi_ang)
    An = np.einsum("iac,ic->ia", A, n)
    dN = -An
    divxi = np.einsum("iaa->i", A)
    dt, dp = (
        np.einsum("ia,ia->i", v, An)[:, None] * n - np.einsum("iac,ic->ia", A, v)
        for v in (t, p)
    )
    dh = np.einsum("jia,ia->ji", _second_derivatives(g, xi.coef), n)
    dh += np.einsum("jia,ia->ji", _curvature(S)["d2x"], dN)
    J, dJ = S.jacobian, S.jacobian * divxi

    def dot(u, v):
        return np.einsum("ia,ia->i", u, v)

    return {
        "xi_ang": xi_ang,
        "dN": dN,
        "divxi": divxi,
        "dJ": dJ,
        "dh": dh,
        "dmetric": tuple(
            g.weights * (dJ * dot(u, v) + J * (dot(du, v) + dot(u, dv)))
            for u, du, v, dv in ((t, dt, t, dt), (t, dt, p, dp), (p, dp, p, dp))
        ),
        "frames": {
            "GY": (dt, dp),
            "TK": (np.cross(dt, n) + np.cross(t, dN), np.cross(dp, n) + np.cross(p, dN)),
        },
    }


def d_normal(S: Surface, xi: DeformationField) -> np.ndarray:
    """First derivative of the transported unit normal: -[grad_Gamma xi] n."""
    return _dgeom(S, xi)["dN"].copy()


def d_jacobian(S: Surface, xi: DeformationField) -> np.ndarray:
    """First derivative of the surface Jacobian: J div_Gamma xi."""
    return _dgeom(S, xi)["dJ"].copy()


def d_surface_operator(
    which: str, S: Surface, xi: DeformationField, u: np.ndarray
) -> np.ndarray:
    """Closed-form first derivative of a transported surface operator: its
    formula on the derivative frame of _dgeom and the angular derivatives of
    u (see the module docstring).

    which in {"gradient", "divergence", "vector_curl", "scalar_curl"}.
    """
    if which not in _FIRST_ORDER:
        raise KindMismatch(f"unknown surface operator {which!r}")
    if which == "gradient" and (u.ndim not in (1, 2) or u.ndim == 2 and u.shape[1] == 3):
        raise KindMismatch("gradient derivative needs a scalar field")
    return _first_order(which, _dgeom(S, xi)["frames"], _angular(S, u))


def rstar_apply(base: Surface, S_r: Surface, u: np.ndarray) -> np.ndarray:
    """R*(r) u = J_rel tau_r curl_{Gamma_r} tau_r^{-1} u (J-weighted scalar curl)."""
    jrel = S_r.jacobian / base.jacobian
    out = surface_scalar_curl(S_r, u)
    return out * (jrel if out.ndim == 1 else jrel[:, None])


def d_rstar(S: Surface, xi: DeformationField, u: np.ndarray) -> np.ndarray:
    """dR*[0,xi] u = -sum_c grad_Gamma xi_c . curl_Gamma u_c: the derivative
    of the scalar curl plus the measure term div_Gamma xi curl_Gamma u, one
    frame -(dTK + div_Gamma xi TK) on one d/dtheta, d/dphi pair of u.  All
    higher derivatives of r -> R*(r) vanish identically."""
    dg = _dgeom(S, xi)
    dxi = dg["divxi"][:, None]
    fr = tuple(da + dxi * a for da, a in zip(dg["frames"]["TK"], _frames(S)["TK"]))
    return -_div_frame(fr, *_angular(S, u))


# -- Galerkin stage derivatives -------------------------------------------
def _d_lb_solve(S: Surface, xi: DeformationField, r: np.ndarray, dr: np.ndarray):
    """Derivative of the transported Galerkin solve u = A^{-1} r:
    du = A^{-1}(dr - dA u), over the full grid degree (batched); dA u is
    applied on the record's "dmetric" without forming dA (_metric_gram)."""
    u = _lb_solve(S, r)
    return _lb_solve(S, dr - _metric_gram(S.grid, *_dgeom(S, xi)["dmetric"], u))


def _d_weak_poisson(S: Surface, xi: DeformationField, f: np.ndarray, df: np.ndarray):
    """Derivative of the transported mean-zero weak solution of Delta u = f
    (f of shape (N, m)), the Galerkin solve with right-hand side
    -int f Y_k ds; the measure term int f Y_k dJ ds, dJ = J div_Gamma xi,
    takes the mass rows on div_Gamma xi f."""
    mass = _lb_data(S)["mass"]
    dr = -_real_apply(mass, _dgeom(S, xi)["divxi"][:, None] * f + df)
    return _d_lb_solve(S, xi, -_real_apply(mass, f), dr)


def d_laplace_inverse(S: Surface, xi: DeformationField, f: np.ndarray) -> np.ndarray:
    """First derivative of (L*(r))^{-1} f for the weighted Laplace-Beltrami
    family L*(r) = -R*(r) R(r) = J_rel Delta_r, mean-zero.

    On every transported surface the Galerkin right-hand side of
    laplace_beltrami_inverse(Gamma_r, f / J_rel) is -int f Y_k ds on Gamma:
    it is _d_weak_poisson with df = -div_Gamma xi f, whose right-hand side
    derivative vanishes and leaves du = -A^{-1} dA u, the exact derivative
    of the discrete inverse up to the constant of its mean gauge."""
    _check_mean(f, -_real_apply(_lb_data(S)["mass"], f))
    fc = f[:, None]
    dc = _d_weak_poisson(S, xi, fc, -_dgeom(S, xi)["divxi"][:, None] * fc)
    du = S.grid.synthesize(dc[:, 0])
    return du - mean_value(S, du)


# -- shape derivatives of the basis and of the weak projection ------------
@surface_memo
def _dbasis(S: Surface, xi: DeformationField) -> dict:
    """Route A's stage derivatives of the potential basis and test fields.

    A basis field with frame (a, b) (_frame_field) has the derivative frame
    (da, db), so "frames" extends the frames of the record _dgeom by
    dDf = (dM t + M dt, dM p + M dp) (M of _basis_fields, with dW, dH of
    _d_curvature).  "djb" and
    "ddivb" are the derivatives of density_basis; Delta_Gamma Y keeps the
    dense discretisation of _basis_fields, whose angular derivatives are
    fixed linear maps, so dLBY = dt.GY_theta + dp.GY_phi + div_Gamma dGY on
    the K solver columns, the one d/dtheta, d/dphi pair of a route A."""
    g, bb, dg, cv = S.grid, _basis_fields(S), _dgeom(S, xi), _curvature(S)
    n, K = S.normal, g.ncoef(g.L) - 1
    dW, dH = _d_curvature(S, dg["dh"], *dg["frames"]["GY"])
    fr = {
        **dg["frames"],
        "Df": tuple(
            _curl_curv(dg["dN"], cv["H"], cv["W"], v)
            + _curl_curv(n, dH, dW, v)
            + _curl_curv(n, cv["H"], cv["W"], dv)
            for v, dv in zip(bb["frames"]["GY"], dg["frames"]["GY"])
        ),
    }
    YL = (g.Yth[:, 1 : K + 1], g.Yph[:, 1 : K + 1])
    dGYL = _frame_field(fr["GY"], *YL)
    dLBY = _div_frame(fr["GY"], *bb["GY_ang"])
    dLBY += _div_frame(bb["frames"]["GY"], *_angular(S, dGYL))
    return {
        "frames": fr,
        "djb": np.concatenate([dGYL, _frame_field(fr["TK"], *YL)], axis=2),
        "ddivb": np.concatenate([dLBY, np.zeros_like(dLBY)], axis=1),
    }


def _d_weak_project(S: Surface, xi: DeformationField, u: np.ndarray, du: np.ndarray):
    """Derivative of the transported weak projection _bsum(Zc, u) of node data
    u (N, 3, m) whose own derivative is du, shape (2K, m) in the row order of
    Zc, [-TK | GY].

    With U = A^{-1} T^T u over the full grid degree, T = w J [-TK | GY],
    dU = A^{-1}(dT^T u + T^T du - dA U), dT = w dJ [-TK | GY] +
    w J [-dTK | dGY].  The weights w J and w dJ scale the m columns of u and
    du, and the test fields enter through their frames (_frame_rows), so no
    (N, 3, nc) array is formed per call."""
    g = S.grid
    fr, dg = _frames(S), _dgeom(S, xi)
    K = g.ncoef(g.L) - 1
    wJ = (g.weights * S.jacobian)[:, None, None]
    wdJ = (g.weights * dg["dJ"])[:, None, None]

    def rhs(fr, y):  # the -TK and GY right-hand sides side by side, (nc, 2, m)
        return np.stack(
            [-_frame_rows(g, fr["TK"], y), _frame_rows(g, fr["GY"], y)], axis=1
        )

    y, dy = wJ * u, wJ * du + wdJ * u
    dU = _d_lb_solve(S, xi, rhs(fr, y), rhs(fr, dy) + rhs(dg["frames"], y))[1 : K + 1]
    return dU.swapaxes(0, 1).reshape(2 * K, -1)
