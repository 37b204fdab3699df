"""Dense kernel matrices for the layer potentials and their shape derivatives.

Weakly singular kernels are split as

    K(x, y) = F(x, y) / |xhat - yhat|  +  smooth(x, y)

with F smooth away from the diagonal.  The 1/|xhat - yhat| factor is
integrated by the product rule that is exact for spherical harmonics up to
the grid degree (ReferenceGrid.singular_weights); the remainder uses the
plain rule.  Diagonal limits of the F-factors are direction dependent; they
are evaluated by averaging the off-diagonal formula over a ring of probe
points at geodesic distance ``PROBE_T`` around each node.

All matrices include the surface measure (weights are applied by the
caller via the ``B``/``w`` structure baked in here), i.e. ``mat @ u``
approximates the boundary integral of the kernel against ``u ds``.
"""

from __future__ import annotations

import numpy as np

from .geometry import Surface, DeformationField
from .surfcalc import surface_divergence, d_normal

__all__ = [
    "pair_geometry",
    "probe_geometry",
    "probe_node_field",
    "vmat",
    "kprime_mat",
    "kprime_src_mat",
    "dkprime_src_mat",
    "dvmat",
    "dkprime_mat",
]

PROBE_T = 1.0e-3
PROBE_NDIRS = 8


# -- even-analytic radial factors (all smooth functions of R^2) -----------
def _A_fun(k, R):
    """cos(kR) + kR sin(kR)."""
    return np.cos(k * R) + k * R * np.sin(k * R)


def _sinc4pi(k, R):
    """sin(kR)/(4 pi R), value k/(4 pi) at R=0."""
    out = np.empty_like(R)
    small = R < 1e-12
    np.divide(np.sin(k * R), 4.0 * np.pi * R, out=out, where=~small)
    out[small] = k / (4.0 * np.pi)
    return out


def _gm3(k, R):
    """(kR cos kR - sin kR)/(4 pi R^3); smooth, -(k^3)/(12 pi) at R=0."""
    out = np.empty_like(R)
    small = k * R < 1e-2
    z = k * R
    np.divide(z * np.cos(z) - np.sin(z), 4.0 * np.pi * R**3, out=out, where=~small)
    ks = k**3 / (4.0 * np.pi)
    out[small] = ks * (-1.0 / 3.0 + z[small] ** 2 / 30.0 - z[small] ** 4 / 840.0)
    return out


def _N5(k, R):
    """(3(cos kR + kR sin kR) - (kR)^2 cos kR)/2: d/d(R^2) of -A/R^3 is N5/R^5."""
    z = k * R
    return (3.0 * (np.cos(z) + z * np.sin(z)) - z * z * np.cos(z)) / 2.0


def _dgm3_du(k, R):
    """d/d(R^2) of _gm3; smooth, k^5/(120 pi) at R=0."""
    out = np.empty_like(R)
    z = k * R
    small = z < 5e-2
    num = -(z**2) * np.sin(z) - 3.0 * (z * np.cos(z) - np.sin(z))
    np.divide(num, 8.0 * np.pi * R**5, out=out, where=~small)
    k5 = k**5 / (8.0 * np.pi)
    out[small] = k5 * (1.0 / 15.0 - z[small] ** 2 / 210.0)
    return out


# -- pairwise and probe geometry -----------------------------------------
def pair_geometry(S: Surface) -> dict:
    """Cached pairwise distances: ambient R, reference chord, ratio s=chord/R.

    The diagonal of R and chord is set to 1 (never used directly; diagonal
    kernel values come from the probe limits)."""
    if "pairs" not in S._cache:
        x = S.points
        dx = x[:, None, :] - x[None, :, :]
        R = np.sqrt(np.einsum("ijk,ijk->ij", dx, dx))
        xh = S.grid.nodes
        dot = np.clip(xh @ xh.T, -1.0, 1.0)
        chord = np.sqrt(np.maximum(2.0 - 2.0 * dot, 0.0))
        np.fill_diagonal(R, 1.0)
        np.fill_diagonal(chord, 1.0)
        S._cache["pairs"] = {"R": R, "chord": chord, "s": chord / R}
    return S._cache["pairs"]


def probe_geometry(S: Surface) -> dict:
    """Ring of probe points around each node for diagonal limits.

    Returns per-node arrays of shape (N, ndirs, ...): surface point, normal,
    Jacobian at the probes, the chordal distance to the node, and the basis
    matrix used to evaluate further smooth fields at the probes.
    """
    if "probes" not in S._cache:
        g = S.grid
        t = PROBE_T
        nd = PROBE_NDIRS
        alphas = 2.0 * np.pi * np.arange(nd) / nd
        xh = g.nodes
        e1 = g.e_theta
        e2 = g.e_phi
        dirs = (
            np.cos(alphas)[None, :, None] * e1[:, None, :]
            + np.sin(alphas)[None, :, None] * e2[:, None, :]
        )
        y = np.cos(t) * xh[:, None, :] + np.sin(t) * dirs
        theta = np.arccos(np.clip(y[..., 2], -1.0, 1.0)).ravel()
        phi = np.mod(np.arctan2(y[..., 1], y[..., 0]), 2.0 * np.pi).ravel()
        data = S.at(theta, phi)
        Y = g.basis_at(theta, phi)
        chord = 2.0 * np.sin(t / 2.0)
        S._cache["probes"] = {
            "theta": theta,
            "phi": phi,
            "basis": Y,
            "x": data["points"].reshape(g.nnodes, nd, 3),
            "n": data["normal"].reshape(g.nnodes, nd, 3),
            "J": data["jacobian"].reshape(g.nnodes, nd),
            "chord": chord,
        }
    return S._cache["probes"]


def probe_node_field(S: Surface, values: np.ndarray) -> np.ndarray:
    """Evaluate a smooth node field at the probe ring, shape (N, ndirs[, c])."""
    pr = probe_geometry(S)
    g = S.grid
    c = g.analyze(values, g.Lmax)
    out = pr["basis"] @ c
    nd = PROBE_NDIRS
    if values.ndim == 1:
        return out.reshape(g.nnodes, nd)
    return out.reshape(g.nnodes, nd, values.shape[1])


def _diag_average(vals: np.ndarray) -> np.ndarray:
    """Average a kink factor over the probe ring: (N, ndirs) -> (N,)."""
    return vals.mean(axis=1)


# -- single layer ---------------------------------------------------------
def vmat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of the on-surface single layer V_kappa including the measure.

    (vmat @ u)[i] ~ int_Gamma exp(i k R)/(4 pi R) u(y) ds(y) at x_i.
    Supports kappa = 0 (static kernel of C0*).
    """
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian

    F = s * np.cos(kappa * R)
    pr = probe_geometry(S)
    Rp = np.linalg.norm(pr["x"] - S.points[:, None, :], axis=2)
    s_diag = _diag_average(pr["chord"] / Rp)
    np.fill_diagonal(F, s_diag * np.cos(0.0))

    M = (B * F * J[None, :]).astype(complex)
    if kappa != 0.0:
        sm = _sinc4pi(kappa, R)
        np.fill_diagonal(sm, kappa / (4.0 * np.pi))
        M += 1j * sm * (g.weights * J)[None, :]
    return M


# -- normal-derivative (adjoint double layer type) kernel -----------------
def kprime_mat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of K'_kappa u(x) = int (d/dn(x)) G_kappa(|x-y|) u(y) ds(y)."""
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian
    x = S.points
    dxn = np.einsum("ik,ijk->ij", S.normal, x[:, None, :] - x[None, :, :])  # T = n_i.(x_i-x_j)

    # singular part: T * (-(cos kR + kR sin kR))/(4 pi R^3)
    F = -_A_fun(kappa, R) * (dxn / chord**2) * s**3
    pr = probe_geometry(S)
    dxp = S.points[:, None, :] - pr["x"]
    Rp = np.linalg.norm(dxp, axis=2)
    Tp = np.einsum("ik,ijk->ij", S.normal, dxp)
    ch = pr["chord"]
    Fd = _diag_average(
        -_A_fun(kappa, Rp) * (Tp / ch**2) * (ch / Rp) ** 3
    )
    np.fill_diagonal(F, Fd)

    M = (B * F * J[None, :]).astype(complex)
    if kappa != 0.0:
        sm = dxn * _gm3(kappa, R)
        np.fill_diagonal(sm, 0.0)
        M += 1j * sm * (g.weights * J)[None, :]
    return M


def kprime_src_mat(S: Surface, kappa: float) -> np.ndarray:
    """Matrix of int (d/dn(y)) G_kappa(|x-y|) u(y) ds(y), normal at the source.

    Rows are targets x_i, columns integration nodes y_j; the kernel is
    grad_y G . n(y) = g(R) n(y).(y-x).  Used by the Galerkin realization of
    the magnetic boundary operator.
    """
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian
    x, n = S.points, S.normal
    # T_src[i, j] = n(y_j) . (y_j - x_i)
    Ts = np.einsum("jk,ijk->ij", n, x[None, :, :] - x[:, None, :])

    F = -_A_fun(kappa, R) * (Ts / chord**2) * s**3
    pr = probe_geometry(S)
    dxp = pr["x"] - S.points[:, None, :]
    Rp = np.linalg.norm(dxp, axis=2)
    Tsp = np.einsum("ijk,ijk->ij", pr["n"], dxp)
    ch = pr["chord"]
    Fd = _diag_average(-_A_fun(kappa, Rp) * (Tsp / ch**2) * (ch / Rp) ** 3)
    np.fill_diagonal(F, Fd)

    M = (B * F * J[None, :]).astype(complex)
    if kappa != 0.0:
        sm = Ts * _gm3(kappa, R)
        np.fill_diagonal(sm, 0.0)
        M += 1j * sm * (g.weights * J)[None, :]
    return M


def dkprime_src_mat(S: Surface, kappa: float, xi: DeformationField, measure_term=True):
    """Derivative of the transported source-normal kernel matrix at t = 0."""
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian
    x, n = S.points, S.normal
    xiv = xi.values
    dn = d_normal(S, xi)

    dy = x[None, :, :] - x[:, None, :]
    dyxi = xiv[None, :, :] - xiv[:, None, :]
    Ts = np.einsum("jk,ijk->ij", n, dy)
    dTs = np.einsum("jk,ijk->ij", dn, dy) + np.einsum("jk,ijk->ij", n, dyxi)
    Phi = np.einsum("ijk,ijk->ij", dy, dyxi)

    pr = probe_geometry(S)
    xip = _xi_probe(S, xi)
    dnprb = probe_node_field(S, dn)
    dyp = pr["x"] - x[:, None, :]
    dyxip = xip - xiv[:, None, :]
    Rp = np.linalg.norm(dyp, axis=2)
    ch = pr["chord"]
    Tsp = np.einsum("ijk,ijk->ij", pr["n"], dyp)
    dTsp = np.einsum("ijk,ijk->ij", dnprb, dyp) + np.einsum(
        "ijk,ijk->ij", pr["n"], dyxip
    )
    Phip = np.einsum("ijk,ijk->ij", dyp, dyxip)

    mA, mAp = -_A_fun(kappa, R), -_A_fun(kappa, Rp)  # shared with the measure term
    F = (
        mA * (dTs / chord**2) * s**3
        + 2.0 * _N5(kappa, R) * (Ts / chord**2) * (Phi / chord**2) * s**5
    )
    Fd = _diag_average(
        mAp * (dTsp / ch**2) * (ch / Rp) ** 3
        + 2.0 * _N5(kappa, Rp) * (Tsp / ch**2) * (Phip / ch**2) * (ch / Rp) ** 5
    )
    np.fill_diagonal(F, Fd)
    M = (B * F * J[None, :]).astype(complex)

    if kappa != 0.0:
        gm = _gm3(kappa, R)
        sm = dTs * gm + Ts * 2.0 * Phi * _dgm3_du(kappa, R)
        np.fill_diagonal(sm, 0.0)
        M += 1j * sm * (g.weights * J)[None, :]

    if measure_term:
        dJ = J * surface_divergence(S, xiv)
        Fv = mA * (Ts / chord**2) * s**3
        Fvd = _diag_average(mAp * (Tsp / ch**2) * (ch / Rp) ** 3)
        np.fill_diagonal(Fv, Fvd)
        M += B * Fv * dJ[None, :]
        if kappa != 0.0:
            sm = Ts * gm
            np.fill_diagonal(sm, 0.0)
            M += 1j * sm * (g.weights * dJ)[None, :]
    return M


# -- shape derivatives of the kernels ------------------------------------
def _xi_probe(S: Surface, xi: DeformationField):
    pr = probe_geometry(S)
    out = pr["basis"] @ xi.coef.T
    return out.reshape(S.grid.nnodes, PROBE_NDIRS, 3)


def dvmat(S: Surface, kappa: float, xi: DeformationField, measure_term: bool = True):
    """Derivative of the transported single-layer matrix at the base surface.

    d/dt of  int G(kappa, |x_t - y_t|) u(y) J_t ds(y)  at t = 0, where
    x_t = x + t xi.  ``measure_term=False`` drops the dJ part (used where the
    relative Jacobian cancels against the density).
    """
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian
    x = S.points
    xiv = xi.values
    dPhi = np.einsum(
        "ijk,ijk->ij", x[:, None, :] - x[None, :, :], xiv[:, None, :] - xiv[None, :, :]
    )  # Phi = (x-y).(xi(x)-xi(y)), O(R^2)

    # d/dt G = dG/d(R^2) * Phi*2/(2)...: dG/du * dR^2/dt with dR^2/dt = 2 Phi
    # singular: Phi * (-A)/(4 pi R^3) -> F = (-A/4pi)(Phi/chord^2) s^3
    F = -_A_fun(kappa, R) * (dPhi / chord**2) * s**3
    pr = probe_geometry(S)
    xip = _xi_probe(S, xi)
    dxp = x[:, None, :] - pr["x"]
    Rp = np.linalg.norm(dxp, axis=2)
    Phip = np.einsum("ijk,ijk->ij", dxp, xiv[:, None, :] - xip)
    ch = pr["chord"]
    Fd = _diag_average(
        -_A_fun(kappa, Rp) * (Phip / ch**2) * (ch / Rp) ** 3
    )
    np.fill_diagonal(F, Fd)
    M = (B * F * J[None, :]).astype(complex)

    if kappa != 0.0:
        sm = dPhi * _gm3(kappa, R)
        np.fill_diagonal(sm, 0.0)
        M += 1j * sm * (g.weights * J)[None, :]

    if measure_term:
        dJ = J * surface_divergence(S, xiv)
        Fv = s * np.cos(kappa * R)
        Rp2 = Rp
        np.fill_diagonal(Fv, _diag_average(ch / Rp2))
        M += B * Fv * dJ[None, :]
        if kappa != 0.0:
            sm = _sinc4pi(kappa, R)
            np.fill_diagonal(sm, kappa / (4.0 * np.pi))
            M += 1j * sm * (g.weights * dJ)[None, :]
    return M


def dkprime_mat(S: Surface, kappa: float, xi: DeformationField, measure_term=True):
    """Derivative of the transported K'_kappa matrix at the base surface.

    Kernel T_t g(R_t) with T_t = n_t(x).(x_t - y_t); uses
    dT = dN(x).(x-y) + n(x).(xi(x)-xi(y)) and the chain rule in R^2.
    """
    g = S.grid
    P = pair_geometry(S)
    R, chord, s = P["R"], P["chord"], P["s"]
    B = g.singular_weights
    J = S.jacobian
    x, n = S.points, S.normal
    xiv = xi.values
    dn = d_normal(S, xi)

    dx = x[:, None, :] - x[None, :, :]
    dxi = xiv[:, None, :] - xiv[None, :, :]
    T = np.einsum("ik,ijk->ij", n, dx)
    dT = np.einsum("ik,ijk->ij", dn, dx) + np.einsum("ik,ijk->ij", n, dxi)
    Phi = np.einsum("ijk,ijk->ij", dx, dxi)

    pr = probe_geometry(S)
    xip = _xi_probe(S, xi)
    dxp = x[:, None, :] - pr["x"]
    dxip = xiv[:, None, :] - xip
    Rp = np.linalg.norm(dxp, axis=2)
    ch = pr["chord"]
    Tp = np.einsum("ik,ijk->ij", n, dxp)
    dTp = np.einsum("ik,ijk->ij", dn, dxp) + np.einsum("ik,ijk->ij", n, dxip)
    Phip = np.einsum("ijk,ijk->ij", dxp, dxip)

    # gs = -A/(4 pi R^3): d(T gs) = dT gs + T * (N5/R^5) * 2 Phi
    mA, mAp = -_A_fun(kappa, R), -_A_fun(kappa, Rp)  # shared with the measure term
    F = (
        mA * (dT / chord**2) * s**3
        + 2.0 * _N5(kappa, R) * (T / chord**2) * (Phi / chord**2) * s**5
    )
    Fd = _diag_average(
        mAp * (dTp / ch**2) * (ch / Rp) ** 3
        + 2.0 * _N5(kappa, Rp) * (Tp / ch**2) * (Phip / ch**2) * (ch / Rp) ** 5
    )
    np.fill_diagonal(F, Fd)
    M = (B * F * J[None, :]).astype(complex)

    if kappa != 0.0:
        gm = _gm3(kappa, R)
        sm = dT * gm + T * 2.0 * Phi * _dgm3_du(kappa, R)
        np.fill_diagonal(sm, 0.0)
        M += 1j * sm * (g.weights * J)[None, :]

    if measure_term:
        dJ = J * surface_divergence(S, xiv)
        Fv = mA * (T / chord**2) * s**3
        Fvd = _diag_average(mAp * (Tp / ch**2) * (ch / Rp) ** 3)
        np.fill_diagonal(Fv, Fvd)
        M += B * Fv * dJ[None, :]
        if kappa != 0.0:
            sm = T * gm
            np.fill_diagonal(sm, 0.0)
            M += 1j * sm * (g.weights * dJ)[None, :]
    return M
