"""Real spherical harmonics: evaluation, derivatives, coefficient indexing.

The basis is orthonormal on the unit sphere,

    Y_{n,0}  = Ptilde_n^0(cos th) / sqrt(2 pi)
    Y_{n,m}  = Ptilde_n^m(cos th) cos(m ph) / sqrt(pi),   m > 0
    Y_{n,-m} = Ptilde_n^m(cos th) sin(m ph) / sqrt(pi),   m > 0

where Ptilde_n^m are the associated Legendre functions normalized so that
int_{-1}^{1} (Ptilde_n^m)^2 dx = 1, built without the Condon-Shortley phase.
Coefficients are stored flat with index  k = n^2 + (n + m).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "num_coeffs",
    "flat_index",
    "degree_order_arrays",
    "sh_basis",
    "dphi_coeffs",
    "coeff_dict_to_vector",
]


def num_coeffs(L: int) -> int:
    """Number of real harmonics of degree <= L."""
    return (L + 1) ** 2


def flat_index(n: int, m: int) -> int:
    if not (-n <= m <= n):
        raise ValueError(f"order m={m} out of range for degree n={n}")
    return n * n + n + m


def degree_order_arrays(L: int):
    """Arrays (degree, order) aligned with the flat coefficient index."""
    ns = np.concatenate([np.full(2 * n + 1, n, dtype=int) for n in range(L + 1)])
    ms = np.concatenate([np.arange(-n, n + 1, dtype=int) for n in range(L + 1)])
    return ns, ms


def _legendre_normalized(L, x, sint):
    """Normalized associated Legendre Ptilde_n^m and d/dtheta at x = cos(theta).

    Returns two arrays of shape (L+1, L+1, npts) indexed [n, m].
    Entries with m > n are zero.  sint must be sin(theta) > 0 (off-pole nodes).
    """
    x = np.asarray(x, dtype=float)
    npts = x.shape[0]
    P = np.zeros((L + 1, L + 1, npts))
    P[0, 0] = 1.0 / np.sqrt(2.0)
    for m in range(1, L + 1):
        P[m, m] = np.sqrt((2 * m + 1) / (2.0 * m)) * sint * P[m - 1, m - 1]
    for m in range(0, L):
        P[m + 1, m] = np.sqrt(2 * m + 3.0) * x * P[m, m]
    for m in range(0, L + 1):
        for n in range(m + 2, L + 1):
            a = np.sqrt((4.0 * n * n - 1.0) / (n * n - m * m))
            b = np.sqrt(
                ((2.0 * n + 1.0) * (n - 1.0 + m) * (n - 1.0 - m))
                / ((2.0 * n - 3.0) * (n * n - m * m))
            )
            P[n, m] = a * x * P[n - 1, m] - b * P[n - 2, m]
    # sin(th) dP/dth = n cos(th) P_n^m - sqrt((2n+1)(n^2-m^2)/(2n-1)) P_{n-1}^m
    dP = np.zeros_like(P)
    for n in range(1, L + 1):
        for m in range(0, n + 1):
            c = np.sqrt((2.0 * n + 1.0) * (n * n - m * m) / (2.0 * n - 1.0))
            dP[n, m] = (n * x * P[n, m] - c * P[n - 1, m]) / sint
    return P, dP


def sh_basis(L: int, theta, phi):
    """Real spherical harmonics and their angular derivatives.

    Parameters
    ----------
    L : maximum degree.
    theta, phi : arrays of equal length, 0 < theta < pi.

    Returns
    -------
    (Y, Yth, Yph) : Y, dY/dtheta and dY/dphi, each of shape (npts, (L+1)^2).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    sint = np.sin(theta)
    P, dP = _legendre_normalized(L, np.cos(theta), sint)
    shape = (theta.shape[0], num_coeffs(L))
    Y, Yth, Yph = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    inv_sqrt_2pi = 1.0 / np.sqrt(2.0 * np.pi)
    inv_sqrt_pi = 1.0 / np.sqrt(np.pi)
    for n in range(L + 1):
        Y[:, flat_index(n, 0)] = P[n, 0] * inv_sqrt_2pi
        Yth[:, flat_index(n, 0)] = dP[n, 0] * inv_sqrt_2pi
        for m in range(1, n + 1):
            c, s = np.cos(m * phi), np.sin(m * phi)
            kp, km = flat_index(n, m), flat_index(n, -m)
            Y[:, kp] = P[n, m] * c * inv_sqrt_pi
            Y[:, km] = P[n, m] * s * inv_sqrt_pi
            Yth[:, kp] = dP[n, m] * c * inv_sqrt_pi
            Yth[:, km] = dP[n, m] * s * inv_sqrt_pi
            Yph[:, kp] = -m * P[n, m] * s * inv_sqrt_pi
            Yph[:, km] = m * P[n, m] * c * inv_sqrt_pi
    return Y, Yth, Yph


def dphi_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficients of d/dphi of the expansion with coefficients c (nc, ...).

    d/dphi maps Y_{n,m} to -m Y_{n,-m} and Y_{n,-m} to m Y_{n,m}: a signed
    swap of the orders +-m, (D c)[n, m] = m c[n, -m] for either sign of m.
    """
    c = np.asarray(c)
    _, ms = degree_order_arrays(math.isqrt(c.shape[0]) - 1)
    k = np.arange(c.shape[0])
    return ms.reshape((-1,) + (1,) * (c.ndim - 1)) * c[k - 2 * ms]


def coeff_dict_to_vector(coeffs: dict, L: int) -> np.ndarray:
    """Convert a {"n,m": value} map (as used in config files) to a flat vector."""
    out = np.zeros(num_coeffs(L))
    for key, val in coeffs.items():
        if isinstance(key, str):
            n_str, m_str = key.replace("(", "").replace(")", "").split(",")
            n, m = int(n_str), int(m_str)
        else:
            n, m = key
        if n > L:
            raise ValueError(f"coefficient degree {n} exceeds truncation L={L}")
        out[flat_index(n, m)] = float(val)
    return out
