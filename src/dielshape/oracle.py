"""Series solution for plane-wave scattering by a homogeneous dielectric ball.

Independent reference implementation used to validate the integral-equation
solver on spherical geometries.  The scattering coefficients follow the
classical vector-wave-function matching (general permeability contrast), and
the far field is returned in the package normalization

    E_s(x) ~ exp(i k r) / (4 pi r) * E_inf(xhat).
"""

from __future__ import annotations

import numpy as np

from .errors import SeriesNotConverged
from .geometry import Material
from .solver import PlaneWave

__all__ = [
    "mie_coefficients",
    "mie_far_field",
    "mie_radius_derivative",
]


def _sph_bessel(nmax, z):
    """Spherical Bessel j_n, y_n and their derivatives, n = 0..nmax + 1, at
    real z > 0.

    j_n by Miller's downward recurrence from an order well above nmax and z,
    normalised against j_0 or j_1, whichever is larger (so the zeros of
    sin z do no harm); y_n by upward recurrence, stable for y.  Derivatives
    from f_n' = f_{n-1} - (n + 1) f_n / z and f_0' = -f_1."""
    s, c = np.sin(z), np.cos(z)
    top = nmax + int(z) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for k in range(top, 0, -1):
        j[k - 1] = (2 * k + 1) / z * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
    j0, j1 = s / z, (s / z - c) / z
    j = j[: nmax + 2] * (j0 / j[0] if abs(j0) >= abs(j1) else j1 / j[1])
    y = np.empty(nmax + 2)
    y[0], y[1] = -c / z, (-c / z - s) / z
    for k in range(1, nmax + 1):
        y[k + 1] = (2 * k + 1) / z * y[k] - y[k - 1]
    n = np.arange(1, nmax + 2)
    jp = np.concatenate([[-j[1]], j[:-1] - (n + 1) * j[1:] / z])
    yp = np.concatenate([[-y[1]], y[:-1] - (n + 1) * y[1:] / z])
    return j, jp, y, yp


def _riccati(nmax, z):
    """Riccati-Bessel psi_n = z j_n, xi_n = z h1_n and their derivatives,
    n = 1..nmax."""
    j, jp, y, yp = (f[1 : nmax + 1] for f in _sph_bessel(nmax, z))
    h = j + 1j * y
    hp = jp + 1j * yp
    return z * j, j + z * jp, z * h, h + z * hp


def default_order(mat: Material, radius: float) -> int:
    """Series truncation: size parameter plus a fixed safety margin."""
    return int(np.ceil(mat.kappa_e * radius)) + 15


def mie_coefficients(mat: Material, radius: float, nmax: int | None = None):
    """Scattering coefficients (a_n, b_n), n = 1..nmax.

    a_n multiplies the outgoing electric (TM) multipoles, b_n the magnetic
    (TE) ones, in the convention where the scattered far field of an
    x-polarized, z-travelling unit plane wave is assembled by
    :func:`mie_far_field`.
    """
    if nmax is None:
        nmax = default_order(mat, radius)
    x = mat.kappa_e * radius
    y = mat.kappa_i * radius
    m = mat.kappa_i / mat.kappa_e
    mu_r = mat.mu_i / mat.mu_e
    px, dpx, xx, dxx = _riccati(nmax, x)
    py, dpy, _, _ = _riccati(nmax, y)
    a = (m * py * dpx - mu_r * px * dpy) / (m * py * dxx - mu_r * xx * dpy)
    b = (mu_r * py * dpx - m * px * dpy) / (mu_r * py * dxx - m * xx * dpy)
    scale = max(np.abs(a).max(), np.abs(b).max())
    if scale > 0 and abs(a[-1]) + abs(b[-1]) > 1e-12 * scale:
        raise SeriesNotConverged(
            f"tail coefficient |a_N|+|b_N| = {abs(a[-1]) + abs(b[-1]):.3e} "
            f"not negligible at N = {nmax}"
        )
    return a, b


def _angular_functions(mu: np.ndarray, nmax: int):
    """pi_n and tau_n at cos(theta) = mu, shapes (npts, nmax)."""
    npts = mu.shape[0]
    pi = np.zeros((npts, nmax + 1))
    tau = np.zeros((npts, nmax + 1))
    if nmax >= 1:
        pi[:, 1] = 1.0
        tau[:, 1] = mu
    for n in range(2, nmax + 1):
        pi[:, n] = ((2 * n - 1) / (n - 1)) * mu * pi[:, n - 1] - (
            n / (n - 1)
        ) * pi[:, n - 2]
        tau[:, n] = n * mu * pi[:, n] - (n + 1) * pi[:, n - 1]
    return pi[:, 1:], tau[:, 1:]


def mie_far_field(
    mat: Material,
    radius: float,
    wave: PlaneWave,
    directions: np.ndarray,
    nmax: int | None = None,
) -> np.ndarray:
    """Scattered far field E_inf of the ball at unit directions, (ndir, 3)."""
    if nmax is None:
        nmax = default_order(mat, radius)
    a, b = mie_coefficients(mat, radius, nmax)
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    d = wave.d
    p = wave.p
    amp = np.linalg.norm(p)
    e1 = p / amp
    e2 = np.cross(d, e1)

    ct = dirs @ d
    ct = np.clip(ct, -1.0, 1.0)
    pi_n, tau_n = _angular_functions(ct, nmax)
    n = np.arange(1, nmax + 1)
    w = (2 * n + 1) / (n * (n + 1))
    S1 = (w * (a * pi_n + b * tau_n)).sum(axis=1)
    S2 = (w * (a * tau_n + b * pi_n)).sum(axis=1)

    # scattering-plane frame about the incidence direction
    c1 = dirs @ e1
    c2 = dirs @ e2
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    cphi = np.where(st > 1e-14, c1 / np.where(st > 1e-14, st, 1.0), 1.0)
    sphi = np.where(st > 1e-14, c2 / np.where(st > 1e-14, st, 1.0), 0.0)
    # theta-hat and phi-hat of the frame (d, e1, e2)
    phat = -sphi[:, None] * e1[None, :] + cphi[:, None] * e2[None, :]
    that = np.cross(phat, dirs)
    pref = 4.0 * np.pi / (-1j * mat.kappa_e) * amp
    return pref * (
        (cphi * S2)[:, None] * that - (sphi * S1)[:, None] * phat
    )


def mie_radius_derivative(
    mat: Material,
    radius: float,
    wave: PlaneWave,
    directions: np.ndarray,
    h: float = 1e-3,
    nmax: int | None = None,
) -> np.ndarray:
    """d/da of the ball's far field, by Richardson-extrapolated differences."""
    def central(step):
        fp = mie_far_field(mat, radius + step, wave, directions, nmax)
        fm = mie_far_field(mat, radius - step, wave, directions, nmax)
        return (fp - fm) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0
