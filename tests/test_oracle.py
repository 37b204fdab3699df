"""Series solution for the dielectric ball: frozen reference coefficients,
physical invariants, and convergence of the truncation and of the
radius-derivative extrapolation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import spherical_jn, spherical_yn

from dielshape import oracle
from dielshape.errors import SeriesNotConverged
from dielshape.geometry import Material
from dielshape.solver import PlaneWave

MAT = Material(eps_i=2.25)
WAVE = PlaneWave()


class TestCoefficients:
    def test_reference_values(self):
        # Independently derived from the Riccati-Bessel matching conditions
        # for eps_i = 2.25, radius 1, unit exterior wavenumber.
        a, b = oracle.mie_coefficients(MAT, 1.0)
        assert_allclose(a[0], 0.03487269707802707 - 0.18345733039737397j, atol=1e-14)
        assert_allclose(b[0], 0.0008005058463215281 - 0.028281885310416158j, atol=1e-14)
        assert_allclose(a[1], 0.0001051619420237876 - 0.010254310459008806j, atol=1e-14)
        assert_allclose(b[1], 5.731825567517838e-07 - 0.0007570879923849939j, atol=1e-14)

    def test_energy_conservation(self):
        # Lossless sphere: every coefficient lies on the unitarity circle,
        # Re c_n = |c_n|^2.
        a, b = oracle.mie_coefficients(MAT, 1.0)
        assert np.abs(a.real - np.abs(a) ** 2).max() < 1e-15
        assert np.abs(b.real - np.abs(b) ** 2).max() < 1e-15

    def test_no_contrast_coefficients_vanish(self):
        a, b = oracle.mie_coefficients(Material(eps_i=1.0), 1.0)
        assert np.abs(a).max() < 1e-14
        assert np.abs(b).max() < 1e-14

    def test_unconverged_truncation_rejected(self):
        with pytest.raises(SeriesNotConverged):
            oracle.mie_coefficients(MAT, 1.0, nmax=5)


class TestFarField:
    dirs = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])

    def test_reference_values(self):
        F = oracle.mie_far_field(MAT, 1.0, WAVE, self.dirs)
        # forward and backward scattering are co-polarized with p = e_x
        assert_allclose(F[0], [4.34979276 + 0.67574903j, 0.0, 0.0], atol=1e-7)
        assert_allclose(F[1], [2.63777527 + 0.63896313j, 0.0, 0.0], atol=1e-7)
        # in the side direction along p only the z-component survives
        assert_allclose(F[2], [0.0, 0.0, -0.21099776 - 0.01178542j], atol=1e-7)

    def test_transverse(self):
        rng = np.random.default_rng(8)
        d = rng.normal(size=(15, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        F = oracle.mie_far_field(MAT, 1.0, WAVE, d)
        assert np.abs(np.einsum("ij,ij->i", d, F)).max() < 1e-12 * np.abs(F).max()

    def test_truncation_converged(self):
        n0 = oracle.default_order(MAT, 1.0)
        F0 = oracle.mie_far_field(MAT, 1.0, WAVE, self.dirs, nmax=n0)
        F1 = oracle.mie_far_field(MAT, 1.0, WAVE, self.dirs, nmax=n0 + 5)
        assert np.abs(F0 - F1).max() < 1e-12 * np.abs(F0).max()

    def test_rayleigh_scaling(self):
        # Small spheres scatter with amplitude proportional to volume.
        norms = [
            np.linalg.norm(oracle.mie_far_field(MAT, r, WAVE, self.dirs))
            for r in (0.05, 0.1)
        ]
        slope = np.log2(norms[1] / norms[0])
        assert slope == pytest.approx(3.0, abs=0.05)


class TestRadiusDerivative:
    dirs = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])

    def test_central_differences_converge_to_extrapolant(self):
        D = oracle.mie_radius_derivative(MAT, 1.0, WAVE, self.dirs)
        errs = []
        for h in (1e-2, 1e-3):
            c = (
                oracle.mie_far_field(MAT, 1.0 + h, WAVE, self.dirs)
                - oracle.mie_far_field(MAT, 1.0 - h, WAVE, self.dirs)
            ) / (2.0 * h)
            errs.append(np.linalg.norm(c - D))
        slope = np.log10(errs[0] / errs[1])
        assert slope == pytest.approx(2.0, abs=0.05)
        assert errs[1] < 1e-4


class TestBessel:
    # scipy is a test-only reference; the absolute floor is j_0(pi) ~ 4e-17,
    # a zero of sin z, where no relative accuracy is meaningful
    @pytest.mark.parametrize("z", [0.05, 0.3, 1.0, 1.5, np.pi, 10.0, 30.0])
    def test_matches_scipy(self, z):
        nmax = int(np.ceil(z)) + 15
        n = np.arange(nmax + 2)
        ref = (
            spherical_jn(n, z),
            spherical_jn(n, z, derivative=True),
            spherical_yn(n, z),
            spherical_yn(n, z, derivative=True),
        )
        for out, r in zip(oracle._sph_bessel(nmax, z), ref):
            assert out.shape == r.shape
            assert_allclose(out, r, rtol=5e-14, atol=4e-17)

    def test_far_field_matches_scipy_reference(self, monkeypatch):
        # the same series with scipy's Bessel functions in place of the
        # recurrences
        dirs = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
        F = oracle.mie_far_field(MAT, 1.0, WAVE, dirs)

        def scipy_bessel(nmax, z):
            n = np.arange(nmax + 2)
            return tuple(
                f(n, z, derivative=d)
                for f in (spherical_jn, spherical_yn)
                for d in (False, True)
            )

        monkeypatch.setattr(oracle, "_sph_bessel", scipy_bessel)
        ref = oracle.mie_far_field(MAT, 1.0, WAVE, dirs)
        assert np.abs(F - ref).max() <= 1e-13 * np.abs(ref).max()
