import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import geometry, kernels, sh
from dielshape.errors import (
    GridMismatch,
    InadmissibleDeformation,
    NonPositiveRadial,
)
from dielshape.geometry import (
    DeformationField,
    Material,
    build_surface,
    deform,
    sphere,
)
from dielshape.grid import PROBE_NDIRS, PROBE_T


class TestMaterial:
    def test_wavenumbers_and_contrast(self):
        m = Material(eps_i=2.25, eps_e=1.0, mu_i=1.0, mu_e=1.0, omega=1.0)
        assert_allclose(m.kappa_i, 1.5)
        assert_allclose(m.kappa_e, 1.0)
        assert_allclose(m.rho, m.kappa_i * m.mu_e / (m.kappa_e * m.mu_i), rtol=1e-14)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Material(eps_i=-1.0)
        with pytest.raises(ValueError):
            Material(omega=0.0)


class TestSurface:
    def test_unit_sphere_node_data(self):
        S = sphere(1.0, 8, 18)
        assert_allclose(S.normal, S.grid.nodes, atol=1e-12)
        assert_allclose(S.jacobian, 1.0, atol=1e-12)
        assert_allclose(S.area, 4.0 * np.pi, rtol=1e-10)

    def test_scaled_sphere(self):
        S = sphere(1.3, 8, 18)
        assert_allclose(S.jacobian, 1.3**2, rtol=1e-10)
        assert_allclose(S.area, 4.0 * np.pi * 1.3**2, rtol=1e-10)

    def test_normals_unit_on_generic_surface(self, wobbly_surface):
        assert_allclose(
            np.linalg.norm(wobbly_surface.normal, axis=1), 1.0, atol=1e-12
        )
        assert (wobbly_surface.jacobian > 0).all()

    def test_wobbly_area_against_fine_quadrature(self):
        coeffs = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.3}
        coarse = build_surface(coeffs, 8, 18)
        fine = build_surface(coeffs, 8, 40)
        assert_allclose(coarse.area, fine.area, rtol=1e-10)

    def test_nonpositive_radial_rejected(self):
        with pytest.raises(NonPositiveRadial):
            build_surface({"0,0": 0.1, "1,0": 5.0}, 6, 14)

    def test_probe_ring_on_unit_sphere(self, small_sphere):
        S = small_sphere
        pr = kernels.probe_geometry(S)
        x = pr["x"]
        assert x.shape == (S.grid.nnodes, PROBE_NDIRS, 3)
        assert_allclose(np.linalg.norm(x, axis=2), 1.0, atol=1e-12)
        chord = np.linalg.norm(x - S.points[:, None, :], axis=2)
        assert_allclose(chord, 2.0 * np.sin(PROBE_T / 2.0), rtol=1e-9)
        assert_allclose(pr["n"], x, atol=1e-12)

    def test_probe_data_reuses_grid_ring(self, monkeypatch):
        coeffs = {"0,0": np.sqrt(4.0 * np.pi), "2,1": 0.2}
        kernels.probe_geometry(build_surface(coeffs, 6, 14))

        def no_basis(*args, **kwargs):
            raise AssertionError("the probe basis was evaluated again")

        monkeypatch.setattr(sh, "sh_basis", no_basis)
        other = build_surface({**coeffs, "3,0": 0.1}, 6, 14)
        pr = kernels.probe_geometry(other)
        assert np.isfinite(pr["n"]).all()


class TestDeform:
    def test_zero_deformation_is_identity(self, small_sphere):
        xi = DeformationField.radial(small_sphere)
        assert deform(small_sphere, xi, 0.0) is small_sphere

    def test_translation_preserves_geometry(self, small_sphere):
        d = np.array([0.2, -0.1, 0.3])
        xi = DeformationField.translation(small_sphere.grid, d)
        assert_allclose(xi.values, d[None, :] * np.ones((xi.values.shape[0], 1)),
                        atol=1e-12)
        St = deform(small_sphere, xi, 1.0)
        assert_allclose(St.points, small_sphere.points + d[None, :], atol=1e-10)
        assert_allclose(St.normal, small_sphere.normal, atol=1e-12)
        assert_allclose(St.jacobian, small_sphere.jacobian, atol=1e-12)

    def test_radial_deformation_scales_sphere(self, small_sphere):
        xi = DeformationField.radial(small_sphere)
        St = deform(small_sphere, xi, 0.2)
        assert_allclose(St.jacobian, 1.44, rtol=1e-10)

    def test_inadmissible_deformation_rejected(self, small_sphere):
        xi = DeformationField.radial(small_sphere)
        with pytest.raises(InadmissibleDeformation):
            deform(small_sphere, xi, -1.2)  # radius passes through zero

    def test_grid_mismatch_rejected(self, small_sphere):
        other = sphere(1.0, 6, 14)
        xi = DeformationField.radial(other)
        with pytest.raises(GridMismatch):
            deform(small_sphere, xi, 0.1)
