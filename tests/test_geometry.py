import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import geometry, kernels, sh
from dielshape import surfcalc as sc
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

# the assembled kernel pairs: (K, dK) function and the term tables of K and
# dK; the source-normal kernel is K's adjoint (tests/test_kernels.py)
KERNEL_PAIRS = {
    "V": (kernels.dvmat, kernels._V, kernels._DV),
    "K'": (kernels.dkprime_mat, kernels._KP, kernels._DKP),
}


def _ring_data(S, xi, s):
    """Targets (the nodes) and sources (a ring of probes at geodesic distance
    s around each node on the reference sphere) with the data the kernel
    numerators take, from the basis evaluated at the probes."""
    g = S.grid
    st, ct, sp, cp = np.sin(g.theta), np.cos(g.theta), np.sin(g.phi), np.cos(g.phi)
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=1)[:, None, :]
    e_phi = np.stack([-sp, cp, 0.0 * sp], axis=1)[:, None, :]
    a = 2.0 * np.pi * np.arange(kernels.PROBE_NDIRS) / kernels.PROBE_NDIRS
    dirs = np.cos(a)[:, None] * e_theta + np.sin(a)[:, None] * e_phi
    y = np.cos(s) * g.nodes[:, None, :] + np.sin(s) * dirs
    theta = np.arccos(y[..., 2]).ravel()
    phi = np.mod(np.arctan2(y[..., 1], y[..., 0]), 2.0 * np.pi).ravel()
    Y, Yth, Yph = sh.sh_basis(g.Lmax, theta, phi)
    shape = dirs.shape

    def at(B, coef):
        return (B @ coef.T).reshape(shape)

    x, xt, xp = at(Y, S.coef), at(Yth, S.coef), at(Yph, S.coef)
    cross = np.cross(xt, xp)
    area = np.linalg.norm(cross, axis=-1)[..., None]
    n = cross / area
    dc = np.cross(at(Yth, xi.coef), xp) + np.cross(xt, at(Yph, xi.coef))
    dn = (dc - np.einsum("...k,...k->...", n, dc)[..., None] * n) / area
    tgt = {"x": S.points, "n": S.normal, "xi": xi.values, "dn": sc.d_normal(S, xi)}
    tgt = {k: v[:, None, :] for k, v in tgt.items()}
    return tgt, {"x": x, "n": n, "xi": at(Y, xi.coef), "dn": dn}


def _ring_diagonal(S, kappa, terms, tgt, src, s):
    """B_ii J_i times the mean over the ring of the singular part F of the
    kernel, the off-diagonal formula at the probes."""
    R = np.linalg.norm(tgt["x"] - src["x"], axis=-1)
    zcs = kernels._trig(kappa, R)
    chord = 2.0 * np.sin(s / 2.0)
    radial = {
        p: kernels._singular_radial(p, *zcs) * chord / R ** (2 * p + 1) for p in range(3)
    }
    names = {nm for _, _, nms in terms for nm in nms}
    F = kernels._term_sum(terms, kernels._numerators(tgt, src, names), radial)
    return S.grid.singular_weights.diagonal() * F.mean(axis=1) * S.jacobian


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

    def test_nan_constant_rejected(self):
        with pytest.raises(ValueError):
            Material(eps_i=float("nan"))


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

    def test_nan_radial_rejected(self):
        with pytest.raises(NonPositiveRadial):
            build_surface(float("nan"), 6, 14)

    def test_probe_directions_on_sphere(self):
        # on a sphere of radius a every tangent u has |v| = a and h(u, u) = -a
        a = 1.3
        S = sphere(a, 8, 18)
        pr = kernels.probe_geometry(S)
        assert pr["vn"].shape == pr["h"].shape == (S.grid.nnodes, kernels.PROBE_NDIRS)
        assert_allclose(pr["vn"], a, atol=1e-10)
        assert_allclose(pr["h"], -a, atol=1e-10)

    def test_ring_reference_converges_to_closed_form_diagonal(
        self, wobbly_surface, generic_xi
    ):
        # The diagonal limits are exact: a ring of probes at distance s
        # approaches them at second order in s, for all four kernels.  Below
        # s = 5e-4 the ring's numerators, O(s^2), lose digits to rounding.
        S, xi = wobbly_surface, generic_xi
        dists = (1e-3, 5e-4)
        rings = [_ring_data(S, xi, s) for s in dists]
        divxi = sc.surface_divergence(S, xi.values)
        for kappa in (0.0, 1.5):
            for name, (pair, terms, dterms) in KERNEL_PAIRS.items():
                K, dK = pair(S, kappa, xi)
                # the singular parts of the diagonals, without dK's measure term
                cases = (
                    (name, terms, K.diagonal(), np.abs(K).max()),
                    ("d" + name, dterms, dK.diagonal() - K.diagonal() * divxi,
                     np.abs(dK).max()),
                )
                for label, tms, diag, scale in cases:
                    gaps = [
                        np.abs(_ring_diagonal(S, kappa, tms, *ring, s) - diag.real).max()
                        / scale
                        for ring, s in zip(rings, dists)
                    ]
                    assert gaps[0] < 1e-5, (label, kappa, gaps)
                    assert 3.5 < gaps[0] / gaps[1] < 4.5, (label, kappa, gaps)


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
