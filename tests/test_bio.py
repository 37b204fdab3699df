"""Boundary operator blocks in Helmholtz coordinates: structure on the
sphere, translation behaviour, off-surface potentials, and agreement of the
analytic shape derivatives with finite differences of deformed surfaces."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import bio
from dielshape import surfcalc as sc
from dielshape.errors import TargetOnSurface
from dielshape.geometry import DeformationField, build_surface, deform, sphere

KAPPA = 1.3


@pytest.fixture(scope="module")
def directions():
    rng = np.random.default_rng(3)
    d = rng.normal(size=(6, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


@pytest.fixture(scope="module")
def density(small_sphere):
    g = small_sphere.grid
    rng = np.random.default_rng(3)
    p = rng.normal(size=g.ncoef(g.L))
    q = rng.normal(size=g.ncoef(g.L))
    p[0] = q[0] = 0.0
    return p, q


class TestBlockStructure:
    def test_sphere_blocks_are_diagonal(self, small_sphere):
        # Rotational symmetry: every operator block maps each spherical
        # harmonic density to the same harmonic, so in coefficient basis the
        # K x K sub-blocks are all diagonal.
        K = small_sphere.grid.ncoef(small_sphere.grid.L) - 1
        for mat in (
            bio.electric_block(small_sphere, KAPPA),
            bio.magnetic_block(small_sphere, KAPPA),
            bio.static_block(small_sphere),
        ):
            off = mat.copy()
            for i in range(K):
                for a in (0, K):
                    for b in (0, K):
                        off[i + a, i + b] = 0.0
            assert np.abs(off).max() < 1e-7 * max(np.abs(mat).max(), 1.0)

    def test_far_field_translation_phase(self, wobbly_surface, directions):
        # Shifting the surface multiplies each far-field row by
        # exp(-i kappa d . shift); the operator is otherwise unchanged.
        S = wobbly_surface
        shift = np.array([0.3, -0.2, 0.1])
        St = deform(S, DeformationField.translation(S.grid, shift), 1.0)
        for kind in ("electric", "magnetic"):
            F0 = bio.far_field_block(S, KAPPA, directions, kind)
            Ft = bio.far_field_block(St, KAPPA, directions, kind)
            phase = np.exp(-1j * KAPPA * (directions @ shift))
            assert_allclose(
                Ft, phase[:, None, None] * F0, atol=1e-12 * np.abs(F0).max()
            )

    def test_far_field_transverse(self, wobbly_surface, directions):
        F = bio.far_field_block(wobbly_surface, KAPPA, directions, "electric")
        radial = np.einsum("da,dak->dk", directions, F)
        assert np.abs(radial).max() < 1e-12 * np.abs(F).max()

    def test_unknown_far_kind_rejected(self, wobbly_surface, directions):
        with pytest.raises(ValueError):
            bio.far_field_block(wobbly_surface, KAPPA, directions, "scalar")


class TestPotentials:
    def _density(self, S, seed=3):
        g = S.grid
        rng = np.random.default_rng(seed)
        p = rng.normal(size=g.ncoef(g.L))
        q = rng.normal(size=g.ncoef(g.L))
        p[0] = q[0] = 0.0
        return sc.HelmholtzDensity(S, p, q)

    probes = np.array([[1.9, 0.3, -0.5], [0.1, -2.0, 0.4]])

    def _fd_curl(self, fn, x, h=1e-3):
        out = np.zeros((x.shape[0], 3), complex)
        eps = np.eye(3)
        for a in range(3):
            d = (fn(x + h * eps[a]) - fn(x - h * eps[a])) / (2.0 * h)
            b, c = (a + 1) % 3, (a + 2) % 3
            out[:, b] -= d[:, c]
            out[:, c] += d[:, b]
        return out

    def test_potentials_solve_helmholtz(self, wobbly_surface):
        S = wobbly_surface
        dens = self._density(S)
        h = 3e-4
        for fn in (bio.electric_potential, bio.magnetic_potential):
            E0 = fn(S, KAPPA, dens, self.probes)
            acc = -6.0 * E0
            for a in range(3):
                for sgn in (1.0, -1.0):
                    xs = self.probes.copy()
                    xs[:, a] += sgn * h
                    acc += fn(S, KAPPA, dens, xs)
            resid = acc / h**2 + KAPPA**2 * E0
            assert np.abs(resid).max() < 1e-4 * np.abs(E0).max()

    def test_potentials_are_curls_of_each_other(self, wobbly_surface):
        S = wobbly_surface
        dens = self._density(S)
        cE = self._fd_curl(
            lambda x: bio.electric_potential(S, KAPPA, dens, x), self.probes
        )
        cM = self._fd_curl(
            lambda x: bio.magnetic_potential(S, KAPPA, dens, x), self.probes
        )
        E = bio.electric_potential(S, KAPPA, dens, self.probes)
        M = bio.magnetic_potential(S, KAPPA, dens, self.probes)
        assert_allclose(cM, KAPPA * E, atol=1e-3 * np.abs(E).max())
        assert_allclose(cE, KAPPA * M, atol=1e-3 * np.abs(M).max())

    def test_target_near_surface_rejected(self, wobbly_surface):
        S = wobbly_surface
        dens = self._density(S)
        with pytest.raises(TargetOnSurface):
            bio.electric_potential(S, KAPPA, dens, S.points[:1] * 1.0001)


class TestShapeDerivativeBlocks:
    h = 1e-4

    def _fd(self, build, xi, S):
        return (build(deform(S, xi, self.h)) - build(deform(S, xi, -self.h))) / (
            2.0 * self.h
        )

    def test_d_electric_block(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self._fd(lambda St: bio.electric_block(St, KAPPA), generic_xi, S)
        out = bio.d_electric_block(S, KAPPA, generic_xi)
        assert_allclose(out, fd, atol=1e-6 * np.abs(fd).max())

    def test_d_magnetic_block(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self._fd(lambda St: bio.magnetic_block(St, KAPPA), generic_xi, S)
        out = bio.d_magnetic_block(S, KAPPA, generic_xi)
        assert_allclose(out, fd, atol=1e-5 * np.abs(fd).max())

    def test_d_static_block(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self._fd(bio.static_block, generic_xi, S)
        out = bio.d_static_block(S, generic_xi)
        assert_allclose(out, fd, atol=1e-7 * np.abs(fd).max())

    @pytest.mark.parametrize("kind", ["electric", "magnetic"])
    def test_d_far_field_block(self, wobbly_surface, generic_xi, directions, kind):
        S = wobbly_surface
        fd = self._fd(
            lambda St: bio.far_field_block(St, KAPPA, directions, kind),
            generic_xi,
            S,
        )
        out = bio.d_far_field_block(S, KAPPA, directions, kind, generic_xi)
        assert_allclose(out, fd, atol=1e-7 * np.abs(fd).max())

    @pytest.mark.parametrize("which", ["electric", "magnetic", "static"])
    def test_batch_form_equals_matrix_product(self, wobbly_surface, generic_xi, which):
        # dBlock applied to a coefficient batch is the matrix times the batch
        S = wobbly_surface
        d_block = {
            "electric": lambda *c: bio.d_electric_block(S, KAPPA, generic_xi, *c),
            "magnetic": lambda *c: bio.d_magnetic_block(S, KAPPA, generic_xi, *c),
            "static": lambda *c: bio.d_static_block(S, generic_xi, *c),
        }[which]
        rng = np.random.default_rng(5)
        K2 = 2 * (S.grid.ncoef(S.grid.L) - 1)
        c = rng.normal(size=(K2, 2)) + 1j * rng.normal(size=(K2, 2))
        ref = d_block() @ c
        out = d_block(c)
        assert out.shape == (K2, 2)
        assert_allclose(out, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_d_potentials(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        g = S.grid
        rng = np.random.default_rng(3)
        p = rng.normal(size=g.ncoef(g.L))
        q = rng.normal(size=g.ncoef(g.L))
        p[0] = q[0] = 0.0
        dens = sc.HelmholtzDensity(S, p, q)
        targets = 2.0 * S.points[::29]

        for fn, dfn in [
            (bio.electric_potential, bio.d_electric_potential),
            (bio.magnetic_potential, bio.d_magnetic_potential),
        ]:

            def at(t):
                St = deform(S, generic_xi, t)
                return fn(St, KAPPA, sc.HelmholtzDensity(St, p, q), targets)

            fd = (at(self.h) - at(-self.h)) / (2.0 * self.h)
            out = dfn(S, KAPPA, dens, targets, generic_xi)
            assert_allclose(out, fd, atol=1e-7 * np.abs(fd).max())
