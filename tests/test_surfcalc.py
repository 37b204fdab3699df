import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import kernels as kn
from dielshape import surfcalc as sc
from dielshape.errors import NonZeroMean
from dielshape.geometry import DeformationField, Surface, build_surface, deform, sphere


def random_scalar(S, seed=0, decay=0.5, maxdeg=None):
    g = S.grid
    rng = np.random.default_rng(seed)
    nc = g.ncoef(g.L - 2 if maxdeg is None else maxdeg)
    c = np.zeros(g.ncoef(g.Lmax))
    c[1:nc] = rng.normal(size=nc - 1) * np.exp(-decay * np.arange(1, nc))
    return g.synthesize(c)


def random_tangent(S, seed=0):
    return sc.surface_gradient(S, random_scalar(S, seed)) + sc.tangential_vector_curl(
        S, random_scalar(S, seed + 100)
    )


def sph_weight(S):
    return S.grid.weights * S.jacobian


class TestDifferentialIdentities:
    def test_gradient_of_constant_vanishes(self, wobbly_surface):
        f = np.full(wobbly_surface.grid.nnodes, 5.0)
        assert_allclose(sc.surface_gradient(wobbly_surface, f), 0.0, atol=1e-11)

    def test_gradient_tangential(self, wobbly_surface):
        gf = sc.surface_gradient(wobbly_surface, random_scalar(wobbly_surface))
        defect = np.einsum("ij,ij->i", gf, wobbly_surface.normal)
        assert np.abs(defect).max() < 1e-10

    def test_sphere_gradient_of_height(self):
        S = sphere(1.0, 8, 18)
        z = S.points[:, 2]
        expected = np.tile([0.0, 0.0, 1.0], (S.points.shape[0], 1)) - z[:, None] * S.points
        assert_allclose(sc.surface_gradient(S, z), expected, atol=1e-10)

    def test_scalar_curl_of_gradient_vanishes(self, resolved_surface):
        f = random_scalar(resolved_surface)
        out = sc.surface_scalar_curl(resolved_surface, sc.surface_gradient(resolved_surface, f))
        assert np.abs(out).max() < 1e-10 * np.abs(f).max()

    def test_divergence_of_curl_vanishes(self, resolved_surface):
        f = random_scalar(resolved_surface)
        out = sc.surface_divergence(
            resolved_surface, sc.tangential_vector_curl(resolved_surface, f)
        )
        assert np.abs(out).max() < 1e-10 * np.abs(f).max()

    def test_div_of_rotated_field(self, resolved_surface):
        # div_G(n ^ j) = -curl_G j
        S = resolved_surface
        j = random_tangent(S)
        lhs = sc.surface_divergence(S, np.cross(S.normal, j))
        rhs = -sc.surface_scalar_curl(S, j)
        assert_allclose(lhs, rhs, atol=1e-10 * np.abs(rhs).max())

    def test_duality_gradient(self, resolved_surface):
        S = resolved_surface
        j = random_tangent(S, 1)
        phi = random_scalar(S, 2)
        w = sph_weight(S)
        lhs = np.sum(w * sc.surface_divergence(S, j) * phi)
        rhs = -np.sum(w * np.einsum("ij,ij->i", j, sc.surface_gradient(S, phi)))
        assert_allclose(lhs, rhs, rtol=1e-9)

    def test_duality_curl(self, resolved_surface):
        S = resolved_surface
        j = random_tangent(S, 3)
        phi = random_scalar(S, 4)
        w = sph_weight(S)
        lhs = np.sum(w * sc.surface_scalar_curl(S, j) * phi)
        rhs = np.sum(w * np.einsum("ij,ij->i", j, sc.tangential_vector_curl(S, phi)))
        assert_allclose(lhs, rhs, rtol=1e-9)

    def test_divergence_mean_zero(self, resolved_surface):
        S = resolved_surface
        out = sc.surface_divergence(S, random_tangent(S, 5))
        assert abs(np.sum(sph_weight(S) * out)) < 1e-10 * np.abs(out).max()


class TestLaplaceBeltrami:
    def test_sphere_eigenvalues(self):
        S = sphere(1.0, 8, 18)
        g = S.grid
        for n, m in [(1, 0), (2, 1), (4, -3), (6, 0)]:
            c = np.zeros(g.ncoef(g.Lmax))
            c[n * n + n + m] = 1.0
            y = g.synthesize(c)
            assert_allclose(sc.laplace_beltrami(S, y), -n * (n + 1) * y, atol=1e-8)

    def test_scaled_sphere_eigenvalue(self):
        a = 1.4
        S = sphere(a, 8, 18)
        g = S.grid
        c = np.zeros(g.ncoef(g.Lmax))
        c[6] = 1.0  # Y_2^0
        y = g.synthesize(c)
        assert_allclose(sc.laplace_beltrami(S, y), -6.0 / a**2 * y, atol=1e-8)

    def test_inverse_roundtrip(self, resolved_surface):
        S = resolved_surface
        f = random_scalar(S, 6)
        f -= sc.mean_value(S, f)
        u = sc.laplace_beltrami_inverse(S, f)
        assert_allclose(sc.laplace_beltrami(S, u), f, atol=1e-9 * np.abs(f).max())
        assert abs(sc.mean_value(S, u)) < 1e-10

    def test_nonzero_mean_rejected(self, wobbly_surface):
        with pytest.raises(NonZeroMean):
            sc.laplace_beltrami_inverse(
                wobbly_surface, np.ones(wobbly_surface.grid.nnodes)
            )

    def test_mean_curvature_of_sphere(self):
        S = sphere(1.0, 8, 18)
        assert_allclose(sc.mean_curvature(S), 1.0, atol=1e-10)
        assert_allclose(sc.mean_curvature(sphere(2.0, 8, 18)), 0.5, atol=1e-10)


def _gauss_curvature_integral(S):
    W = sc._curvature(S)["W"]
    K = 0.5 * (np.einsum("iaa->i", W) ** 2 - np.einsum("iab,iba->i", W, W))
    return np.sum(sph_weight(S) * K)


class TestShapeOperator:
    # W = grad_Gamma n in closed form from second derivatives of the surface
    # coefficients; mean_curvature is half its trace.
    def test_symmetric_and_tangential(self, wobbly_surface):
        S = wobbly_surface
        W = sc._curvature(S)["W"]
        assert np.abs(W - W.swapaxes(1, 2)).max() < 1e-14
        assert np.abs(np.einsum("iab,ib->ia", W, S.normal)).max() < 1e-14

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_sphere(self, a):
        # At L = 6 the sphere's coefficients are exact to ~3e-15; at L = 8 the
        # transform leaves ~2e-14 at degree 17, which second derivatives
        # amplify to ~3e-12 (the divergence of n shows the same ~2e-12).
        S = sphere(a, 6, 14)
        cv = sc._curvature(S)
        P = np.eye(3) - S.normal[:, :, None] * S.normal[:, None, :]
        assert np.abs(cv["W"] - P / a).max() < 1e-12
        assert np.abs(cv["H"] - 1.0 / a).max() < 1e-12

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_gauss_bonnet_sphere(self, a):
        S = sphere(a, 8, 18)
        assert abs(_gauss_curvature_integral(S) - 4.0 * np.pi) <= 1e-13

    def test_gauss_bonnet_wobbly_converges_spectrally(self):
        coef = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        err = {}
        for L in (6, 8, 10):
            S = build_surface(coef, L, 2 * L + 2)
            err[L] = abs(_gauss_curvature_integral(S) - 4.0 * np.pi)
        assert err[10] < 1e-8
        assert err[8] <= 0.1 * err[6]


class TestHelmholtzDecomposition:
    def test_pure_gradient(self, resolved_surface):
        S = resolved_surface
        g = S.grid
        c = np.zeros(g.ncoef(g.L))
        c[7] = 1.0  # Y_2^1
        j = sc.surface_gradient(S, g.synthesize(np.concatenate(
            [c, np.zeros(g.ncoef(g.Lmax) - c.size)])))
        K = g.ncoef(g.L) - 1
        out = sc.helmholtz_decompose(S, j)
        assert_allclose(out[:K], c[1:], atol=1e-9)
        assert_allclose(out[K:], 0.0, atol=1e-9)

    def test_roundtrip(self, resolved_surface):
        S = resolved_surface
        j = random_tangent(S, 7)
        c = sc.helmholtz_decompose(S, j)
        jb = sc.density_basis(S)[0]
        assert_allclose(jb @ c, j, atol=1e-8 * np.abs(j).max())

    @pytest.mark.parametrize("L", [6, 8])
    def test_weak_projection_inverts_basis(self, L):
        # w J grad Y . (grad q ^ n) does not depend on the geometry, so the
        # weak projection recovers the coefficients of jb c on any surface;
        # a batch of fields decomposes column by column
        coef = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        S = build_surface(coef, L, 2 * L + 2)
        rng = np.random.default_rng(L)
        K2 = 2 * (S.grid.ncoef(L) - 1)
        c = rng.normal(size=(K2, 3)) + 1j * rng.normal(size=(K2, 3))
        j = np.einsum("iak,km->iam", sc.density_basis(S)[0], c)
        out = sc.helmholtz_decompose(S, j)
        assert out.shape == c.shape
        assert np.abs(out - c).max() < 1e-13 * np.abs(c).max()
        for m in range(c.shape[1]):
            col = sc.helmholtz_decompose(S, j[:, :, m])
            assert np.abs(col - out[:, m]).max() < 1e-13 * np.abs(c).max()


def transported(op, S, xi, t, u):
    """tau_t o op_{Gamma_t} o tau_t^{-1} applied to fixed node values."""
    St = deform(S, xi, t)
    return op(St, u)


class TestShapeDerivatives:
    def fd(self, f, h):
        return (f(h) - f(-h)) / (2.0 * h)

    def test_constant_xi_all_derivatives_vanish(self, wobbly_surface):
        S = wobbly_surface
        xi = DeformationField.translation(S.grid, [0.4, -0.3, 0.2])
        u = random_scalar(S, 9)
        j = random_tangent(S, 9)
        assert np.abs(sc.d_normal(S, xi)).max() < 1e-10
        assert np.abs(sc.d_jacobian(S, xi)).max() < 1e-10
        for which, arg in [
            ("gradient", u),
            ("vector_curl", u),
            ("divergence", j),
            ("scalar_curl", j),
        ]:
            assert np.abs(sc.d_surface_operator(which, S, xi, arg)).max() < 1e-10

    def test_d_jacobian_radial_on_sphere(self, small_sphere):
        xi = DeformationField.radial(small_sphere)
        assert_allclose(sc.d_jacobian(small_sphere, xi), 2.0, atol=1e-9)

    def test_d_normal_matches_fd(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self.fd(lambda t: deform(S, generic_xi, t).normal, 1e-4)
        assert_allclose(sc.d_normal(S, generic_xi), fd, atol=1e-6)

    def test_d_jacobian_matches_fd(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self.fd(lambda t: deform(S, generic_xi, t).jacobian, 1e-4)
        assert_allclose(sc.d_jacobian(S, generic_xi), fd, atol=1e-6)

    @pytest.mark.parametrize("which", ["gradient", "vector_curl", "divergence", "scalar_curl"])
    def test_d_surface_operator_matches_fd(self, wobbly_surface, generic_xi, which):
        S = wobbly_surface
        if which in ("gradient", "vector_curl"):
            u = random_scalar(S, 10)
            op = {
                "gradient": sc.surface_gradient,
                "vector_curl": sc.tangential_vector_curl,
            }[which]
        else:
            u = random_tangent(S, 10)
            op = {
                "divergence": sc.surface_divergence,
                "scalar_curl": sc.surface_scalar_curl,
            }[which]
        fd = self.fd(lambda t: transported(op, S, generic_xi, t, u), 1e-4)
        out = sc.d_surface_operator(which, S, generic_xi, u)
        assert_allclose(out, fd, atol=1e-6 * max(np.abs(fd).max(), 1.0))

    def test_d_rstar_matches_fd(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        u = random_tangent(S, 12)
        fd = self.fd(
            lambda t: sc.rstar_apply(S, deform(S, generic_xi, t), u), 1e-4
        )
        out = sc.d_rstar(S, generic_xi, u)
        assert_allclose(out, fd, atol=1e-6 * np.abs(fd).max())
        assert abs(np.sum(sph_weight(S) * out)) < 1e-10 * np.abs(out).max()

    def test_cached_record_survives_caller_writes(self, wobbly_surface, generic_xi):
        # d_normal and d_jacobian read the per-surface derivative record that
        # the kernel passes also read; writing into what they return must
        # change neither a later call nor a kernel derivative.
        S = Surface(wobbly_surface.grid, wobbly_surface.coef)
        dn, dj = sc.d_normal(S, generic_xi), sc.d_jacobian(S, generic_xi)
        ref = dn.copy(), dj.copy(), kn.dvmat(S, 1.3, generic_xi)[1]
        dn[:] = 7.0
        dj[:] = 7.0
        assert np.array_equal(sc.d_normal(S, generic_xi), ref[0])
        assert np.array_equal(sc.d_jacobian(S, generic_xi), ref[1])
        assert np.array_equal(kn.dvmat(S, 1.3, generic_xi)[1], ref[2])

    def test_rstar_second_derivative_vanishes(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        u = random_tangent(S, 13)
        h = 1e-2
        second = (
            sc.rstar_apply(S, deform(S, generic_xi, h), u)
            - 2.0 * sc.rstar_apply(S, S, u)
            + sc.rstar_apply(S, deform(S, generic_xi, -h), u)
        ) / h**2
        assert np.abs(second).max() < 1e-6 * np.abs(u).max()

    @pytest.mark.parametrize("surface", ["resolved_surface", "wobbly_surface"])
    def test_d_laplace_inverse_matches_fd(self, request, surface):
        # The analytic derivative is of the Jacobian-weighted inverse, so the
        # matching finite-difference family rescales the data by J_0 / J_t.
        # Solutions on nearby surfaces carry their own mean gauge, hence the
        # comparison is modulo constants.  It is the exact derivative of the
        # discrete Galerkin inverse, so central differences agree to O(h^2)
        # on the coarse grid of wobbly_surface (nquad = 2L + 2) too.
        S = request.getfixturevalue(surface)
        g = S.grid
        coef = np.zeros((3, g.ncoef(g.Lmax)))
        coef[0, 6] = 0.3
        coef[1, 10] = 0.2
        coef[2, 2] = 0.25
        coef[2, 0] = 0.1
        xi = DeformationField(g, coef)
        f = random_scalar(S, 14)
        f -= sc.mean_value(S, f)

        def solve_at(t):
            St = deform(S, xi, t)
            ft = f * S.jacobian / St.jacobian
            ft -= sc.mean_value(St, ft)
            return sc.laplace_beltrami_inverse(St, ft)

        fd = self.fd(solve_at, 1e-4)
        out = sc.d_laplace_inverse(S, xi, f)
        diff = fd - out
        assert np.abs(diff - diff.mean()).max() < 1e-9 * np.abs(fd).max()
        assert abs(sc.mean_value(S, out)) < 1e-12
