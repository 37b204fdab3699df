"""Singular quadrature of the scalar layer kernels, checked against the
separable sphere eigenvalues and finite differences of deformed surfaces."""

from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import spherical_jn, spherical_yn


from dielshape import kernels as kn
from dielshape import shapederiv as sd
from dielshape import solver
from dielshape.bio import scalar_single_layer
from dielshape.errors import TargetOnSurface
from dielshape.geometry import DeformationField, Surface, build_surface, deform, sphere
from dielshape.grid import ReferenceGrid
from dielshape.surfcalc import d_normal


def _h1(n, z, derivative=False):
    return spherical_jn(n, z, derivative=derivative) + 1j * spherical_yn(
        n, z, derivative=derivative
    )


def _harmonic(grid, n, m):
    c = np.zeros(grid.ncoef(grid.Lmax))
    c[n * n + n + m] = 1.0
    return grid.synthesize(c)


def _eigenvalue_of(mat, y, spread_tol=1e-9):
    """Ratio (mat @ y) / y away from the nodal lines of y."""
    out = mat @ y
    mask = np.abs(y) > 0.3 * np.abs(y).max()
    ratios = out[mask] / y[mask]
    assert np.abs(ratios - ratios[0]).max() < spread_tol * max(1.0, np.abs(ratios[0]))
    return ratios.mean()


class TestSphereEigenvalues:
    @pytest.mark.parametrize("a", [1.0, 1.3])
    @pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, -2)])
    def test_single_layer(self, a, n, m):
        S = sphere(a, 8, 18)
        kap = 1.3
        lam = _eigenvalue_of(kn.vmat(S, kap), _harmonic(S.grid, n, m))
        x = kap * a
        expected = 1j * kap * a**2 * spherical_jn(n, x) * _h1(n, x)
        assert_allclose(lam, expected, atol=1e-10)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 0), (4, 2)])
    def test_normal_derivative_principal_value(self, n, m):
        # The kernel matrix realizes the principal value, whose sphere
        # eigenvalue is the symmetric average (i k^2 a^2 / 2)(j' h + j h').
        a, kap = 1.0, 1.3
        S = sphere(a, 8, 18)
        lam = _eigenvalue_of(
            kn.kprime_mat(S, kap), _harmonic(S.grid, n, m), spread_tol=1e-11
        )
        x = kap * a
        expected = (
            0.5j
            * kap**2
            * a**2
            * (
                spherical_jn(n, x, derivative=True) * _h1(n, x)
                + spherical_jn(n, x) * _h1(n, x, derivative=True)
            )
        )
        assert_allclose(lam, expected, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(1, 0), (3, 1)])
    def test_static_limit(self, n, m):
        a = 1.4
        S = sphere(a, 8, 18)
        lam = _eigenvalue_of(kn.vmat(S, 0.0), _harmonic(S.grid, n, m))
        assert_allclose(lam, a / (2 * n + 1), atol=1e-10)


class TestOffSurfaceLayer:
    def test_sphere_exterior_expansion(self):
        # V[Y_n^m](r x^) = i k a^2 j_n(k a) h_n(k r) Y_n^m(x^) for r > a.
        a, kap, r, n, m = 1.0, 1.3, 2.1, 2, 1
        S = sphere(a, 8, 18)
        y = _harmonic(S.grid, n, m)
        targets = r * S.points[::7]
        out = scalar_single_layer(S, kap, y, targets)
        expected = (
            1j * kap * a**2 * spherical_jn(n, kap * a) * _h1(n, kap * r) * y[::7]
        )
        assert_allclose(out, expected, atol=1e-10)

    def test_target_on_surface_rejected(self):
        S = sphere(1.0, 8, 18)
        with pytest.raises(TargetOnSurface):
            scalar_single_layer(S, 1.0, np.ones(S.grid.nnodes), S.points[:1] * 1.001)


# (primal, derivative, FD tolerance, translation tolerance) per kernel family
KERNEL_PAIRS = [
    ("vmat", "dvmat", 1e-7, 1e-10),
    ("kprime_mat", "dkprime_mat", 1e-6, 1e-8),
    ("kprime_src_mat", "dkprime_src_mat", 1e-6, 1e-8),
]


class TestKernelShapeDerivatives:
    @staticmethod
    def _fd_pair(S, xi, primal, deriv):
        kap, h = 1.3, 1e-4
        K = getattr(kn, primal)
        fd = (K(deform(S, xi, h), kap) - K(deform(S, xi, -h), kap)) / (2 * h)
        return getattr(kn, deriv)(S, kap, xi)[1], fd

    def _check_fd(self, S, xi, primal, deriv, atol, _):
        assert_allclose(*self._fd_pair(S, xi, primal, deriv), atol=atol)

    def test_dvmat_matches_fd(self, wobbly_surface, generic_xi):
        self._check_fd(wobbly_surface, generic_xi, *KERNEL_PAIRS[0])

    def test_dkprime_matches_fd(self, wobbly_surface, generic_xi):
        self._check_fd(wobbly_surface, generic_xi, *KERNEL_PAIRS[1])

    def test_dkprime_src_matches_fd(self, wobbly_surface, generic_xi):
        self._check_fd(wobbly_surface, generic_xi, *KERNEL_PAIRS[2])

    def test_dkprime_src_matches_fd_off_diagonal(self, wobbly_surface, generic_xi):
        primal, deriv, atol, _ = KERNEL_PAIRS[2]
        d, fd = self._fd_pair(wobbly_surface, generic_xi, primal, deriv)
        off = ~np.eye(d.shape[0], dtype=bool)
        assert_allclose(d[off], fd[off], atol=atol)

    def test_translation_invariance(self, small_sphere):
        # A rigid translation changes no pairwise distances, so the kernel
        # matrix derivative reduces to the (zero) measure variation.
        S = small_sphere
        xi = DeformationField.translation(S.grid, [0.3, -0.2, 0.1])
        for _, deriv, _, tol in KERNEL_PAIRS:
            assert np.abs(getattr(kn, deriv)(S, 1.3, xi)[1]).max() < tol, deriv

    def test_derivative_returns_its_primal(self, wobbly_surface, generic_xi):
        # The primal matrix a derivative kernel returns is the primal kernel,
        # bit for bit, so the operator blocks need not build it again.
        for primal, deriv, _, _ in KERNEL_PAIRS:
            for kap in (0.0, 1.3):
                K, _ = getattr(kn, deriv)(wobbly_surface, kap, generic_xi)
                assert np.array_equal(K, getattr(kn, primal)(wobbly_surface, kap)), deriv

    @pytest.mark.parametrize("deriv", ["dvmat", "dkprime_mat", "dkprime_src_mat"])
    def test_standalone_derivative_builds_no_basis(
        self, wobbly_surface, generic_xi, deriv, monkeypatch
    ):
        # The kernel passes read dN, div_Gamma xi, xi_u and dh from the
        # per-node record surfcalc._dgeom, so on a fresh surface a derivative
        # kernel builds neither the potential basis nor the Laplace-Beltrami
        # data, and transforms no node data.
        calls = []
        for name in ("dtheta", "dphi"):
            inner = getattr(ReferenceGrid, name)

            def counting(self, f, inner=inner, name=name):
                calls.append(name)
                return inner(self, f)

            monkeypatch.setattr(ReferenceGrid, name, counting)
        S = Surface(wobbly_surface.grid, wobbly_surface.coef)
        getattr(kn, deriv)(S, 1.3, generic_xi)
        assert "_basis_fields" not in S._cache and "_lb_data" not in S._cache
        assert calls == []


class TestSingleLayerSymmetry:
    @pytest.mark.parametrize("kap", [0.0, 1.3])
    def test_transpose_is_reweighting(self, wobbly_surface, kap):
        # V = core diag(w J) with a symmetric core, so V^T diag(w J) =
        # diag(w J) V, diagonal included: the magnetic block takes
        # V^T (w J u) as w J (V u).
        S = wobbly_surface
        V = kn.vmat(S, kap)
        wJ = S.grid.weights * S.jacobian
        lhs, rhs = V.T * wJ[None, :], wJ[:, None] * V
        assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * np.abs(rhs).max())
        u = np.random.default_rng(4).normal(size=(S.grid.nnodes, 3))
        out = wJ[:, None] * (V @ u)
        assert_allclose(V.T @ (wJ[:, None] * u), out, rtol=0, atol=1e-13 * np.abs(out).max())

    def test_static_kernel_is_real(self, wobbly_surface):
        assert not np.iscomplexobj(kn.vmat(wobbly_surface, 0.0))


class TestSourceNormalKernel:
    @pytest.mark.parametrize("kap", [0.0, 1.3])
    def test_adjoint_matches_source_normal_kernel(self, wobbly_surface, kap):
        # kprime_src_mat is the adjoint of K'.  Off the diagonal it must be
        # the source-normal kernel g(R) Ts, Ts_ij = -n_j.(x_i - x_j) in
        # difference form, under the weights _kernel_mats applies: the
        # singular part B F J, the smooth part w J.  On the diagonal both
        # kernels tend to the same closed-form limit.
        S = wobbly_surface
        x, n, J = S.points, S.normal, S.jacobian
        R = kn.pair_geometry(S)["R"]
        Ts = -np.einsum("jk,ijk->ij", n, x[:, None, :] - x[None, :, :])
        zcs = kn._trig(kap, R)
        ref = S.grid.singular_weights * (kn._singular_radial(1, *zcs) / R**3 * Ts)
        ref = ref * J[None, :]
        if kap != 0.0:
            smooth = kn._smooth_radial(1, kap, 1 / R**3, *zcs) * Ts
            ref = ref + 1j * smooth * (S.grid.weights * J)[None, :]
        KS = kn.kprime_src_mat(S, kap)
        off = ~np.eye(len(R), dtype=bool)
        assert np.abs(KS - ref)[off].max() <= 1e-13 * np.abs(ref[off]).max()
        assert_allclose(KS.diagonal(), kn.kprime_mat(S, kap).diagonal(), rtol=1e-15, atol=0)


class TestPairNumerators:
    def test_gram_numerators_match_difference_form(self):
        # The node-pair numerators come from Gram products; against the
        # difference form they must hold to the R^2 scale at which they
        # enter the order-1 kernels (wobbly fixture at L = 12, generic_xi).
        S = build_surface({"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}, 12, 26)
        g = S.grid
        coef = np.zeros((3, g.ncoef(g.Lmax)))
        coef[0, 6], coef[1, 10], coef[2, 2], coef[2, 0] = 0.3, 0.2, 0.25, 0.1
        xi = DeformationField(g, coef)
        x, n, xiv, dn = S.points, S.normal, xi.values, d_normal(S, xi)
        nodes = {"x": x, "n": n, "xi": xiv, "dn": dn}

        def diff(a):
            return a[:, None, :] - a[None, :, :]

        dx, dxi = diff(x), diff(xiv)
        R2 = np.einsum("ijk,ijk->ij", dx, dx)
        np.fill_diagonal(R2, 1.0)
        ref = {
            "T": np.einsum("ik,ijk->ij", n, dx),
            "Phi": np.einsum("ijk,ijk->ij", dx, dxi),
            "dT": np.einsum("ik,ijk->ij", dn, dx) + np.einsum("ik,ijk->ij", n, dxi),
        }
        del dx, dxi
        off = ~np.eye(g.nnodes, dtype=bool)
        numerators = kn._pair_numerators(kn.pair_geometry(S)["near"], nodes, ref)
        block = numerators(slice(0, g.nnodes))
        for nm, want in ref.items():
            err = np.abs(block[nm] - want)[off] / R2[off]
            assert err.max() < 1e-11, nm


class TestPairGeometry:
    def test_one_product_rule_matrix(self, small_solution):
        # The chord lives inside the grid's singular weights, so after a
        # solve the grid and the surface's pair data hold one real N x N
        # array each: the weights and the distances R.
        S = small_solution.surface
        N = S.grid.nnodes
        held = [*vars(S.grid).values(), *kn.pair_geometry(S).values()]
        square = [
            a for a in held
            if isinstance(a, np.ndarray) and a.shape == (N, N) and not np.iscomplexobj(a)
        ]
        assert sum(a.nbytes for a in square) == 2 * N * N * 8


class TestRowBlocks:
    @pytest.mark.parametrize("budget", ["one row", "one block"])
    def test_block_budget_changes_no_result(
        self, wobbly_surface, generic_xi, material, wave, unit_directions, monkeypatch,
        budget,
    ):
        # A kernel pass evaluates its rows in blocks of BLOCK_ELEMS node
        # pairs, each block with its own near pairs and diagonal entries.
        # One row per block and a single block for the whole pass must give
        # the matrices and route A's far field of the default budget.  The
        # far field only sees rounding: BLAS sums a product over the nodes
        # in an order that depends on the block's row count (measured up to
        # 2e-15 of the largest entry).
        S = wobbly_surface
        N = S.grid.nnodes
        sol = solver.solve(S, material, wave)
        runs = {}
        for kap in (0.0, 1.3):
            runs[f"vmat {kap}"] = partial(kn.vmat, S, kap)
            runs[f"kprime_mat {kap}"] = partial(kn.kprime_mat, S, kap)
            runs[f"dvmat {kap}"] = partial(kn.dvmat, S, kap, generic_xi)
            runs[f"dkprime_mat {kap}"] = partial(kn.dkprime_mat, S, kap, generic_xi)
        runs["far field"] = lambda: sd.d_solution_routeA(
            S, material, wave, generic_xi, unit_directions, sol=sol
        ).dE_far
        refs = {key: np.asarray(run()) for key, run in runs.items()}
        ref_pairs = kn.pair_geometry.__wrapped__(S)

        monkeypatch.setattr(kn, "BLOCK_ELEMS", {"one row": 1, "one block": N * N}[budget])
        pairs = kn.pair_geometry.__wrapped__(S)
        assert np.array_equal(pairs["R"], ref_pairs["R"])
        assert all(map(np.array_equal, pairs["near"], ref_pairs["near"]))
        for key, run in runs.items():
            ref, tol = refs[key], 1e-14 if key == "far field" else 1e-15
            assert np.abs(np.asarray(run()) - ref).max() <= tol * np.abs(ref).max(), key
