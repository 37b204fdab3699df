"""Boundary operator blocks in Helmholtz coordinates: structure on the
sphere, translation behaviour, off-surface potentials, and agreement of the
analytic shape derivatives with finite differences of deformed surfaces."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import dielshape
from dielshape import bio, kernels, shapederiv, solver
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


def strong_layer_block(S, V, sa, sv):
    """Strong-form reference of the electric/static recipe from public
    primitives: p = -sa Delta^{-1} div a, q = sa Delta^{-1} curl a +
    sv P(V div j) with a = n ^ V j, div and curl taken at the nodes."""
    g = S.grid
    jb, divb = sc.density_basis(S)
    K = jb.shape[2] // 2
    Vj = (V @ jb.reshape(g.nnodes, -1)).reshape(jb.shape)
    a = np.cross(S.normal[:, :, None], Vj, axis=1)

    def coeffs(f):
        return g.analyze(f, g.L)[1:]

    inv = lambda f: sc.laplace_beltrami_inverse(S, f, check_mean=False)
    p = -sa * coeffs(inv(sc.surface_divergence(S, a)))
    q = sa * coeffs(inv(sc.surface_scalar_curl(S, a)))
    q[:, :K] += sv * coeffs(V @ divb[:, :K])
    return np.concatenate([p, q], axis=0)


def strong_blocks(S, kappa_e, kappa_i):
    """(Ce, Ci, C0) of the strong-form reference."""
    return (
        strong_layer_block(S, kernels.vmat(S, kappa_e), kappa_e, 1.0 / kappa_e),
        strong_layer_block(S, kernels.vmat(S, kappa_i), kappa_i, 1.0 / kappa_i),
        strong_layer_block(S, kernels.vmat(S, 0.0), 1.0, -1.0),
    )


class TestWeakForm:
    # The electric and static blocks are Galerkin projections of the weak
    # form; the strong form differs from it by quadrature aliasing only.
    def test_sphere_matches_strong_form(self, small_sphere, material):
        S = small_sphere
        ke, ki = material.kappa_e, material.kappa_i
        ops = solver.build_system(S, material)
        for weak, strong in zip((ops.Ce, ops.Ci, ops.C0), strong_blocks(S, ke, ki)):
            assert_allclose(weak, strong, rtol=0, atol=1e-13 * np.abs(strong).max())

    def test_wobbly_far_field_gap_falls_spectrally(self, material, directions):
        wave = solver.PlaneWave()
        coef = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        gaps = []
        for L in (6, 8):
            S = build_surface(coef, L, 2 * L + 2)
            weak = solver.solve(S, material, wave)
            Ce, Ci, C0 = strong_blocks(S, material.kappa_e, material.kappa_i)
            ops = solver.SystemOperators(
                S, material, Ce, weak.ops.Me, Ci, weak.ops.Mi, C0
            )
            F_weak = solver.far_field(weak, directions)
            F_strong = solver.far_field(
                solver.solve(S, material, wave, ops=ops), directions
            )
            gaps.append(np.abs(F_strong - F_weak).max() / np.abs(F_weak).max())
        assert gaps[1] < 2e-9
        assert gaps[1] < 0.1 * gaps[0]


def dense_test_divergences(S):
    """Reference for the magnetic test divergences over the full grid degree:
    Df[:, b, k] = div_Gamma(e_b ^ grad_Gamma Y_k) - 2 H (grad_Gamma Y_k ^ n)_b,
    with div_Gamma(e_b ^ g) = sum_ac eps_abc (grad_Gamma g_c)_a and
    H = div_Gamma n / 2, every derivative a dense surface gradient."""
    g = S.grid
    GY = sc.surface_gradient(S, g.Y)
    jac = np.stack([sc.surface_gradient(S, GY[:, c]) for c in range(3)], axis=2)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    H = 0.5 * sc.surface_divergence(S, S.normal)
    TK = np.cross(GY, S.normal[:, :, None], axis=1)
    return np.einsum("abc,iack->ibk", eps, jac) - 2.0 * H[:, None, None] * TK


class TestClosedFormTestDivergences:
    # The magnetic blocks take Df = n ^ ((2H - W) grad_Gamma Y) from the shape
    # operator; the dense form differs from it by the aliasing of the
    # surface derivatives of grad_Gamma Y, which falls spectrally.
    def test_sphere_matches_dense_form(self, small_sphere):
        S = small_sphere
        g = S.grid
        ncL = g.ncoef(g.L)
        Df = sc._frame_field(sc._basis_fields(S)["frames"]["Df"], g.Yth, g.Yph)
        ref = dense_test_divergences(S)
        gap = np.abs(Df[..., :ncL] - ref[..., :ncL]).max()
        assert gap < 1e-11 * np.abs(ref[..., :ncL]).max()

    def test_wobbly_far_field_gap_falls_spectrally(self, material, directions):
        wave = solver.PlaneWave()
        coef = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        gaps = []
        for L in (6, 8):
            closed = solver.solve(build_surface(coef, L, 2 * L + 2), material, wave)
            S = build_surface(coef, L, 2 * L + 2)
            bb = sc._basis_fields(S)
            wJ = (S.grid.weights * S.jacobian)[:, None, None]
            rows = sc._lb_data(S)["rows"]
            bb["Zq"] = -wJ * sc._fold(dense_test_divergences(S), rows)
            ops = solver.SystemOperators(
                S,
                material,
                closed.ops.Ce,
                bio.magnetic_block(S, material.kappa_e),
                closed.ops.Ci,
                bio.magnetic_block(S, material.kappa_i),
                closed.ops.C0,
            )
            F = solver.far_field(closed, directions)
            dense = solver.solve(S, material, wave, ops=ops)
            F_dense = solver.far_field(dense, directions)
            gaps.append(np.abs(F_dense - F).max() / np.abs(F).max())
        assert gaps[1] < 1e-8
        assert gaps[1] <= 0.1 * gaps[0]


class TestPotentials:
    def _density(self, S, seed=3):
        g = S.grid
        rng = np.random.default_rng(seed)
        p = rng.normal(size=g.ncoef(g.L))
        q = rng.normal(size=g.ncoef(g.L))
        return np.concatenate([p[1:], q[1:]])

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
        assert_allclose(out, fd, atol=1e-8 * np.abs(fd).max())

    def test_d_magnetic_block(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self._fd(lambda St: bio.magnetic_block(St, KAPPA), generic_xi, S)
        out = bio.d_magnetic_block(S, KAPPA, generic_xi)
        assert_allclose(out, fd, atol=1e-8 * np.abs(fd).max())

    def test_d_static_block(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        fd = self._fd(bio.static_block, generic_xi, S)
        out = bio.d_static_block(S, generic_xi)
        assert_allclose(out, fd, atol=1e-8 * np.abs(fd).max())

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

    @pytest.mark.parametrize("kind", ["electric", "magnetic"])
    def test_far_field_moments_equal_operator_product(
        self, wobbly_surface, generic_xi, directions, kind
    ):
        # far fields taken from the node values of a coefficient batch are
        # the far-field operators and their derivatives applied to it
        S = wobbly_surface
        rng = np.random.default_rng(7)
        K2 = 2 * (S.grid.ncoef(S.grid.L) - 1)
        c = rng.normal(size=(K2, 2)) + 1j * rng.normal(size=(K2, 2))
        for xi, block in [
            (None, bio.far_field_block(S, KAPPA, directions, kind)),
            (generic_xi, bio.d_far_field_block(S, KAPPA, directions, kind, generic_xi)),
        ]:
            ref = block @ c
            I = bio._far_moments(S, KAPPA, directions, c, xi)
            out = bio._far_kind(KAPPA, directions, I, kind)
            assert_allclose(out, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_d_potentials(self, wobbly_surface, generic_xi):
        S = wobbly_surface
        g = S.grid
        rng = np.random.default_rng(3)
        p = rng.normal(size=g.ncoef(g.L))
        q = rng.normal(size=g.ncoef(g.L))
        dens = np.concatenate([p[1:], q[1:]])
        targets = 2.0 * S.points[::29]

        for fn in (bio.electric_potential, bio.magnetic_potential):

            def at(t):
                St = deform(S, generic_xi, t)
                return fn(St, KAPPA, dens, targets)

            fd = (at(self.h) - at(-self.h)) / (2.0 * self.h)
            out = fn(S, KAPPA, dens, targets, xi=generic_xi)
            assert_allclose(out, fd, atol=1e-7 * np.abs(fd).max())


def test_derivative_pass_holds_no_square_matrix(wobbly_surface, generic_xi):
    # d_wave_blocks applies the rows of V, dV, K' and dK' to the batch as
    # the kernel pass yields them in blocks, so a warm call allocates less
    # than one complex N x N matrix
    S = wobbly_surface
    K2 = 2 * (S.grid.ncoef(S.grid.L) - 1)
    c = np.random.default_rng(7).normal(size=(K2, 2)) + 0j
    bio.d_wave_blocks(S, KAPPA, generic_xi, c)
    tracemalloc.start()
    try:
        bio.d_wave_blocks(S, KAPPA, generic_xi, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * S.grid.nnodes**2


def test_kernel_passes_build_no_source_normal_kernel(
    wobbly_surface, generic_xi, monkeypatch
):
    # The source-normal kernel K's is the adjoint of K', so the forward pass
    # of a wavenumber requests the groups (V, K') and the derivative pass
    # (V, dV, K', dK'), none of them with a source-normal numerator
    requested = []
    inner = kernels._kernel_mats

    def recording(S, kappa, groups, *args, **kwargs):
        requested.append(groups)
        return inner(S, kappa, groups, *args, **kwargs)

    monkeypatch.setattr(kernels, "_kernel_mats", recording)
    S = wobbly_surface
    K2 = 2 * (S.grid.ncoef(S.grid.L) - 1)
    bio.wave_blocks(S, KAPPA)
    bio.d_wave_blocks(S, KAPPA, generic_xi, np.eye(K2)[:, :2])
    assert [len(groups) for groups in requested] == [2, 4]
    terms = [term for groups in requested for group in groups for term in group]
    assert not {nm for _, _, nms in terms for nm in nms} & {"Ts", "dTs"}


def test_package_builds_no_complex_kernel_matrix(
    wobbly_surface, material, wave, generic_xi, directions, monkeypatch
):
    # The blocks and routes take their kernels from kernel passes as real
    # pairs; the public complex kernel matrices serve tests and tracing only
    def refuse(*args, **kwargs):
        raise AssertionError("a public kernel matrix was built")

    for name in (
        "vmat",
        "kprime_mat",
        "kprime_src_mat",
        "dvmat",
        "dkprime_mat",
        "dkprime_src_mat",
    ):
        monkeypatch.setattr(kernels, name, refuse)
    S = wobbly_surface
    bio.electric_block(S, KAPPA)
    bio.magnetic_block(S, KAPPA)
    bio.static_block(S)
    sol = solver.solve(S, material, wave)
    shapederiv.d_solution_routeA(S, material, wave, generic_xi, directions, sol=sol)


_BLOCKS_SCRIPT = """
import sys
import numpy as np
from dielshape import bio
from dielshape.geometry import build_surface
S = build_surface({"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}, 10, 22)
Ce, Me = bio.wave_blocks(S, 1.0)
Ci, Mi = bio.wave_blocks(S, 1.5)
np.savez(sys.argv[1], Ce=Ce, Me=Me, Ci=Ci, Mi=Mi, C0=bio.static_block(S))
"""


def test_blocks_do_not_depend_on_blas_threads(tmp_path):
    # The blocks are assembled from dense products whose summation order
    # follows the BLAS thread count; no entry may amplify that rounding, as
    # a diagonal limit taken from nearly cancelling numerators would.
    src = str(Path(dielshape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blocks = []
    for threads in ("1", "2"):
        out = tmp_path / f"blocks{threads}.npz"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-c", _BLOCKS_SCRIPT, str(out)], env=env, check=True
        )
        blocks.append(np.load(out))
    for name in ("Ce", "Me", "Ci", "Mi", "C0"):
        a, b = blocks[0][name], blocks[1][name]
        assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max(), name
