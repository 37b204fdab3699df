"""End-to-end accuracy targets of the package on the benchmark problem:
the dielectric unit sphere with eps_i = 2.25 at L = 12, nquad = 26, plus
exact-identity and derivative-consistency targets at their stated tolerances.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import bio, oracle, shapederiv as sd, solver, surfcalc as sc
from dielshape.geometry import (
    DeformationField,
    Material,
    build_surface,
    deform,
    sphere,
)
from dielshape.grid import ReferenceGrid

L_BENCH, NQ_BENCH = 12, 26


@pytest.fixture(scope="module")
def bench_material():
    return Material(eps_i=2.25, eps_e=1.0, mu_i=1.0, mu_e=1.0, omega=1.0)


@pytest.fixture(scope="module")
def bench_wave():
    return solver.PlaneWave(direction=(0, 0, 1), polarization=(1, 0, 0))


@pytest.fixture(scope="module")
def bench_sphere():
    return sphere(1.0, L_BENCH, NQ_BENCH)


@pytest.fixture(scope="module")
def bench_solution(bench_sphere, bench_material, bench_wave):
    t0 = time.perf_counter()
    sol = solver.solve(bench_sphere, bench_material, bench_wave)
    elapsed = time.perf_counter() - t0
    return sol, elapsed


@pytest.fixture(scope="module")
def weighted_directions():
    """Quadrature nodes and weights for L2 norms over the unit sphere."""
    g = ReferenceGrid.get(8, 18)
    return g.nodes, g.weights


def rel_l2(w, a, b):
    num = np.sqrt(np.sum(w[:, None] * np.abs(a - b) ** 2))
    den = np.sqrt(np.sum(w[:, None] * np.abs(b) ** 2))
    return num / den


def l2_norm(w, a):
    return np.sqrt(np.sum(w[:, None] * np.abs(a) ** 2))


def profile_xi(grid):
    """Non-symmetric smooth normal-direction field on degrees 2 and 3."""
    prof = np.zeros(grid.ncoef(grid.Lmax))
    prof[6] = 0.25  # degree 2, order 0
    prof[13] = 0.15  # degree 3, order 1
    return DeformationField.radial_profile(grid, prof)


@pytest.fixture(scope="module")
def identity_surface():
    """Generic surface with ample quadrature margin: the exact identities
    are limited only by aliasing, which this resolution pushes below the
    stated tolerances."""
    return build_surface(
        {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.12, "3,1": 0.08}, 8, 40
    )


@pytest.fixture(scope="module")
def derivative_setting(identity_surface):
    S = identity_surface
    g = S.grid
    coef = np.zeros((3, g.ncoef(g.Lmax)))
    coef[0, 6] = 0.3
    coef[1, 10] = 0.2
    coef[2, 2] = 0.25
    coef[2, 0] = 0.1
    xi = DeformationField(g, coef)
    rng = np.random.default_rng(10)
    nc = g.ncoef(6)
    c = np.zeros(g.ncoef(g.Lmax))
    c[1:nc] = rng.normal(size=nc - 1) * np.exp(-0.5 * np.arange(1, nc))
    u = g.synthesize(c)
    j = sc.surface_gradient(S, u) + sc.tangential_vector_curl(
        S, g.synthesize(np.roll(c, 1))
    )
    return S, xi, u, j


@pytest.fixture(scope="module")
def coarse_dirs_w():
    g = ReferenceGrid.get(6, 14)
    return g.nodes, g.weights


@pytest.fixture(scope="module")
def residual_setting(wobbly_surface):
    S = wobbly_surface
    g = S.grid
    rng = np.random.default_rng(3)
    p = rng.normal(size=g.ncoef(g.L))
    q = rng.normal(size=g.ncoef(g.L))
    dens = np.concatenate([p[1:], q[1:]])
    coef = np.zeros((3, g.ncoef(g.Lmax)))
    coef[0, 6] = 0.3
    coef[1, 10] = 0.2
    coef[2, 2] = 0.25
    xi = DeformationField(g, coef)
    return S, dens, xi


class TestBenchmarkAccuracy:
    def test_far_field_matches_series_within_budget(
        self, bench_solution, bench_material, bench_wave, weighted_directions
    ):
        sol, elapsed = bench_solution
        dirs, w = weighted_directions
        F = solver.far_field(sol, dirs)
        ref = oracle.mie_far_field(bench_material, 1.0, bench_wave, dirs)
        assert rel_l2(w, F, ref) < 1e-12
        assert elapsed < 60.0

    def test_no_contrast_scatters_nothing(
        self, bench_sphere, bench_wave, weighted_directions
    ):
        mat = Material(eps_i=1.0, eps_e=1.0, mu_i=1.0, mu_e=1.0)
        sol = solver.solve(bench_sphere, mat, bench_wave)
        dirs, _ = weighted_directions
        F = solver.far_field(sol, dirs)
        assert np.abs(F).max() < 1e-12 * np.linalg.norm(bench_wave.p)


class TestSurfaceCalculusIdentities:
    @pytest.fixture()
    def surface(self, identity_surface):
        return identity_surface

    @pytest.fixture()
    def fields(self, surface):
        g = surface.grid
        rng = np.random.default_rng(10)
        nc = g.ncoef(6)
        c = np.zeros(g.ncoef(g.Lmax))
        c[1:nc] = rng.normal(size=nc - 1) * np.exp(-0.5 * np.arange(1, nc))
        f = g.synthesize(c)
        f2 = g.synthesize(np.roll(c, 1))
        j = sc.surface_gradient(surface, f) + sc.tangential_vector_curl(surface, f2)
        return f, j

    def test_second_order_identities(self, surface, fields):
        f, j = fields
        scale = np.abs(f).max()
        assert (
            np.abs(
                sc.surface_scalar_curl(surface, sc.surface_gradient(surface, f))
            ).max()
            < 1e-10 * scale
        )
        assert (
            np.abs(
                sc.surface_divergence(
                    surface, sc.tangential_vector_curl(surface, f)
                )
            ).max()
            < 1e-10 * scale
        )

    def test_dualities(self, surface, fields):
        f, j = fields
        w = surface.grid.weights * surface.jacobian
        lhs = np.sum(w * sc.surface_divergence(surface, j) * f)
        rhs = -np.sum(w * np.einsum("ij,ij->i", j, sc.surface_gradient(surface, f)))
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)
        lhs = np.sum(w * sc.surface_scalar_curl(surface, j) * f)
        rhs = np.sum(
            w * np.einsum("ij,ij->i", j, sc.tangential_vector_curl(surface, f))
        )
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1e-3)

    def test_sphere_laplacian_eigenvalues(self, bench_sphere):
        g = bench_sphere.grid
        for n in range(1, g.L - 1):
            for m in (0, min(n, 1), -min(n, 2)):
                c = np.zeros(g.ncoef(g.Lmax))
                c[n * n + n + m] = 1.0
                y = g.synthesize(c)
                out = sc.laplace_beltrami(bench_sphere, y)
                assert np.abs(out + n * (n + 1) * y).max() < 1e-8


class TestDerivativeFormulas:
    """Central differences of deformed surfaces must converge at second
    order to every closed-form first derivative of the surface calculus."""

    hs = (1e-2, 1e-3, 1e-4)
    floor = 1e-11

    @pytest.fixture()
    def setting(self, derivative_setting):
        return derivative_setting

    def _sweep(self, family, exact):
        errs = []
        for h in self.hs:
            fd = (family(h) - family(-h)) / (2.0 * h)
            scale = max(np.abs(fd).max(), 1.0)
            errs.append(np.abs(fd - exact).max() / scale)
        # second-order convergence until the aliasing/roundoff floor
        assert errs[1] < 1e-5
        above = [e for e in errs if e > self.floor]
        for e0, e1 in zip(above, above[1:]):
            assert np.log10(e0 / e1) > 1.9
        return errs

    def test_d_normal(self, setting):
        S, xi, u, j = setting
        self._sweep(lambda t: deform(S, xi, t).normal, sc.d_normal(S, xi))

    def test_d_jacobian(self, setting):
        S, xi, u, j = setting
        self._sweep(lambda t: deform(S, xi, t).jacobian, sc.d_jacobian(S, xi))

    @pytest.mark.parametrize(
        "which", ["gradient", "vector_curl", "divergence", "scalar_curl"]
    )
    def test_d_surface_operator(self, setting, which):
        S, xi, u, j = setting
        scalar = which in ("gradient", "vector_curl")
        arg = u if scalar else j
        op = {
            "gradient": sc.surface_gradient,
            "vector_curl": sc.tangential_vector_curl,
            "divergence": sc.surface_divergence,
            "scalar_curl": sc.surface_scalar_curl,
        }[which]
        self._sweep(
            lambda t: op(deform(S, xi, t), arg),
            sc.d_surface_operator(which, S, xi, arg),
        )

    def test_d_rstar(self, setting):
        S, xi, u, j = setting
        self._sweep(
            lambda t: sc.rstar_apply(S, deform(S, xi, t), j), sc.d_rstar(S, xi, j)
        )

    def test_d_laplace_inverse(self, setting):
        S, xi, u, j = setting
        f = u - sc.mean_value(S, u)

        def family(t):
            St = deform(S, xi, t)
            ft = f * S.jacobian / St.jacobian
            ft -= sc.mean_value(St, ft)
            out = sc.laplace_beltrami_inverse(St, ft)
            return out - sc.mean_value(S, out)

        self._sweep(family, sc.d_laplace_inverse(S, xi, f))

    def test_rstar_higher_derivatives_vanish(self, setting):
        S, xi, u, j = setting
        h = 1e-2
        second = (
            sc.rstar_apply(S, deform(S, xi, h), j)
            - 2.0 * sc.rstar_apply(S, S, j)
            + sc.rstar_apply(S, deform(S, xi, -h), j)
        ) / h**2
        assert np.abs(second).max() < 1e-6 * np.abs(j).max()


class TestTranslationDegeneracy:
    def test_operator_derivatives_vanish(self, wobbly_surface):
        S = wobbly_surface
        shift = np.array([0.4, -0.3, 0.2])
        xi = DeformationField.translation(S.grid, shift)
        kap = 1.3
        dirs = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
        assert np.abs(sc.d_normal(S, xi)).max() < 1e-8
        assert np.abs(sc.d_jacobian(S, xi)).max() < 1e-8
        # translation leaves all pair distances and normals unchanged, so
        # the boundary blocks do not move; the far-field blocks only take
        # the phase exp(-i kappa d . tau) of the shifted nodes
        for mat_d in (
            bio.d_electric_block(S, kap, xi),
            bio.d_magnetic_block(S, kap, xi),
            bio.d_static_block(S, xi),
        ):
            assert np.abs(mat_d).max() < 1e-8
        phase = -1j * kap * (dirs @ shift)[:, None, None]
        for kind in ("electric", "magnetic"):
            F = bio.far_field_block(S, kap, dirs, kind)
            dF = bio.d_far_field_block(S, kap, dirs, kind, xi)
            assert np.abs(dF - phase * F).max() < 1e-8 * np.abs(F).max()

    def test_far_field_derivative_is_pure_phase(
        self, bench_solution, bench_sphere, bench_material, bench_wave
    ):
        sol, _ = bench_solution
        shift = np.array([0.23, -0.11, 0.31])
        xi = DeformationField.translation(bench_sphere.grid, shift)
        rng = np.random.default_rng(21)
        dirs = rng.normal(size=(10, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        out = sd.d_solution_routeA(
            bench_sphere, bench_material, bench_wave, xi, dirs, sol=sol
        )
        ke = bench_material.kappa_e
        F = solver.far_field(sol, dirs)
        pred = 1j * ke * ((bench_wave.d @ shift) - (dirs @ shift))[:, None] * F
        err = np.linalg.norm(out.dE_far - pred) / np.linalg.norm(F)
        assert err < 1e-6


class TestRouteAgreement:
    """The analytic derivative (differentiated representation), the derived
    transmission problem, and finite differences of full solves must agree,
    with the disagreement shrinking under refinement.  Differences are
    measured relative to the L2 norm of the far field itself, the scale on
    which the derivative formulas are stated."""

    @pytest.fixture()
    def dirs_w(self, coarse_dirs_w):
        return coarse_dirs_w

    def _diffs(self, L, nquad, xi_kind, mat, wave, dirs, w, h=1e-3):
        S = sphere(1.0, L, nquad)
        sol = solver.solve(S, mat, wave)
        xi = (
            DeformationField.radial(S)
            if xi_kind == "radial"
            else profile_xi(S.grid)
        )
        A = sd.d_solution_routeA(S, mat, wave, xi, dirs, sol=sol)
        B = sd.d_solution_routeB(S, mat, wave, xi, dirs, sol=sol)
        C = sd.d_solution_routeC(S, mat, wave, xi, dirs, h=h)
        Fn = l2_norm(w, solver.far_field(sol, dirs))
        return {
            "AB": l2_norm(w, A.dE_far - B.dE_far) / Fn,
            "AC": l2_norm(w, A.dE_far - C.dE_far) / Fn,
            "BC": l2_norm(w, B.dE_far - C.dE_far) / Fn,
        }

    def test_routes_agree_and_converge(self, bench_material, bench_wave, dirs_w):
        dirs, w = dirs_w
        d_rad = self._diffs(
            L_BENCH, NQ_BENCH, "radial", bench_material, bench_wave, dirs, w
        )
        d_pro = self._diffs(
            L_BENCH, NQ_BENCH, "profile", bench_material, bench_wave, dirs, w
        )
        for diffs in (d_rad, d_pro):
            for pair, val in diffs.items():
                assert val < 1e-2, (pair, val)

        d16 = self._diffs(16, 34, "profile", bench_material, bench_wave, dirs, w)
        # the analytic-vs-transmission gap is discretization error and must
        # shrink; pairs involving finite differences carry an h^2 noise
        # floor, so their decrease is asserted above that floor only
        assert d16["AB"] < d_pro["AB"]
        fd_floor = 1e-5
        assert d16["AC"] < max(1.5 * d_pro["AC"], fd_floor)
        assert d16["BC"] < max(d_pro["BC"], fd_floor)


class TestTransmissionDataDegeneracies:
    def test_no_contrast_data_vanishes(self, bench_sphere, bench_wave):
        mat = Material(eps_i=1.0)
        sol = solver.solve(bench_sphere, mat, bench_wave)
        data = sd.transmission_rhs(sol, profile_xi(bench_sphere.grid))
        assert np.abs(data.g_D).max() < 1e-6
        assert np.abs(data.g_N).max() < 1e-6

    def test_tangential_deformation_gives_zero_data(self, bench_solution):
        sol, _ = bench_solution
        S = sol.surface
        g = S.grid
        coef = np.zeros((3, g.ncoef(g.Lmax)))
        coef[0, 10] = 0.2
        coef[2, 3] = 0.3
        raw = DeformationField(g, coef).values
        tang = raw - np.einsum("ij,ij->i", raw, S.normal)[:, None] * S.normal
        xi = DeformationField.from_node_values(g, tang)
        data = sd.transmission_rhs(sol, xi)
        # the data is exactly linear in xi . n, which vanishes to roundoff
        assert np.abs(data.g_D).max() < 1e-12
        assert np.abs(data.g_N).max() < 1e-12


class TestFieldResiduals:
    """The layer potentials and their shape derivatives are Maxwell fields
    off the surface, and the scattered field is outgoing."""

    probes = np.array([[1.9, 0.3, -0.5], [0.1, -2.0, 0.4]])
    h = 3e-4

    @pytest.fixture()
    def setting(self, residual_setting):
        return residual_setting

    def _helmholtz_residual(self, fn, kappa):
        E0 = fn(self.probes)
        acc = -6.0 * E0
        for a in range(3):
            for sgn in (1.0, -1.0):
                xs = self.probes.copy()
                xs[:, a] += sgn * self.h
                acc += fn(xs)
        return np.abs(acc / self.h**2 + kappa**2 * E0).max() / np.abs(E0).max()

    def test_potentials_satisfy_field_equation(self, setting):
        S, dens, xi = setting
        kap = 1.3
        cases = [
            lambda x: bio.electric_potential(S, kap, dens, x),
            lambda x: bio.magnetic_potential(S, kap, dens, x),
            lambda x: bio.electric_potential(S, kap, dens, x, xi=xi),
            lambda x: bio.magnetic_potential(S, kap, dens, x, xi=xi),
        ]
        for fn in cases:
            assert self._helmholtz_residual(fn, kap) < 1e-5

    def test_electric_potential_divergence_free(self, setting):
        S, dens, xi = setting
        kap = 1.3
        div = np.zeros(self.probes.shape[0], dtype=complex)
        for a in range(3):
            xp = self.probes.copy()
            xp[:, a] += self.h
            xm = self.probes.copy()
            xm[:, a] -= self.h
            div += (
                bio.electric_potential(S, kap, dens, xp)
                - bio.electric_potential(S, kap, dens, xm)
            )[:, a] / (2.0 * self.h)
        scale = np.abs(bio.electric_potential(S, kap, dens, self.probes)).max()
        assert np.abs(div).max() < 1e-5 * scale

    def test_scattered_field_is_outgoing(self, small_solution):
        # (d/dr - i k)(r E_s) = O(1/r^2) along every ray
        ke = small_solution.material.kappa_e
        dirs = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
        r = 500.0
        hr = 1e-3

        def rEs(rr):
            return rr * solver.scattered_field(small_solution, rr * dirs)

        resid = (rEs(r + hr) - rEs(r - hr)) / (2.0 * hr) - 1j * ke * rEs(r)
        scale = np.abs(rEs(r)).max()
        assert np.abs(resid).max() < 1e-5 * scale
