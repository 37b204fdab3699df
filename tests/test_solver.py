"""The transmission scattering solve: consistency of the single-source
ansatz, independence of the coupling parameter, and agreement with the
separable series solution on the sphere."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import bio, kernels, oracle, solver
from dielshape import surfcalc as sc
from dielshape.errors import NoConvergence, SingularSystem
from dielshape.geometry import Material, build_surface, sphere


def rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestPlaneWave:
    def test_direction_normalized(self):
        w = solver.PlaneWave(direction=(0.0, 0.0, 2.0))
        assert_allclose(w.d, [0.0, 0.0, 1.0])

    def test_polarization_must_be_transverse(self):
        with pytest.raises(ValueError):
            solver.PlaneWave(direction=(0, 0, 1), polarization=(0.1, 0.0, 1.0))

    @pytest.mark.parametrize(
        "direction, polarization", [((0, 0, 0), (1, 0, 0)), ((0, 0, 1), (0, 0, 0))]
    )
    def test_zero_vectors_rejected(self, direction, polarization):
        with pytest.raises(ValueError):
            solver.PlaneWave(direction=direction, polarization=polarization)

    def test_curl_relation(self):
        w = solver.PlaneWave(direction=(0, 1, 0), polarization=(0, 0, 2.0))
        pts = np.array([[0.3, -0.2, 0.7], [1.0, 0.0, 0.0]])
        kap = 1.3
        E = w.field(kap, pts)
        assert_allclose(w.curl(kap, pts), 1j * kap * np.cross(w.d, E), atol=1e-14)


class TestSolve:
    def test_residual_reported_small(self, small_solution):
        assert small_solution.residual < 1e-12

    def test_shared_factor_solves_several_rhs(self, small_solution):
        ops = small_solution.ops
        b = np.random.default_rng(3).normal(size=(ops.S.shape[0], 2))
        assert_allclose(ops.S @ ops.solve(b), b, atol=1e-10)
        assert ops.solve(b[:, 0]).shape == (ops.S.shape[0],)

    def test_condition_is_exact_1_norm_condition(self, small_solution):
        ops = small_solution.ops
        assert ops.condition == pytest.approx(np.linalg.cond(ops.S, 1), rel=1e-10)

    def test_singular_system_raises(self, small_sphere, material):
        # All blocks zero give S = 0, whose LU factor has zero pivots.
        Z = np.zeros((4, 4), dtype=complex)
        ops = solver.SystemOperators(small_sphere, material, Z, Z, Z, Z, Z)
        with pytest.raises(SingularSystem):
            ops.solve(np.ones(4))

    def test_nan_residual_raises(self, small_sphere, material, wave):
        ops = solver.build_system(small_sphere, material)
        ops.S[0, 0] = np.nan
        with pytest.raises(NoConvergence):
            solver.solve(small_sphere, material, wave, ops=ops)

    def test_one_kernel_pass_per_wavenumber(self, small_sphere, material, monkeypatch):
        # (V, K') of each of kappa_e and kappa_i come from one kernel
        # pass, shared by the electric and magnetic blocks; C0 takes a third
        kappas = []
        inner = kernels._kernel_mats

        def counting(S, kappa, *args, **kwargs):
            kappas.append(kappa)
            return inner(S, kappa, *args, **kwargs)

        monkeypatch.setattr(kernels, "_kernel_mats", counting)
        solver.build_system(small_sphere, material)
        assert sorted(kappas) == sorted([0.0, material.kappa_e, material.kappa_i])

    def test_far_field_equals_operator_form(self, small_solution, unit_directions):
        # far_field takes the moments of j and C0 j from their node values;
        # the far-field operators applied to them give the same pattern
        sol = small_solution
        S, ke = sol.surface, sol.material.kappa_e
        FE = bio.far_field_block(S, ke, unit_directions, "electric")
        FM = bio.far_field_block(S, ke, unit_directions, "magnetic")
        ref = -(FE @ sol.j) - 1j * sol.material.eta * (FM @ (sol.ops.C0 @ sol.j))
        F = solver.far_field(sol, unit_directions)
        assert_allclose(F, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_no_contrast_scatters_nothing(self, small_sphere, wave, unit_directions):
        mat = Material(eps_i=1.0, eps_e=1.0, mu_i=1.0, mu_e=1.0)
        sol = solver.solve(small_sphere, mat, wave)
        F = solver.far_field(sol, unit_directions)
        assert np.abs(F).max() < 2e-7

    def test_coupling_parameter_independence(
        self, small_sphere, wave, unit_directions
    ):
        # The physical solution cannot depend on the layer-ansatz coupling.
        F = []
        for eta in (1.0, 2.0):
            mat = Material(eps_i=2.25, eta=eta)
            sol = solver.solve(small_sphere, mat, wave)
            F.append(solver.far_field(sol, unit_directions))
        assert rel_l2(F[0], F[1]) < 1e-7

    def test_far_field_matches_series_solution(
        self, small_solution, unit_directions
    ):
        F = solver.far_field(small_solution, unit_directions)
        mat, wave = small_solution.material, small_solution.wave
        ref = oracle.mie_far_field(mat, 1.0, wave, unit_directions)
        assert rel_l2(F, ref) < 1e-12

    def test_general_material_matches_series_solution(self, unit_directions):
        # Magnetic contrast, non-unit frequency, rotated wave, scaled sphere.
        mat = Material(eps_i=1.8, mu_i=1.5, omega=1.2)
        wave = solver.PlaneWave(
            direction=(1.0, 1.0, 1.0), polarization=(1.7, -1.7, 0.0)
        )
        S = sphere(0.9, 8, 18)
        sol = solver.solve(S, mat, wave)
        F = solver.far_field(sol, unit_directions)
        ref = oracle.mie_far_field(mat, 0.9, wave, unit_directions)
        assert rel_l2(F, ref) < 1e-12

    def test_scattered_field_radiates(self, small_solution):
        # E_s ~ exp(i k r)/(4 pi r) E_inf with O(1/(k r)) relative remainder.
        dirs = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]])
        ke = small_solution.material.kappa_e
        Einf = solver.far_field(small_solution, dirs)
        errs = []
        for r in (100.0, 200.0):
            Es = solver.scattered_field(small_solution, r * dirs)
            pred = np.exp(1j * ke * r) / (4.0 * np.pi * r) * Einf
            errs.append(rel_l2(Es, pred))
        assert errs[1] < 2e-2
        # the remainder must vanish at first order in 1/r
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.1)

    def test_interior_trace_consistency(self, small_solution):
        # gamma_D E_i must reproduce the transmitted Dirichlet data: check the
        # defining identity t_D = g_D - L j holds for the stored operators.
        sol = small_solution
        assert_allclose(
            sol.tD, sol.gD - sol.ops.L @ sol.j, atol=1e-13 * np.abs(sol.gD).max()
        )
        b = sol.ops.rhs(sol.gD, sol.gN)
        assert np.linalg.norm(sol.ops.S @ sol.j - b) < 1e-10 * np.linalg.norm(b)

    def test_interior_field_solves_helmholtz(self, small_solution):
        probes = np.array([[0.2, 0.1, -0.15], [-0.1, 0.25, 0.2]])
        ki = small_solution.material.kappa_i
        h = 3e-4
        E0 = solver.interior_field(small_solution, probes)
        acc = -6.0 * E0
        for a in range(3):
            for sgn in (1.0, -1.0):
                xs = probes.copy()
                xs[:, a] += sgn * h
                acc += solver.interior_field(small_solution, xs)
        resid = acc / h**2 + ki**2 * E0
        assert np.abs(resid).max() < 1e-4 * np.abs(E0).max()


def strong_traces(S, mat, wave):
    """Strong-form reference of solver.incident_traces: p = Delta^{-1} div g,
    q = -Delta^{-1} curl g with div and curl taken at the nodes, each a
    Galerkin solve with the mass rows at the solver degrees."""
    lb = sc._lb_data(S)
    ke = mat.kappa_e
    out = []
    for g in (wave.field(ke, S.points), wave.curl(ke, S.points) / ke):
        g = np.cross(g, S.normal)
        f = np.stack([-sc.surface_divergence(S, g), sc.surface_scalar_curl(S, g)], 1)
        out.append((lb["rows"] @ (lb["mass"] @ f)[1:]).T.ravel())
    return out


class TestWeakTraces:
    # The incident traces are split by the weak projection; the strong form
    # differs from it by quadrature aliasing only.
    def test_sphere_matches_strong_form(self, small_sphere, material, wave):
        dD, dN = solver.incident_traces(small_sphere, material, wave)
        for weak, strong in zip((dD, dN), strong_traces(small_sphere, material, wave)):
            assert np.abs(weak - strong).max() <= 1e-13 * np.abs(strong).max()

    def test_wobbly_far_field_gap_falls_spectrally(
        self, material, wave, unit_directions
    ):
        coef = {"0,0": np.sqrt(4.0 * np.pi), "2,0": 0.25, "3,1": 0.15}
        gaps = []
        for L in (6, 8):
            S = build_surface(coef, L, 2 * L + 2)
            weak = solver.solve(S, material, wave)
            gD, gN = strong_traces(S, material, wave)
            j = weak.ops.solve(weak.ops.rhs(gD, gN))
            strong = solver.ScatteringSolution(
                S, material, wave, weak.ops, j, gD, gN, residual=0.0
            )
            F_weak = solver.far_field(weak, unit_directions)
            F_strong = solver.far_field(strong, unit_directions)
            gaps.append(np.abs(F_strong - F_weak).max() / np.abs(F_weak).max())
        assert gaps[1] < 5e-9
        assert gaps[1] <= 0.1 * gaps[0]
