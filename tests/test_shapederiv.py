"""The three far-field shape-derivative routes: degeneracies, linearity,
mutual agreement, and the sphere's radius derivative against the series
solution."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape import bio, kernels, oracle, shapederiv as sd, solver
from dielshape import surfcalc as sc
from dielshape.geometry import DeformationField, Material, deform, sphere
from dielshape.grid import ReferenceGrid


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def dirs():
    rng = np.random.default_rng(21)
    d = rng.normal(size=(10, 3))
    return d / np.linalg.norm(d, axis=1)[:, None]


@pytest.fixture(scope="module")
def xi_profile(small_sphere):
    g = small_sphere.grid
    coef = np.zeros((3, g.ncoef(g.Lmax)))
    coef[0, 6] = 0.3
    coef[1, 10] = 0.2
    coef[2, 2] = 0.25
    coef[2, 0] = 0.1
    return DeformationField(g, coef)


class TestDegeneracies:
    def test_zero_field_gives_zero(self, small_sphere, material, wave, dirs,
                                   small_solution):
        g = small_sphere.grid
        xi = DeformationField(g, np.zeros((3, g.ncoef(g.Lmax))))
        out = sd.d_solution_routeA(
            small_sphere, material, wave, xi, dirs, sol=small_solution
        )
        assert np.abs(out.dE_far).max() < 1e-12

    def test_translation_is_pure_phase(self, small_sphere, material, wave, dirs,
                                       small_solution):
        # Translating the scatterer only shifts the far-field phase:
        # dE = i k_e (d.dhat - d.xhat is absent for the derivative at t=0;
        # the derivative equals i k_e ((w.d) - (w.xhat)) E_inf for shift w
        # with the incident wave fixed in space.
        w = np.array([0.23, -0.11, 0.31])
        xi = DeformationField.translation(small_sphere.grid, w)
        out = sd.d_solution_routeA(
            small_sphere, material, wave, xi, dirs, sol=small_solution
        )
        ke = material.kappa_e
        F = solver.far_field(small_solution, dirs)
        pred = 1j * ke * ((wave.d @ w) - (dirs @ w))[:, None] * F
        assert rel(out.dE_far, pred) < 1e-6

    def test_tangential_field_gives_zero_transmission_data(
        self, small_solution
    ):
        # A tangential deformation does not move the surface set at first
        # order: the derived transmission data vanishes identically.
        S = small_solution.surface
        g = S.grid
        coef = np.zeros((3, g.ncoef(g.Lmax)))
        coef[2, 3] = 0.2  # generates xi = c * e_z-ish; project off the normal
        xi0 = DeformationField(g, coef)
        tang = xi0.values - (
            np.einsum("ij,ij->i", xi0.values, S.normal)[:, None] * S.normal
        )
        xi = DeformationField.from_node_values(g, tang)
        data = sd.transmission_rhs(small_solution, xi)
        # xi . n is zero to roundoff, and the data is linear in it
        assert np.abs(data.g_D).max() < 1e-12
        assert np.abs(data.g_N).max() < 1e-12

    def test_no_contrast_transmission_data_vanishes(self, small_sphere, wave,
                                                    xi_profile):
        mat = Material(eps_i=1.0)
        sol = solver.solve(small_sphere, mat, wave)
        data = sd.transmission_rhs(sol, xi_profile)
        scale = max(np.abs(data.g_D).max(), np.abs(data.g_N).max(), 1.0)
        assert np.abs(data.g_D).max() < 1e-6
        assert np.abs(data.g_N).max() < 1e-6


class TestRouteAgreement:
    def test_linearity_in_xi(self, small_sphere, material, wave, dirs,
                             small_solution, xi_profile):
        g = small_sphere.grid
        xi2 = DeformationField(g, 2.0 * xi_profile.coef)
        a1 = sd.d_solution_routeA(
            small_sphere, material, wave, xi_profile, dirs, sol=small_solution
        )
        a2 = sd.d_solution_routeA(
            small_sphere, material, wave, xi2, dirs, sol=small_solution
        )
        assert rel(a2.dE_far, 2.0 * a1.dE_far) < 1e-10

    def test_routeA_matches_central_differences(
        self, small_sphere, material, wave, dirs, small_solution, xi_profile
    ):
        a = sd.d_solution_routeA(
            small_sphere, material, wave, xi_profile, dirs, sol=small_solution
        )
        c = sd.d_solution_routeC(
            small_sphere, material, wave, xi_profile, dirs, h=1e-3
        )
        assert rel(a.dE_far, c.dE_far) < 1e-6

    def test_routeB_matches_routeA_radial(
        self, small_sphere, material, wave, dirs, small_solution
    ):
        xi = DeformationField.radial(small_sphere)
        a = sd.d_solution_routeA(
            small_sphere, material, wave, xi, dirs, sol=small_solution
        )
        b = sd.d_solution_routeB(
            small_sphere, material, wave, xi, dirs, sol=small_solution
        )
        assert rel(b.dE_far, a.dE_far) < 1e-6

    def test_routeA_matches_series_radius_derivative(
        self, small_sphere, material, wave, dirs, small_solution
    ):
        xi = DeformationField.radial(small_sphere)
        a = sd.d_solution_routeA(
            small_sphere, material, wave, xi, dirs, sol=small_solution
        )
        ref = oracle.mie_radius_derivative(material, 1.0, wave, dirs)
        assert rel(a.dE_far, ref) < 1e-5


class TestNearFieldDerivative:
    def test_routeA_near_fields_match_central_differences(
        self, small_sphere, material, wave, dirs, small_solution, xi_profile
    ):
        ext = np.array([[2.0, 0.3, -0.4], [-0.3, 2.1, 0.5]])
        itr = np.array([[0.2, 0.1, -0.15]])
        a = sd.d_solution_routeA(
            small_sphere,
            material,
            wave,
            xi_profile,
            dirs,
            sol=small_solution,
            exterior_probes=ext,
            interior_probes=itr,
        )
        h = 1e-3
        from dielshape.geometry import deform

        def fields(t):
            St = deform(small_sphere, xi_profile, t)
            solt = solver.solve(St, material, wave)
            return (
                solver.scattered_field(solt, ext),
                solver.interior_field(solt, itr),
            )

        ep, ip = fields(h)
        em, im = fields(-h)
        fd_ext = (ep - em) / (2 * h)
        fd_int = (ip - im) / (2 * h)
        assert rel(a.dE_near["exterior"], fd_ext) < 1e-5
        assert rel(a.dE_near["interior"], fd_int) < 1e-5


class TestKernelPasses:
    def test_routeA_makes_one_kernel_pass_per_wavenumber(
        self, small_sphere, material, wave, dirs, xi_profile, small_solution, monkeypatch
    ):
        # route A's derivative blocks of kappa_e, kappa_i and the static
        # coupling each come from one kernel pass
        kappas = []
        inner = kernels._kernel_mats

        def counting(S, kappa, *args, **kwargs):
            kappas.append(kappa)
            return inner(S, kappa, *args, **kwargs)

        monkeypatch.setattr(kernels, "_kernel_mats", counting)
        sd.d_solution_routeA(
            small_sphere, material, wave, xi_profile, dirs, sol=small_solution
        )
        assert sorted(kappas) == sorted([0.0, material.kappa_e, material.kappa_i])

    def test_warm_assembly_takes_no_surface_derivative(
        self, wobbly_surface, material, monkeypatch
    ):
        # The blocks are Galerkin projections against cached test fields, so
        # once a surface's caches are filled an assembly applies no dense
        # d/dtheta or d/dphi.
        solver.build_system(wobbly_surface, material)
        calls = []
        for name in ("dtheta", "dphi"):
            inner = getattr(ReferenceGrid, name)

            def counting(self, f, inner=inner, name=name):
                calls.append(name)
                return inner(self, f)

            monkeypatch.setattr(ReferenceGrid, name, counting)
        solver.build_system(wobbly_surface, material)
        assert calls == []

    def test_warm_traces_take_no_surface_derivative(
        self, wobbly_surface, material, wave, xi_profile, monkeypatch
    ):
        # The incident traces and their derivatives are weak projections
        # against the cached test fields and their frames, and route B's
        # transmission data takes its curls from the basis, so once the
        # surface and the stage derivatives of xi are cached none of them
        # applies a dense d/dtheta or d/dphi.
        S = wobbly_surface
        xi = DeformationField(S.grid, xi_profile.coef.copy())
        sol = solver.solve(S, material, wave)
        solver.incident_traces(S, material, wave)
        sd.incident_trace_derivative(S, material, wave, xi)
        sd.transmission_rhs(sol, xi)
        calls = []
        for name in ("dtheta", "dphi"):
            inner = getattr(ReferenceGrid, name)

            def counting(self, f, inner=inner, name=name):
                calls.append(name)
                return inner(self, f)

            monkeypatch.setattr(ReferenceGrid, name, counting)
        solver.incident_traces(S, material, wave)
        sd.incident_trace_derivative(S, material, wave, xi)
        sd.transmission_rhs(sol, xi)
        assert calls == []

    def test_routes_take_no_strong_surface_derivative(
        self, small_sphere, material, wave, dirs, xi_profile, small_solution,
        monkeypatch,
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("sc.d_surface_operator called")

        monkeypatch.setattr(sc, "d_surface_operator", refuse)
        for route in (sd.d_solution_routeA, sd.d_solution_routeB):
            route(small_sphere, material, wave, xi_profile, dirs, sol=small_solution)

    def test_stage_derivatives_transform_solver_degree_columns_only(
        self, wobbly_surface, material, wave, dirs, xi_profile, monkeypatch
    ):
        # On a warm surface route A's stage derivatives of the basis
        # transform the derivatives of the K solver-degree gradient fields
        # once by d/dtheta and once by d/dphi ([grad_Gamma xi] comes from the
        # coefficients of xi), and once they are cached route A transforms
        # nothing: its kernel passes read dN, div_Gamma xi and dh from the
        # per-node record they build on.
        S = wobbly_surface
        g = S.grid
        sol = solver.solve(S, material, wave)
        xi = DeformationField(g, xi_profile.coef.copy())
        calls = []
        for name in ("dtheta", "dphi"):
            inner = getattr(ReferenceGrid, name)

            def counting(self, f, inner=inner, name=name):
                calls.append((name, int(np.prod(f.shape[1:]))))
                return inner(self, f)

            monkeypatch.setattr(ReferenceGrid, name, counting)
        sc._dbasis(S, xi)
        K = g.ncoef(g.L) - 1
        assert sorted(calls) == [("dphi", 3 * K), ("dtheta", 3 * K)]
        calls.clear()
        sd.d_solution_routeA(S, material, wave, xi, dirs, sol=sol)
        assert calls == []


class TestIncidentTraceDerivative:
    def test_matches_central_differences(
        self, wobbly_surface, material, wave, generic_xi
    ):
        # route A differentiates the discrete map of incident_traces exactly,
        # so central differences agree to O(h^2)
        S, h = wobbly_surface, 1e-4

        def traces(t):
            St = deform(S, generic_xi, t)
            return np.stack(solver.incident_traces(St, material, wave))

        fd = (traces(h) - traces(-h)) / (2.0 * h)
        out = np.stack(sd.incident_trace_derivative(S, material, wave, generic_xi))
        for k in range(2):
            assert np.abs(out[k] - fd[k]).max() <= 1e-9 * np.abs(fd[k]).max()


class TestRouteAMatrixReference:
    def test_matrix_free_route_matches_matrix_algebra(
        self, wobbly_surface, material, wave, dirs, xi_profile
    ):
        # Reference: assemble the five derivative matrices and recompose the
        # derivative of the system, right-hand side and traces from them.
        S, xi = wobbly_surface, xi_profile
        ext = np.array([[2.0, 0.3, -0.4], [-0.3, 2.1, 0.5]])
        itr = np.array([[0.2, 0.1, -0.15]])
        sol = solver.solve(S, material, wave)
        A = sd.d_solution_routeA(
            S, material, wave, xi, dirs, sol=sol,
            exterior_probes=ext, interior_probes=itr,
        )

        ops = sol.ops
        ke, ki = material.kappa_e, material.kappa_i
        eta, rho = material.eta, material.rho
        I = np.eye(ops.S.shape[0])
        half_Me, half_Mi = ops.Me - 0.5 * I, ops.Mi - 0.5 * I
        dCe = bio.d_electric_block(S, ke, xi)
        dMe = bio.d_magnetic_block(S, ke, xi)
        dCi = bio.d_electric_block(S, ki, xi)
        dMi = bio.d_magnetic_block(S, ki, xi)
        dC0 = bio.d_static_block(S, xi)
        dL = dCe + 1j * eta * (dMe @ ops.C0 + half_Me @ dC0)
        dN = dMe + 1j * eta * (dCe @ ops.C0 + ops.Ce @ dC0)
        dS = dCi @ ops.N + ops.Ci @ dN + rho * (dMi @ ops.L + half_Mi @ dL)
        dgD, dgN = sd.incident_trace_derivative(S, material, wave, xi)
        db = dCi @ sol.gN + ops.Ci @ dgN + rho * (dMi @ sol.gD + half_Mi @ dgD)
        dj = np.linalg.solve(ops.S, db - dS @ sol.j)

        a = ops.C0 @ sol.j
        da = dC0 @ sol.j + ops.C0 @ dj
        FE = bio.far_field_block(S, ke, dirs, "electric")
        FM = bio.far_field_block(S, ke, dirs, "magnetic")
        dFE = bio.d_far_field_block(S, ke, dirs, "electric", xi)
        dFM = bio.d_far_field_block(S, ke, dirs, "magnetic", xi)
        dF = -(dFE @ sol.j + FE @ dj) - 1j * eta * (dFM @ a + FM @ da)

        d_ext = -bio.electric_potential(S, ke, sol.j, ext, xi=xi)
        d_ext -= bio.electric_potential(S, ke, dj, ext)
        d_ext -= 1j * eta * bio.magnetic_potential(S, ke, a, ext, xi=xi)
        d_ext -= 1j * eta * bio.magnetic_potential(S, ke, da, ext)
        dtD = dgD - dL @ sol.j - ops.L @ dj
        dtN = (dgN - dN @ sol.j - ops.N @ dj) / rho
        d_int = bio.electric_potential(S, ki, sol.tN, itr, xi=xi)
        d_int += bio.electric_potential(S, ki, dtN, itr)
        d_int += bio.magnetic_potential(S, ki, sol.tD, itr, xi=xi)
        d_int += bio.magnetic_potential(S, ki, dtD, itr)

        assert abs(A.diagnostics["dj_norm"] / np.linalg.norm(dj) - 1.0) < 1e-12
        assert rel(A.dE_far, dF) < 1e-12
        assert rel(A.dE_near["exterior"], d_ext) < 1e-12
        assert rel(A.dE_near["interior"], d_int) < 1e-12


class TestDispatchAndData:
    def test_transmission_data_must_be_tangential(self, small_sphere):
        n = small_sphere.normal
        with pytest.raises(ValueError):
            sd.TransmissionData(small_sphere, n.copy(), 0.0 * n)
