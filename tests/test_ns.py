"""Fluid step: body force, implicit advection-diffusion, pressure projection."""

import numpy as np
import pytest

from pnpns.errors import NoConvergenceError
from pnpns.ns import (
    advect_diffuse_product,
    ion_forcing,
    project_velocity,
    solve_velocity,
    velocity_step,
)
from pnpns.spectral import ScalarField, VectorField, make_grid, vector_norm
from pnpns.state import PhysParams, SchemeConfig

from conftest import band_limited, div_free_velocity
from oracles import dense_solve_zero_mean, dense_weighted_laplacian, diff_matrices_2d


def _cfg(n, dt=0.05):
    return SchemeConfig(n_modes=n, dt=dt, t_final=dt)


class TestIonForcing:
    def test_constant_potentials_give_zero(self, grid16, rng):
        p = ScalarField(grid16, 1.0 + 0.3 * band_limited(grid16, rng))
        n = ScalarField(grid16, 1.0 + 0.3 * band_limited(grid16, rng))
        mu = ScalarField.constant(grid16, 0.7)
        nu = ScalarField.constant(grid16, -0.2)
        f = ion_forcing(p, n, mu, nu, kappa=3.0)
        assert np.abs(f.x_comp.values).max() <= 1e-13
        assert np.abs(f.y_comp.values).max() <= 1e-13

    def test_uniform_electroneutral(self, grid16):
        c = ScalarField.constant(grid16, 2.0)
        log_c = ScalarField.constant(grid16, np.log(2.0))
        f = ion_forcing(c, c.copy(), log_c, log_c.copy(), kappa=10.0)
        assert np.abs(f.x_comp.values).max() <= 1e-13

    def test_single_species_gradient(self, grid16):
        p = ScalarField.constant(grid16, 1.0)
        n = ScalarField.constant(grid16, 1.0)
        mu = ScalarField.from_function(grid16, lambda x, y: np.sin(x))
        nu = ScalarField.constant(grid16, 0.0)
        kappa = 2.5
        f = ion_forcing(p, n, mu, nu, kappa)
        assert np.abs(f.x_comp.values + kappa * np.cos(grid16.xx)).max() <= 1e-12
        assert np.abs(f.y_comp.values).max() <= 1e-13


class TestSolveVelocity:
    def test_all_zero(self, grid16):
        zero_v = VectorField.zero(grid16)
        zero = ScalarField.constant(grid16, 0.0)
        u, _, _ = solve_velocity(zero_v, zero, zero_v.copy(), None, PhysParams(),
                                 0.05, _cfg(16))
        assert np.abs(u.x_comp.values).max() == 0.0
        assert np.abs(u.y_comp.values).max() == 0.0

    def test_constant_forcing(self, grid16):
        dt = 0.05
        zero_v = VectorField.zero(grid16)
        zero = ScalarField.constant(grid16, 0.0)
        forcing = VectorField.from_arrays(grid16,
                                          np.full((16, 16), 2.0),
                                          np.full((16, 16), -1.0))
        u, _, _ = solve_velocity(zero_v, zero, forcing, None, PhysParams(), dt, _cfg(16))
        assert np.abs(u.x_comp.values - 2.0 * dt).max() <= 1e-12
        assert np.abs(u.y_comp.values + 1.0 * dt).max() <= 1e-12

    def test_manufactured_round_trip(self, grid16, rng):
        """Apply the operator to a chosen field, solve, recover the field."""
        params = PhysParams(viscosity=0.8)
        dt = 0.04
        cfg = _cfg(16, dt)
        ux, uy = div_free_velocity(grid16, rng, amplitude=0.7, kmax=4)
        u_m = VectorField.from_arrays(grid16, ux, uy)
        phi_vals = band_limited(grid16, rng, kmax=4)
        phi = ScalarField(grid16, phi_vals - phi_vals.mean())
        wx = band_limited(grid16, rng, kmax=4)
        wy = band_limited(grid16, rng, kmax=4)

        def operator(w):
            gx, gy = grid16.grad(w)
            return (w / dt + ux * gx + uy * gy
                    - params.viscosity * grid16.laplacian(w))

        px, py = grid16.grad(phi.values)
        forcing = VectorField.from_arrays(
            grid16,
            operator(wx) - ux / dt + px,
            operator(wy) - uy / dt + py,
        )
        solved, _, _ = solve_velocity(u_m, phi, forcing, None, params, dt, cfg)
        scale = max(np.abs(wx).max(), np.abs(wy).max())
        assert np.abs(solved.x_comp.values - wx).max() <= 1e-10 * scale
        assert np.abs(solved.y_comp.values - wy).max() <= 1e-10 * scale

    def test_no_convergence(self, grid16, rng):
        cfg = SchemeConfig(n_modes=16, dt=0.05, t_final=0.05,
                           krylov_tol=1e-14, krylov_max_iter=1)
        ux, uy = div_free_velocity(grid16, rng, amplitude=5.0)
        u_m = VectorField.from_arrays(grid16, ux, uy)
        zero = ScalarField.constant(grid16, 0.0)
        forcing = VectorField.from_arrays(grid16, band_limited(grid16, rng),
                                          band_limited(grid16, rng))
        with pytest.raises(NoConvergenceError):
            solve_velocity(u_m, zero, forcing, None, PhysParams(), 0.05, cfg)


class TestPreconditionedProduct:
    """The momentum BiCGStab operator A S with S = (1/dt - nu lap)^{-1}."""

    @pytest.fixture
    def setting(self, grid8, rng):
        dt, viscosity = 0.05, 0.3
        ux, uy = div_free_velocity(grid8, rng, amplitude=0.7, kmax=3)
        symbol = 1.0 / (1.0 / dt + viscosity * grid8._k2)
        return grid8, ux, uy, symbol, dt, viscosity

    def test_matches_operator_after_preconditioner(self, setting):
        grid, ux, uy, symbol, dt, viscosity = setting
        shape = (grid.n_modes,) * 2

        def operator(w):
            gx, gy = grid.grad(w)
            return w / dt + ux * gx + uy * gy - viscosity * grid.laplacian(w)

        def dense(fn):
            return np.column_stack([fn(e.reshape(shape)).ravel()
                                    for e in np.eye(grid.n_modes**2)])

        a = dense(operator)
        s = dense(lambda w: grid.irfft(symbol * grid.rfft(w)))
        folded = dense(lambda v: advect_diffuse_product(grid, ux, uy, symbol, v))
        assert np.linalg.norm(folded - a @ s) <= 1e-12 * np.linalg.norm(a @ s)

    def test_three_transforms_per_product(self, setting, rng, transforms):
        grid, ux, uy, symbol, _, _ = setting
        v = rng.standard_normal((grid.n_modes,) * 2)
        transforms["calls"] = 0
        advect_diffuse_product(grid, ux, uy, symbol, v)
        assert transforms["calls"] == 3

    def test_vortex_application_count(self):
        """BiCGStab work on an N=32 vortex flow: 22 applications, as when S and A ran in turn."""
        grid = make_grid(32)
        rng = np.random.default_rng(32)
        ux, uy = div_free_velocity(grid, rng, amplitude=0.3, kmax=8)
        u_m = VectorField.from_arrays(grid, ux, uy)
        phi = ScalarField(grid, band_limited(grid, rng, kmax=8, amplitude=0.2))
        cfg = SchemeConfig(n_modes=32, dt=1e-2, t_final=1e-2)
        _, iters, residual = solve_velocity(u_m, phi, VectorField.zero(grid), None,
                                            PhysParams(viscosity=1e-2), cfg.dt, cfg)
        assert iters == 22
        assert residual <= cfg.krylov_tol


class TestProjection:
    def test_divergence_free_input_unchanged(self, grid16, rng):
        ux, uy = div_free_velocity(grid16, rng)
        u = VectorField.from_arrays(grid16, ux, uy)
        phi = ScalarField.constant(grid16, 0.0)
        u_new, phi_new = project_velocity(u, phi, dt=0.1)
        assert np.abs(u_new.x_comp.values - ux).max() <= 1e-12
        assert np.abs(u_new.y_comp.values - uy).max() <= 1e-12
        assert np.abs(phi_new.values).max() <= 1e-12

    def test_pure_gradient_annihilated(self, grid16):
        dt = 0.2
        chi = np.cos(grid16.xx)
        gx, gy = grid16.grad(chi)
        u_tilde = VectorField.from_arrays(grid16, gx, gy)
        phi = ScalarField.constant(grid16, 0.0)
        u_new, phi_new = project_velocity(u_tilde, phi, dt)
        assert np.abs(u_new.x_comp.values).max() <= 1e-13
        assert np.abs(u_new.y_comp.values).max() <= 1e-13
        assert np.abs(phi_new.values - chi / dt).max() <= 1e-12

    def test_divergence_free_for_arbitrary_input(self, grid, rng):
        u_tilde = VectorField.from_arrays(grid,
                                          rng.standard_normal((grid.n_modes,) * 2),
                                          rng.standard_normal((grid.n_modes,) * 2))
        phi = ScalarField.constant(grid, 0.0)
        u_new, _ = project_velocity(u_tilde, phi, dt=0.1)
        div_norm = grid.norm(grid.div(u_new.x_comp.values, u_new.y_comp.values))
        assert div_norm <= 1e-11 * max(1.0, vector_norm(u_new))

    def test_idempotent(self, grid16, rng):
        u_tilde = VectorField.from_arrays(grid16, rng.standard_normal((16, 16)),
                                          rng.standard_normal((16, 16)))
        phi = ScalarField.constant(grid16, 0.0)
        u1, phi1 = project_velocity(u_tilde, phi, dt=0.1)
        u2, phi2 = project_velocity(u1, phi1, dt=0.1)
        assert np.abs(u2.x_comp.values - u1.x_comp.values).max() <= 1e-12
        assert np.abs(u2.y_comp.values - u1.y_comp.values).max() <= 1e-12
        assert np.abs(phi2.values - phi1.values).max() <= 1e-12

    def test_matches_dense_helmholtz_oracle(self, grid8, rng):
        """Leray projector via dense matrices on a resolved random field."""
        vx = band_limited(grid8, rng, kmax=3)
        vy = band_limited(grid8, rng, kmax=3)
        u_tilde = VectorField.from_arrays(grid8, vx, vy)
        phi = ScalarField.constant(grid8, 0.0)
        u_new, _ = project_velocity(u_tilde, phi, dt=0.3)

        dx, dy = diff_matrices_2d(8)
        div_flat = dx @ vx.ravel() + dy @ vy.ravel()
        neg_lap = dense_weighted_laplacian(np.ones((8, 8)))
        chi = dense_solve_zero_mean(neg_lap, -div_flat.reshape(8, 8))
        ox = vx.ravel() - dx @ chi.ravel()
        oy = vy.ravel() - dy @ chi.ravel()
        scale = max(np.abs(ox).max(), 1.0)
        assert np.abs(u_new.x_comp.values.ravel() - ox).max() <= 1e-10 * scale
        assert np.abs(u_new.y_comp.values.ravel() - oy).max() <= 1e-10 * scale


class TestVelocityStep:
    def test_pythagoras_identity(self, grid16, rng):
        params = PhysParams()
        dt = 0.05
        cfg = _cfg(16, dt)
        ux, uy = div_free_velocity(grid16, rng, amplitude=0.6, kmax=4)
        u_m = VectorField.from_arrays(grid16, ux, uy)
        phi_vals = band_limited(grid16, rng, kmax=4)
        phi = ScalarField(grid16, phi_vals - phi_vals.mean())
        forcing = VectorField.from_arrays(grid16,
                                          band_limited(grid16, rng, kmax=4),
                                          band_limited(grid16, rng, kmax=4))
        result = velocity_step(u_m, phi, forcing, None, params, dt, cfg)
        lhs = vector_norm(result.u_tilde) ** 2
        dphi = result.phi_new.values - phi.values
        gx, gy = grid16.grad(dphi)
        rhs = (vector_norm(result.u_new) ** 2
               + dt * dt * (grid16.inner(gx, gx) + grid16.inner(gy, gy)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_result_invariants(self, grid16, rng):
        params = PhysParams()
        cfg = _cfg(16)
        ux, uy = div_free_velocity(grid16, rng, kmax=4)
        u_m = VectorField.from_arrays(grid16, ux, uy)
        zero = ScalarField.constant(grid16, 0.0)
        forcing = VectorField.from_arrays(grid16,
                                          band_limited(grid16, rng, kmax=4),
                                          band_limited(grid16, rng, kmax=4))
        result = velocity_step(u_m, zero, forcing, None, params, cfg.dt, cfg)
        div_norm = grid16.norm(grid16.div(result.u_new.x_comp.values,
                                          result.u_new.y_comp.values))
        assert div_norm <= 1e-11 * max(1.0, vector_norm(result.u_new))
        assert abs(result.phi_new.values.mean()) <= 1e-12
        assert result.residual <= cfg.krylov_tol * 10


class TestConvectionSkewSymmetry:
    @pytest.mark.parametrize("seed", range(3))
    def test_advective_form_energy_neutral(self, grid16, seed):
        """<(u.grad)w, w> = 0 for solenoidal u (resolved test fields)."""
        rng = np.random.default_rng(5000 + seed)
        ux, uy = div_free_velocity(grid16, rng, kmax=4)
        w = band_limited(grid16, rng, kmax=4)
        gx, gy = grid16.grad(w)
        advected = ux * gx + uy * gy
        value = grid16.inner(advected, w)
        scale = grid16.norm(w) ** 2 * max(np.abs(ux).max(), 1.0)
        assert abs(value) <= 1e-10 * scale
