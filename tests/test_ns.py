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
from pnpns.spectral import make_grid
from pnpns.state import PhysParams, SchemeConfig

from conftest import band_limited, div_free_velocity
from oracles import dense_solve_zero_mean, dense_weighted_laplacian, diff_matrices_2d


def _cfg(n, dt=0.05):
    return SchemeConfig(n_modes=n, dt=dt, t_final=dt)


class TestIonForcing:
    def test_constant_potentials_give_zero(self, grid16, rng):
        c = np.stack((1.0 + 0.3 * band_limited(grid16, rng),
                      1.0 + 0.3 * band_limited(grid16, rng)))
        mu = np.stack((np.full((16, 16), 0.7), np.full((16, 16), -0.2)))
        f = ion_forcing(grid16, c, mu, kappa=3.0)
        assert f.shape == (2, 16, 16)
        assert np.abs(f[0]).max() <= 1e-13
        assert np.abs(f[1]).max() <= 1e-13

    def test_uniform_electroneutral(self, grid16):
        c = np.full((2, 16, 16), 2.0)
        f = ion_forcing(grid16, c, np.log(c), kappa=10.0)
        assert np.abs(f[0]).max() <= 1e-13

    def test_single_species_gradient(self, grid16):
        c = np.ones((2, 16, 16))
        mu = np.stack((np.sin(grid16.xx), np.zeros((16, 16))))
        kappa = 2.5
        f = ion_forcing(grid16, c, mu, kappa)
        assert np.abs(f[0] + kappa * np.cos(grid16.xx)).max() <= 1e-12
        assert np.abs(f[1]).max() <= 1e-13


class TestSolveVelocity:
    def test_all_zero(self, grid16):
        zero_v = np.zeros((2, 16, 16))
        u, _, _ = solve_velocity(grid16, zero_v, np.zeros((16, 16)), zero_v.copy(), None,
                                 PhysParams(), 0.05, _cfg(16))
        assert np.abs(u[0]).max() == 0.0
        assert np.abs(u[1]).max() == 0.0

    def test_constant_forcing(self, grid16):
        dt = 0.05
        forcing = np.stack((np.full((16, 16), 2.0), np.full((16, 16), -1.0)))
        u, _, _ = solve_velocity(grid16, np.zeros((2, 16, 16)), np.zeros((16, 16)), forcing,
                                 None, PhysParams(), dt, _cfg(16))
        assert np.abs(u[0] - 2.0 * dt).max() <= 1e-12
        assert np.abs(u[1] + 1.0 * dt).max() <= 1e-12

    def test_manufactured_round_trip(self, grid16, rng):
        """Apply the operator to a chosen field, solve, recover the field."""
        params = PhysParams(viscosity=0.8)
        dt = 0.04
        cfg = _cfg(16, dt)
        ux, uy = div_free_velocity(grid16, rng, amplitude=0.7, kmax=4)
        phi_vals = band_limited(grid16, rng, kmax=4)
        phi = phi_vals - phi_vals.mean()
        wx = band_limited(grid16, rng, kmax=4)
        wy = band_limited(grid16, rng, kmax=4)

        def operator(w):
            gx, gy = grid16.grad(w)
            return (w / dt + ux * gx + uy * gy
                    - params.viscosity * grid16.laplacian(w))

        px, py = grid16.grad(phi)
        forcing = np.stack((operator(wx) - ux / dt + px, operator(wy) - uy / dt + py))
        solved, _, _ = solve_velocity(grid16, np.stack((ux, uy)), phi, forcing, None,
                                      params, dt, cfg)
        scale = max(np.abs(wx).max(), np.abs(wy).max())
        assert np.abs(solved[0] - wx).max() <= 1e-10 * scale
        assert np.abs(solved[1] - wy).max() <= 1e-10 * scale

    def test_no_convergence(self, grid16, rng):
        cfg = SchemeConfig(n_modes=16, dt=0.05, t_final=0.05,
                           krylov_tol=1e-14, krylov_max_iter=1)
        u_m = np.stack(div_free_velocity(grid16, rng, amplitude=5.0))
        forcing = np.stack((band_limited(grid16, rng), band_limited(grid16, rng)))
        with pytest.raises(NoConvergenceError):
            solve_velocity(grid16, u_m, np.zeros((16, 16)), forcing, None, PhysParams(),
                           0.05, cfg)


class TestPreconditionedProduct:
    """The momentum BiCGStab operator A S with S = (1/dt - nu lap)^{-1}."""

    @pytest.fixture
    def setting(self, grid8, rng):
        dt, viscosity = 0.05, 0.3
        u = np.stack(div_free_velocity(grid8, rng, amplitude=0.7, kmax=3))
        symbol = 1.0 / (1.0 / dt + viscosity * grid8._k2)
        return grid8, u, symbol, dt, viscosity

    def test_matches_operator_after_preconditioner(self, setting):
        grid, u, symbol, dt, viscosity = setting
        shape = (grid.n_modes,) * 2

        def operator(w):
            gx, gy = grid.grad(w)
            return w / dt + u[0] * gx + u[1] * gy - viscosity * grid.laplacian(w)

        def dense(fn):
            return np.column_stack([fn(e.reshape(shape)).ravel()
                                    for e in np.eye(grid.n_modes**2)])

        a = dense(operator)
        s = dense(lambda w: grid.irfft(symbol * grid.rfft(w)))
        folded = dense(lambda v: advect_diffuse_product(grid, u, symbol, v))
        assert np.linalg.norm(folded - a @ s) <= 1e-12 * np.linalg.norm(a @ s)

    def test_three_transforms_per_product(self, setting, rng, transforms):
        grid, u, symbol, _, _ = setting
        v = rng.standard_normal((grid.n_modes,) * 2)
        transforms["calls"] = 0
        advect_diffuse_product(grid, u, symbol, v)
        assert transforms["calls"] == 3

    def test_vortex_application_count(self):
        """BiCGStab work on an N=32 vortex flow: 22 applications, as when S and A ran in turn."""
        grid = make_grid(32)
        rng = np.random.default_rng(32)
        u_m = np.stack(div_free_velocity(grid, rng, amplitude=0.3, kmax=8))
        phi = band_limited(grid, rng, kmax=8, amplitude=0.2)
        cfg = SchemeConfig(n_modes=32, dt=1e-2, t_final=1e-2)
        _, iters, residual = solve_velocity(grid, u_m, phi, np.zeros((2, 32, 32)), None,
                                            PhysParams(viscosity=1e-2), cfg.dt, cfg)
        assert iters == 22
        assert residual <= cfg.krylov_tol


class TestProjection:
    def test_divergence_free_input_unchanged(self, grid16, rng):
        u = np.stack(div_free_velocity(grid16, rng))
        u_new, phi_new = project_velocity(grid16, u, np.zeros((16, 16)), dt=0.1)
        assert np.abs(u_new[0] - u[0]).max() <= 1e-12
        assert np.abs(u_new[1] - u[1]).max() <= 1e-12
        assert np.abs(phi_new).max() <= 1e-12

    def test_pure_gradient_annihilated(self, grid16):
        dt = 0.2
        chi = np.cos(grid16.xx)
        u_tilde = np.stack(grid16.grad(chi))
        u_new, phi_new = project_velocity(grid16, u_tilde, np.zeros((16, 16)), dt)
        assert np.abs(u_new[0]).max() <= 1e-13
        assert np.abs(u_new[1]).max() <= 1e-13
        assert np.abs(phi_new - chi / dt).max() <= 1e-12

    def test_divergence_free_for_arbitrary_input(self, grid, rng):
        n = grid.n_modes
        u_tilde = rng.standard_normal((2, n, n))
        u_new, _ = project_velocity(grid, u_tilde, np.zeros((n, n)), dt=0.1)
        div_norm = grid.norm(grid.div(u_new[0], u_new[1]))
        assert div_norm <= 1e-11 * max(1.0, grid.norm(u_new))

    def test_idempotent(self, grid16, rng):
        u_tilde = rng.standard_normal((2, 16, 16))
        u1, phi1 = project_velocity(grid16, u_tilde, np.zeros((16, 16)), dt=0.1)
        u2, phi2 = project_velocity(grid16, u1, phi1, dt=0.1)
        assert np.abs(u2[0] - u1[0]).max() <= 1e-12
        assert np.abs(u2[1] - u1[1]).max() <= 1e-12
        assert np.abs(phi2 - phi1).max() <= 1e-12

    def test_matches_dense_helmholtz_oracle(self, grid8, rng):
        """Leray projector via dense matrices on a resolved random field."""
        vx = band_limited(grid8, rng, kmax=3)
        vy = band_limited(grid8, rng, kmax=3)
        u_new, _ = project_velocity(grid8, np.stack((vx, vy)), np.zeros((8, 8)), dt=0.3)

        dx, dy = diff_matrices_2d(8)
        div_flat = dx @ vx.ravel() + dy @ vy.ravel()
        neg_lap = dense_weighted_laplacian(np.ones((8, 8)))
        chi = dense_solve_zero_mean(neg_lap, -div_flat.reshape(8, 8))
        ox = vx.ravel() - dx @ chi.ravel()
        oy = vy.ravel() - dy @ chi.ravel()
        scale = max(np.abs(ox).max(), 1.0)
        assert np.abs(u_new[0].ravel() - ox).max() <= 1e-10 * scale
        assert np.abs(u_new[1].ravel() - oy).max() <= 1e-10 * scale


class TestVelocityStep:
    def test_pythagoras_identity(self, grid16, rng):
        params = PhysParams()
        dt = 0.05
        cfg = _cfg(16, dt)
        u_m = np.stack(div_free_velocity(grid16, rng, amplitude=0.6, kmax=4))
        phi_vals = band_limited(grid16, rng, kmax=4)
        phi = phi_vals - phi_vals.mean()
        forcing = np.stack((band_limited(grid16, rng, kmax=4),
                            band_limited(grid16, rng, kmax=4)))
        u_tilde, _, _ = solve_velocity(grid16, u_m, phi, forcing, None, params, dt, cfg)
        result = velocity_step(grid16, u_m, phi, forcing, None, params, dt, cfg)
        lhs = grid16.norm(u_tilde) ** 2
        dphi = result.phi_new - phi
        gx, gy = grid16.grad(dphi)
        rhs = (grid16.norm(result.u_new) ** 2
               + dt * dt * (grid16.inner(gx, gx) + grid16.inner(gy, gy)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_result_invariants(self, grid16, rng):
        params = PhysParams()
        cfg = _cfg(16)
        u_m = np.stack(div_free_velocity(grid16, rng, kmax=4))
        forcing = np.stack((band_limited(grid16, rng, kmax=4),
                            band_limited(grid16, rng, kmax=4)))
        result = velocity_step(grid16, u_m, np.zeros((16, 16)), forcing, None, params,
                               cfg.dt, cfg)
        div_norm = grid16.norm(grid16.div(result.u_new[0], result.u_new[1]))
        assert div_norm <= 1e-11 * max(1.0, grid16.norm(result.u_new))
        assert abs(result.phi_new.mean()) <= 1e-12
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
