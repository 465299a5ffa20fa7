"""Spectral infrastructure: transforms, derivatives, quadrature, elliptic solves."""

import numpy as np
import pytest

from pnpns.errors import (
    GridMismatchError,
    NoConvergenceError,
    NonPositiveMobilityError,
    NonZeroMeanError,
)
from pnpns.spectral import Field, Grid, make_grid

from conftest import band_limited, positive_field
from oracles import dense_solve_zero_mean, dense_weighted_laplacian, direct_dft2

TWO_PI = 2.0 * np.pi


class TestGridBasics:
    def test_rejects_odd_or_tiny(self):
        for bad in (3, 5, 2, 7):
            with pytest.raises(ValueError):
                Grid(bad)

    def test_quadrature_weight(self):
        g = make_grid(16)
        assert g.weight == pytest.approx((TWO_PI / 16) ** 2, rel=0, abs=0)

    @pytest.mark.parametrize("shape", [(16, 16), (2, 16, 16)])
    def test_field_holds_a_field_or_a_stack(self, grid16, shape):
        values = np.ones(shape)
        field = Field(grid16, values)
        assert field.values is values  # a float64 array is held, not copied

    def test_scalar_field_shape_check(self, grid16):
        with pytest.raises(GridMismatchError):
            Field(grid16, np.zeros((8, 8)))

    @pytest.mark.parametrize("shape", [(3, 16, 16), (2, 8, 8), (16,), (1, 16, 16), ()])
    def test_stack_shape_check(self, grid16, shape):
        with pytest.raises(GridMismatchError):
            Field(grid16, np.zeros(shape))

    def test_scalar_field_rejects_nan(self, grid16):
        bad = np.zeros((16, 16))
        bad[3, 3] = np.nan
        with pytest.raises(ValueError):
            Field(grid16, bad)

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_stack_rejects_nonfinite_in_each_component(self, grid16, component, bad_value):
        bad = np.zeros((2, 16, 16))
        bad[component, 3, 5] = bad_value
        with pytest.raises(ValueError, match="non-finite"):
            Field(grid16, bad)


def amplitudes(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Grid.rfft normalized so that a constant field gives c[0, 0] = const."""
    return grid.rfft(values) / grid.n_modes**2


class TestTransforms:
    def test_constant_field_dc_mode(self, grid16):
        c = amplitudes(grid16, np.ones((16, 16)))
        assert c[0, 0] == pytest.approx(1.0, abs=1e-14)
        rest = c.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_single_harmonic(self, grid16):
        c = amplitudes(grid16, np.cos(grid16.xx))
        expected = np.zeros((16, 16 // 2 + 1), dtype=complex)
        expected[1, 0] = 0.5
        expected[-1, 0] = 0.5
        assert np.abs(c - expected).max() < 1e-14

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_round_trip(self, n, rng):
        g = make_grid(n)
        values = rng.standard_normal((n, n))
        back = g.irfft(g.rfft(values))
        scale = np.abs(values).max()
        assert np.abs(back - values).max() <= 1e-13 * scale

    def test_transform_matches_direct_dft(self, grid8, rng):
        values = rng.standard_normal((8, 8))
        ours = amplitudes(grid8, values)
        direct = direct_dft2(values)[:, :8 // 2 + 1]
        assert np.abs(ours - direct).max() <= 1e-12 * np.abs(direct).max()


class TestDerivatives:
    def test_ddx_sin(self, grid16):
        assert np.abs(grid16.ddx(np.sin(grid16.xx)) - np.cos(grid16.xx)).max() <= 1e-12

    def test_every_retained_harmonic(self, grid16):
        g = grid16
        for k in range(1, g.n_modes // 2):
            c = np.cos(k * g.xx)
            s = np.sin(k * g.xx)
            assert np.abs(g.ddx(c) + k * np.sin(k * g.xx)).max() <= 1e-12 * max(k, 1)
            assert np.abs(g.ddx(s) - k * np.cos(k * g.xx)).max() <= 1e-12 * max(k, 1)

    def test_nyquist_mode_zeroed(self, grid8):
        half = grid8.n_modes // 2
        assert np.abs(grid8.ddx(np.cos(half * grid8.xx))).max() <= 1e-12

    def test_laplacian_eigenfunction(self, grid16):
        f = np.cos(grid16.xx) * np.cos(grid16.yy)
        assert np.abs(grid16.laplacian(f) + 2.0 * f).max() <= 1e-12

    def test_div_grad_is_laplacian(self, grid, rng):
        f = band_limited(grid, rng)
        composed = grid.div(*grid.grad(f))
        assert np.abs(composed - grid.laplacian(f)).max() <= 1e-11

    def test_ddy_matches_transposed_ddx(self, grid16, rng):
        vals = band_limited(grid16, rng)
        assert np.abs(grid16.ddy(vals) - grid16.ddx(vals.T).T).max() <= 1e-12


class TestInnerProduct:
    def test_constants(self, grid16):
        one = np.ones((16, 16))
        assert grid16.inner(one, one) == pytest.approx(TWO_PI**2, rel=1e-14)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_sin_squared(self, n):
        g = make_grid(n)
        s = np.sin(g.xx)
        assert g.inner(s, s) == pytest.approx(2.0 * np.pi**2, rel=1e-13)

    def test_orthogonality(self, grid16):
        s = np.sin(grid16.xx)
        c = np.cos(grid16.xx)
        assert abs(grid16.inner(s, c)) <= 1e-13

    def test_symmetry_and_bilinearity(self, grid16, rng):
        u = rng.standard_normal((16, 16))
        v = rng.standard_normal((16, 16))
        w = rng.standard_normal((16, 16))
        assert grid16.inner(u, v) == pytest.approx(grid16.inner(v, u), rel=1e-13)
        lhs = grid16.inner(2.0 * u + 3.0 * v, w)
        rhs = 2.0 * grid16.inner(u, w) + 3.0 * grid16.inner(v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestInverseLaplacian:
    def test_eigenfunction(self, grid16):
        g = grid16.inv_laplacian_zero_mean(2.0 * np.cos(grid16.xx) * np.cos(grid16.yy))
        assert np.abs(g - np.cos(grid16.xx) * np.cos(grid16.yy)).max() <= 1e-13

    def test_zero_maps_to_zero(self, grid16):
        g = grid16.inv_laplacian_zero_mean(np.zeros((16, 16)))
        assert np.abs(g).max() == 0.0

    def test_higher_harmonic(self, grid16):
        g = grid16.inv_laplacian_zero_mean(5.0 * np.cos(3 * grid16.xx))
        assert np.abs(g - (5.0 / 9.0) * np.cos(3 * grid16.xx)).max() <= 1e-13

    def test_rejects_nonzero_mean(self, grid16):
        with pytest.raises(NonZeroMeanError):
            grid16.inv_laplacian_zero_mean(np.ones((16, 16)))

    def test_inverts_negative_laplacian(self, grid, rng):
        vals = band_limited(grid, rng)
        vals -= vals.mean()
        back = grid.inv_laplacian_zero_mean(-grid.laplacian(vals))
        assert np.abs(back - vals).max() <= 1e-11


class TestWeightedLaplacian:
    def test_unit_mobility_is_neg_laplacian(self, grid16):
        m = np.ones((16, 16))
        out = grid16.apply_weighted_laplacian(m, np.cos(grid16.xx))
        assert np.abs(out - np.cos(grid16.xx)).max() <= 1e-12

    def test_constant_field_maps_to_zero(self, grid16, rng):
        m = positive_field(grid16, rng)
        out = grid16.apply_weighted_laplacian(m, np.full((16, 16), 4.2))
        assert np.abs(out).max() <= 1e-13

    def test_rejects_nonpositive_mobility(self, grid16):
        m = np.sin(grid16.xx)
        with pytest.raises(NonPositiveMobilityError):
            grid16.apply_weighted_laplacian(m, np.ones((16, 16)))

    def test_matches_dense_assembly(self, grid8):
        m = 2.0 + np.sin(grid8.xx)
        f = np.cos(grid8.yy)
        ours = grid8.apply_weighted_laplacian(m, f)
        dense = dense_weighted_laplacian(m) @ f.ravel()
        scale = np.abs(dense).max()
        assert np.abs(ours.ravel() - dense).max() <= 1e-9 * scale

    def test_random_matches_dense_assembly(self, grid8, rng):
        m = positive_field(grid8, rng, base=1.5, kmax=3)
        f = band_limited(grid8, rng, kmax=3)
        ours = grid8.apply_weighted_laplacian(m, f)
        dense = dense_weighted_laplacian(m) @ f.ravel()
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(ours.ravel() - dense).max() <= 1e-9 * scale

    def test_self_adjoint(self, grid, rng):
        m = positive_field(grid, rng, kmax=grid.n_modes // 4)
        f = band_limited(grid, rng, kmax=grid.n_modes // 4)
        g = band_limited(grid, rng, kmax=grid.n_modes // 4)
        lhs = grid.inner(grid.apply_weighted_laplacian(m, f), g)
        rhs = grid.inner(grid.apply_weighted_laplacian(m, g), f)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_coercive(self, grid, rng):
        m_vals = positive_field(grid, rng, kmax=grid.n_modes // 4)
        f_vals = band_limited(grid, rng, kmax=grid.n_modes // 4)
        f_vals -= f_vals.mean()
        quad = grid.inner(grid.apply_weighted_laplacian(m_vals, f_vals), f_vals)
        gx, gy = grid.grad(f_vals)
        grad_sq = grid.inner(gx, gx) + grid.inner(gy, gy)
        assert quad >= m_vals.min() * grad_sq - 1e-10


class TestWeightedSolve:
    def test_unit_mobility_reduces_to_inv_laplacian(self, grid16):
        m = np.ones((16, 16))
        f = 2.0 * np.cos(grid16.xx) * np.cos(grid16.yy)
        g = grid16.solve_weighted_laplacian(m, f)
        assert np.abs(g - np.cos(grid16.xx) * np.cos(grid16.yy)).max() <= 1e-10

    def test_solve_then_apply(self, grid16, rng):
        m = positive_field(grid16, rng, base=1.2)
        f = band_limited(grid16, rng)
        f -= f.mean()
        g = grid16.solve_weighted_laplacian(m, f, tol=1e-13)
        back = grid16.apply_weighted_laplacian(m, g)
        scale = np.sqrt(grid16.inner(f, f))
        err = np.sqrt(grid16.inner(back - f, back - f))
        assert err <= 1e-10 * scale

    def test_matches_dense_solve(self, grid8):
        m = 1.1 + 0.5 * np.cos(grid8.xx) * np.cos(grid8.yy)
        f = np.cos(2 * grid8.xx)
        ours = grid8.solve_weighted_laplacian(m, f, tol=1e-14)
        dense = dense_solve_zero_mean(dense_weighted_laplacian(m), f)
        scale = np.abs(dense).max()
        assert np.abs(ours - dense).max() <= 1e-9 * scale

    def test_rejects_nonzero_mean(self, grid16):
        m = np.ones((16, 16))
        with pytest.raises(NonZeroMeanError):
            grid16.solve_weighted_laplacian(m, np.ones((16, 16)))

    def test_rejects_nonpositive_mobility(self, grid16):
        m = np.zeros((16, 16))
        with pytest.raises(NonPositiveMobilityError):
            grid16.solve_weighted_laplacian(m, np.cos(grid16.xx))

    def test_no_convergence_reported(self, grid16):
        m = 1.0 + 0.9 * np.sin(grid16.xx)
        f = np.cos(2 * grid16.xx)
        with pytest.raises(NoConvergenceError) as err:
            grid16.solve_weighted_laplacian(m, f, tol=1e-14, max_iter=1)
        assert err.value.iterations >= 1
        assert err.value.residual > 0


class TestProjection:
    def test_projected_field_is_divergence_free(self, grid, rng):
        vx = rng.standard_normal((grid.n_modes,) * 2)
        vy = rng.standard_normal((grid.n_modes,) * 2)
        px, py = grid.project_div_free(vx, vy)
        assert grid.norm(grid.div(px, py)) <= 1e-11 * max(grid.norm(px), 1.0)

    def test_idempotent(self, grid16, rng):
        vx = rng.standard_normal((16, 16))
        vy = rng.standard_normal((16, 16))
        px, py = grid16.project_div_free(vx, vy)
        qx, qy = grid16.project_div_free(px, py)
        assert np.abs(qx - px).max() <= 1e-12
        assert np.abs(qy - py).max() <= 1e-12
