"""Spectral infrastructure: transforms, derivatives, quadrature, elliptic solves."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import pnpns
from pnpns.errors import GridMismatchError, NoConvergenceError, NonZeroMeanError
from pnpns.ns import project_velocity
from pnpns.spectral import Field, Grid, make_grid

from conftest import band_limited, positive_field
from oracles import (
    apply_weighted_laplacian,
    dense_solve_zero_mean,
    dense_weighted_laplacian,
    direct_dft2,
    laplacian,
    solve_weighted_laplacian,
)

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


class TestTransformsMatchScipy:
    """Grid.rfft / Grid.irfft against scipy.fft.rfft2 / irfft2, the oracle: bitwise at N = 2^k."""

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 256])
    @pytest.mark.parametrize("shape", ["field", "stack"])
    def test_bitwise_equal(self, n, shape, rng):
        g = make_grid(n)
        values = rng.standard_normal((n, n) if shape == "field" else (2, n, n))
        kept = values.copy()
        spec = g.rfft(values)
        assert np.array_equal(spec, scipy.fft.rfft2(values))
        assert np.array_equal(values, kept)  # a default call leaves its input unchanged
        coeffs = spec.copy()
        back = g.irfft(spec)
        assert np.array_equal(back, scipy.fft.irfft2(coeffs, s=(n, n)))
        assert np.array_equal(spec, coeffs)

        out = np.empty_like(spec)
        assert g.rfft(values, out=out) is out
        assert np.array_equal(out, spec) and np.array_equal(values, kept)
        real = np.empty_like(values)
        assert g.irfft(spec, out=real, scratch=np.empty_like(spec)) is real
        assert np.array_equal(real, back) and np.array_equal(spec, coeffs)
        real[...] = 0.0
        assert g.irfft(spec, out=real, scratch=spec) is real  # spec is the scratch
        assert np.array_equal(real, back)

    def test_import_leaves_scipy_fft_unloaded(self):
        """The transforms are numpy's: importing pnpns does not load scipy.fft.

        Nor multiprocessing: the package runs in the caller's process.
        """
        src = Path(pnpns.__file__).resolve().parents[1]
        code = ("import sys, pnpns; "
                "print('scipy.fft' in sys.modules, 'multiprocessing' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=120, check=True)
        assert done.stdout.strip() == "False False"


class TestSymbols:
    """The grid's Fourier symbols: one full-shape, read-only copy, owned by spectral.py."""

    COMPLEX = ("ikx", "iky", "inv_k2_grad")
    REAL = ("k2", "inv_k2")

    @staticmethod
    def broadcast_symbols(n: int) -> dict:
        """The symbols as (N, 1) and (1, N/2 + 1) factors, built here from the wavenumbers."""
        kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        ky = np.arange(n // 2 + 1, dtype=float)[None, :]
        kx_odd, ky_odd = kx.copy(), ky.copy()
        kx_odd[n // 2], ky_odd[0, -1] = 0.0, 0.0

        def reciprocal(k2):
            return np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)

        return {"ikx": 1j * kx_odd, "iky": 1j * ky_odd, "k2": kx**2 + ky**2,
                "inv_k2": reciprocal(kx**2 + ky**2),
                "inv_k2_grad": reciprocal(kx_odd**2 + ky_odd**2)}

    @pytest.mark.parametrize("name", COMPLEX + REAL)
    def test_full_shape_and_read_only(self, grid, name):
        symbol = getattr(grid, name)
        n = grid.n_modes
        assert symbol.shape == (n, n // 2 + 1)
        assert symbol.dtype == (complex if name in self.COMPLEX else float)
        with pytest.raises(ValueError):
            symbol[0, 0] = 1.0

    @pytest.mark.parametrize("name", COMPLEX + REAL)
    @pytest.mark.parametrize("n", [8, 16, 256])
    def test_product_is_bitwise_the_broadcast_product(self, rng, name, n):
        grid = make_grid(n)
        spec = grid.rfft(rng.standard_normal((2, n, n)))
        expected = self.broadcast_symbols(n)[name] * spec
        assert np.array_equal(getattr(grid, name) * spec, expected)
        assert np.array_equal(getattr(grid, name) * spec[0], expected[0])

    def test_only_spectral_py_reads_grid_private_attributes(self):
        private_read = re.compile(r"\bgrid\w*\._\w")
        package = Path(pnpns.__file__).parent
        sources = sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
        offenders = [f"{path.name}:{k}: {line.strip()}"
                     for path in sources if path.name != "spectral.py"
                     for k, line in enumerate(path.read_text().splitlines(), 1)
                     if private_read.search(line)]
        assert offenders == []


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
        assert np.abs(laplacian(grid16, f) + 2.0 * f).max() <= 1e-12

    def test_div_grad_is_laplacian(self, grid, rng):
        f = band_limited(grid, rng)
        composed = grid.div(*grid.grad(f))
        assert np.abs(composed - laplacian(grid, f)).max() <= 1e-11

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
        back = grid.inv_laplacian_zero_mean(-laplacian(grid, vals))
        assert np.abs(back - vals).max() <= 1e-11


class TestWeightedLaplacian:
    def test_unit_mobility_is_neg_laplacian(self, grid16):
        m = np.ones((16, 16))
        out = apply_weighted_laplacian(grid16, m, np.cos(grid16.xx))
        assert np.abs(out - np.cos(grid16.xx)).max() <= 1e-12

    def test_constant_field_maps_to_zero(self, grid16, rng):
        m = positive_field(grid16, rng)
        out = apply_weighted_laplacian(grid16, m, np.full((16, 16), 4.2))
        assert np.abs(out).max() <= 1e-13

    def test_rejects_nonpositive_mobility(self, grid16):
        m = np.sin(grid16.xx)
        with pytest.raises(ValueError, match="mobility must be positive"):
            apply_weighted_laplacian(grid16, m, np.ones((16, 16)))

    def test_matches_dense_assembly(self, grid8):
        m = 2.0 + np.sin(grid8.xx)
        f = np.cos(grid8.yy)
        ours = apply_weighted_laplacian(grid8, m, f)
        dense = dense_weighted_laplacian(m) @ f.ravel()
        scale = np.abs(dense).max()
        assert np.abs(ours.ravel() - dense).max() <= 1e-9 * scale

    def test_random_matches_dense_assembly(self, grid8, rng):
        m = positive_field(grid8, rng, base=1.5, kmax=3)
        f = band_limited(grid8, rng, kmax=3)
        ours = apply_weighted_laplacian(grid8, m, f)
        dense = dense_weighted_laplacian(m) @ f.ravel()
        scale = max(np.abs(dense).max(), 1.0)
        assert np.abs(ours.ravel() - dense).max() <= 1e-9 * scale

    def test_self_adjoint(self, grid, rng):
        m = positive_field(grid, rng, kmax=grid.n_modes // 4)
        f = band_limited(grid, rng, kmax=grid.n_modes // 4)
        g = band_limited(grid, rng, kmax=grid.n_modes // 4)
        lhs = grid.inner(apply_weighted_laplacian(grid, m, f), g)
        rhs = grid.inner(apply_weighted_laplacian(grid, m, g), f)
        assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)

    def test_coercive(self, grid, rng):
        m_vals = positive_field(grid, rng, kmax=grid.n_modes // 4)
        f_vals = band_limited(grid, rng, kmax=grid.n_modes // 4)
        f_vals -= f_vals.mean()
        quad = grid.inner(apply_weighted_laplacian(grid, m_vals, f_vals), f_vals)
        gx, gy = grid.grad(f_vals)
        grad_sq = grid.inner(gx, gx) + grid.inner(gy, gy)
        assert quad >= m_vals.min() * grad_sq - 1e-10


class TestWeightedSolve:
    def test_unit_mobility_reduces_to_inv_laplacian(self, grid16):
        m = np.ones((16, 16))
        f = 2.0 * np.cos(grid16.xx) * np.cos(grid16.yy)
        g = solve_weighted_laplacian(grid16, m, f)
        assert np.abs(g - np.cos(grid16.xx) * np.cos(grid16.yy)).max() <= 1e-10

    def test_solve_then_apply(self, grid16, rng):
        m = positive_field(grid16, rng, base=1.2)
        f = band_limited(grid16, rng)
        f -= f.mean()
        g = solve_weighted_laplacian(grid16, m, f, tol=1e-13)
        back = apply_weighted_laplacian(grid16, m, g)
        scale = np.sqrt(grid16.inner(f, f))
        err = np.sqrt(grid16.inner(back - f, back - f))
        assert err <= 1e-10 * scale

    def test_matches_dense_solve(self, grid8):
        m = 1.1 + 0.5 * np.cos(grid8.xx) * np.cos(grid8.yy)
        f = np.cos(2 * grid8.xx)
        ours = solve_weighted_laplacian(grid8, m, f, tol=1e-14)
        dense = dense_solve_zero_mean(dense_weighted_laplacian(m), f)
        scale = np.abs(dense).max()
        assert np.abs(ours - dense).max() <= 1e-9 * scale

    def test_rejects_nonzero_mean(self, grid16):
        m = np.ones((16, 16))
        with pytest.raises(NonZeroMeanError):
            solve_weighted_laplacian(grid16, m, np.ones((16, 16)))

    def test_rejects_nonpositive_mobility(self, grid16):
        m = np.zeros((16, 16))
        with pytest.raises(ValueError, match="mobility must be positive"):
            solve_weighted_laplacian(grid16, m, np.cos(grid16.xx))

    def test_no_convergence_reported(self, grid16):
        m = 1.0 + 0.9 * np.sin(grid16.xx)
        f = np.cos(2 * grid16.xx)
        with pytest.raises(NoConvergenceError) as err:
            solve_weighted_laplacian(grid16, m, f, tol=1e-14, max_iter=1)
        assert err.value.iterations >= 1
        assert err.value.residual > 0


class TestProjection:
    def test_projected_field_is_divergence_free(self, grid, rng):
        vx = rng.standard_normal((grid.n_modes,) * 2)
        vy = rng.standard_normal((grid.n_modes,) * 2)
        px, py = project_velocity(grid, np.stack((vx, vy)), 0, 1.0)[0]
        assert grid.norm(grid.div(px, py)) <= 1e-11 * max(grid.norm(px), 1.0)

    def test_idempotent(self, grid16, rng):
        vx = rng.standard_normal((16, 16))
        vy = rng.standard_normal((16, 16))
        px, py = project_velocity(grid16, np.stack((vx, vy)), 0, 1.0)[0]
        qx, qy = project_velocity(grid16, np.stack((px, py)), 0, 1.0)[0]
        assert np.abs(qx - px).max() <= 1e-12
        assert np.abs(qy - py).max() <= 1e-12
