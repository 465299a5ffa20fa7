"""Manufactured solutions: exact fields, forcing validation, convergence harness."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

import pnpns
from pnpns import mms
from pnpns.errors import ConfigError
from pnpns.integrator import advance
from pnpns.spectral import Field, make_grid
from pnpns.state import PhysParams, SchemeConfig, mass

from oracles import FdForcingOracle

TWO_PI = 2.0 * np.pi


def test_import_leaves_sympy_unloaded():
    """sympy is loaded only when a manufactured case is built."""
    src = Path(pnpns.__file__).resolve().parents[1]
    code = "import sys, pnpns; print('sympy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"


@pytest.fixture(scope="module")
def case():
    return mms.make_case(PhysParams())


@pytest.fixture(scope="module")
def paper_case():
    return mms.make_case(PhysParams(), mms.PAPER_EXACT)


class TestExactState:
    def test_initial_time_divergence_free_variant(self, case, grid16):
        p, n, u, pressure, psi = case.exact_state(0.0, grid16)
        assert np.abs(p.values - 1.1).max() <= 1e-15
        expected_n = 1.1 - np.cos(grid16.xx) * np.cos(grid16.yy)
        assert np.abs(n.values - expected_n).max() <= 1e-15
        assert u.values.shape == (2, 16, 16)
        assert np.abs(u.values).max() <= 1e-15  # sin(0) factor

    def test_initial_time_paper_variant_velocity(self, paper_case, grid16):
        _, _, u, _, _ = paper_case.exact_state(0.0, grid16)
        expected = -np.sin(2 * grid16.xx) * np.sin(grid16.yy) ** 2
        assert np.abs(u.values[0]).max() <= 1e-15
        assert np.abs(u.values[1] - expected).max() <= 1e-14

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
    def test_mass_is_time_independent(self, case, grid16, t):
        p, n, *_ = case.exact_state(t, grid16)
        assert mass(p) == pytest.approx(1.1 * TWO_PI**2, rel=1e-13)
        assert mass(n) == pytest.approx(1.1 * TWO_PI**2, rel=1e-13)
        assert abs(mass(p) - mass(n)) <= 1e-12

    @pytest.mark.parametrize("t", [0.2, 0.9])
    def test_poisson_identity(self, t):
        params = PhysParams(epsilon=1.9)
        c = mms.make_case(params)
        grid = make_grid(16)
        p, n, _, _, psi = c.exact_state(t, grid)
        residual = -params.epsilon * grid.laplacian(psi.values) - (p.values - n.values)
        assert np.abs(residual).max() <= 1e-12

    def test_divergence_free_variant_is_solenoidal(self, case, grid16):
        for t in (0.3, 1.1):
            _, _, u, _, _ = case.exact_state(t, grid16)
            div = grid16.div(*u.values)
            assert np.abs(div).max() <= 1e-13

    def test_paper_variant_is_not_solenoidal(self, paper_case, grid16):
        _, _, u, _, _ = paper_case.exact_state(0.7, grid16)
        div = grid16.div(*u.values)
        expected = (np.sin(2 * grid16.xx) * np.sin(2 * grid16.yy)
                    * (math.sin(0.7) - math.cos(0.7)))
        assert np.abs(div - expected).max() <= 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            mms.make_case(PhysParams(), "bogus")


class TestAxisEvaluation:
    """_eval runs the closed forms on the 1-D axes and broadcasts to (N, N)."""

    @pytest.mark.parametrize("variant", mms.VARIANTS)
    @pytest.mark.parametrize("n_modes", [8, 64, 128])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
    def test_bitwise_equal_to_meshgrid_evaluation(self, variant, n_modes, t):
        c = mms.make_case(PhysParams(), variant)
        grid = make_grid(n_modes)
        for name, fn in c._fns.items():
            on_mesh = np.broadcast_to(np.asarray(fn(grid.xx, grid.yy, t), dtype=float),
                                      grid.xx.shape)
            assert np.array_equal(c._eval(name, grid, t), on_mesh), name

    def test_constant_and_one_variable_fields_fill_the_grid(self):
        x, y, t = syms = sp.symbols("x y t", real=True)
        const = sp.Float(1.1)
        zero = sp.Integer(0)
        forcing = mms.forcing_expressions(syms, const, const, zero, zero, zero, zero,
                                          PhysParams())
        exprs = dict(zip(("f_p", "f_n", "f_u1", "f_u2"), forcing))
        exprs.update(const=const, in_x=sp.cos(x), in_y=sp.sin(2 * y) * sp.sin(t))
        fns = {name: sp.lambdify(syms, expr, modules="numpy") for name, expr in exprs.items()}
        c = mms.MMSCase(mms.DIVERGENCE_FREE, PhysParams(), fns)
        grid = make_grid(8)
        for name in exprs:
            out = c._eval(name, grid, 0.3)
            assert out.shape == (8, 8) and out.dtype == np.float64, name
            assert out.flags.c_contiguous and out.flags.writeable, name
        assert np.array_equal(c._eval("f_p", grid, 0.3), np.zeros((8, 8)))
        assert np.array_equal(c._eval("const", grid, 0.3), np.full((8, 8), 1.1))
        assert np.array_equal(c._eval("in_x", grid, 0.3),
                              np.broadcast_to(np.cos(grid.x)[:, None], (8, 8)))

    def test_no_evaluator_sees_a_full_grid(self, case):
        shapes = []

        def spy(fn):
            def wrapped(x, y, t):
                shapes.append((np.shape(x), np.shape(y)))
                return fn(x, y, t)
            return wrapped

        spied = mms.MMSCase(case.variant, case.params,
                            {name: spy(fn) for name, fn in case._fns.items()})
        grid = make_grid(16)
        spied.exact_state(0.3, grid)
        spied.ion_sources(0.3, grid)
        spied.momentum_source(0.3, grid)
        spied.initial_state(SchemeConfig(n_modes=16, dt=0.1, t_final=0.3), t=0.3)
        assert all(shape == ((16, 1), (1, 16)) for shape in shapes)
        assert len(shapes) == 15  # initial_state samples each of its 5 fields once


class TestForcing:
    def test_constant_fields_have_zero_forcing(self):
        """Steady electroneutral constants solve the unforced system."""
        syms = sp.symbols("x y t", real=True)
        const = sp.Float(1.1)
        f_p, f_n, f_u1, f_u2 = mms.forcing_expressions(
            syms, const, const, sp.Integer(0), sp.Integer(0), sp.Integer(0),
            sp.Integer(0), PhysParams())
        assert f_p == 0 and f_n == 0 and f_u1 == 0 and f_u2 == 0

    @pytest.mark.parametrize("variant", [mms.DIVERGENCE_FREE, mms.PAPER_EXACT])
    @pytest.mark.parametrize("t", [0.3, 0.8])
    def test_matches_finite_difference_oracle(self, variant, t):
        """Symbolically derived forcing vs 4th-order finite differences."""
        params = PhysParams(epsilon=1.3, kappa=2.0, diffusion=0.8, viscosity=1.2)
        c = mms.make_case(params, variant)
        oracle = FdForcingOracle(params, variant, n_probe=512)
        grid = make_grid(64)

        f_p, f_n = c.ion_sources(t, grid)
        f_u = c.momentum_source(t, grid)
        fd_p = oracle.sample_at(oracle.f_p(t), grid)
        fd_n = oracle.sample_at(oracle.f_n(t), grid)
        fd_ux, fd_uy = (oracle.sample_at(f, grid) for f in oracle.f_u(t))

        for ours, ref in ((f_p, fd_p), (f_n, fd_n), (f_u[0], fd_ux), (f_u[1], fd_uy)):
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(ours - ref).max() <= 1e-7 * scale

    def test_advection_term_split(self, case):
        """f_p minus the u.grad p part equals the transport-free balance."""
        params = PhysParams()
        oracle = FdForcingOracle(params, mms.DIVERGENCE_FREE, n_probe=512)
        grid = make_grid(32)
        t = 0.45
        advect, rest = oracle.ion_parts(t)
        f_p, _ = case.ion_sources(t, grid)
        diff = f_p - oracle.sample_at(advect, grid) - oracle.sample_at(rest, grid)
        assert np.abs(diff).max() <= 1e-7

    def test_sources_have_zero_mean(self, case, grid16):
        for t in (0.1, 0.6):
            f_p, f_n = case.ion_sources(t, grid16)
            assert abs(grid16.integral(f_p)) <= 1e-12
            assert abs(grid16.integral(f_n)) <= 1e-12


class TestOneStepConsistency:
    @pytest.mark.parametrize("t_start", [0.0, 0.3, 0.7])
    def test_halving_dt_quarters_one_step_error(self, case, t_start):
        params = PhysParams()
        errors = []
        for dt in (2e-2, 1e-2):
            cfg = SchemeConfig(n_modes=32, dt=dt, t_final=max(10 * dt, dt))
            state = case.initial_state(cfg, t=t_start)
            new, _ = advance(state, params, cfg, sources=case)
            grid = new.grid
            p_ex, n_ex, u_ex, _, psi_ex = case.exact_state(new.time, grid)
            err = math.sqrt(mms.l2_error(new.p, p_ex) ** 2
                            + mms.l2_error(new.n, n_ex) ** 2
                            + mms.l2_error(new.u, u_ex) ** 2
                            + mms.l2_error(new.psi, psi_ex) ** 2)
            errors.append(err)
        ratio = errors[0] / errors[1]
        assert 3.6 <= ratio <= 4.4


class TestSpatialConvergence:
    def test_refining_n_shrinks_the_error_spectrally(self, case):
        """At dt = 1e-4 the n and u errors are spatial: each N-refinement cuts them >= 4x.

        p and psi sit at the dt floor (~7e-7 and ~1e-6) on every grid, so
        they are not refined here.
        """
        params = PhysParams()
        dt = 1e-4
        errors = []
        for n_modes in (16, 24, 32):
            cfg = SchemeConfig(n_modes=n_modes, dt=dt, t_final=5 * dt, newton_tol=1e-12)
            state = case.initial_state(cfg, t=0.3)
            for _ in range(5):
                state, _ = advance(state, params, cfg, sources=case)
            _, n_ex, u_ex, _, _ = case.exact_state(state.time, state.grid)
            errors.append((mms.l2_error(state.n, n_ex), mms.l2_error(state.u, u_ex)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse[0] >= 4.0 * fine[0]
            assert coarse[1] >= 4.0 * fine[1]


class TestL2Error:
    def test_identical_fields(self, grid16):
        f = Field(grid16, np.sin(3 * grid16.xx))
        assert mms.l2_error(f, Field(grid16, f.values.copy())) == 0.0

    def test_single_harmonic_difference(self, grid16):
        f = Field(grid16, np.cos(grid16.xx))
        zero = Field(grid16, np.zeros((16, 16)))
        assert mms.l2_error(f, zero) == pytest.approx(math.sqrt(2.0 * np.pi**2),
                                                      rel=1e-13)

    def test_constant_difference(self, grid16):
        c = 0.37
        f = Field(grid16, np.full((16, 16), c))
        zero = Field(grid16, np.zeros((16, 16)))
        assert mms.l2_error(f, zero) == pytest.approx(c * TWO_PI, rel=1e-13)

    def test_vector_fields(self, grid16):
        u = Field(grid16, np.stack((np.cos(grid16.xx), np.cos(grid16.xx))))
        zero = Field(grid16, np.zeros((2, 16, 16)))
        assert mms.l2_error(u, zero) == pytest.approx(math.sqrt(4.0 * np.pi**2),
                                                      rel=1e-13)


STUDY_CFG = SchemeConfig(n_modes=16, dt=0.02, t_final=0.06)


class TestConvergenceStudy:
    def test_single_dt_row(self):
        rows = mms.convergence_study([0.02], STUDY_CFG, PhysParams())
        assert len(rows) == 1
        assert rows[0].order_p is None
        assert rows[0].err_p > 0

    def test_two_dts_give_one_order(self):
        rows = mms.convergence_study([0.02, 0.01], STUDY_CFG, PhysParams())
        assert len(rows) == 2
        assert rows[0].order_p is None
        assert rows[1].order_p is not None
        assert 0.5 <= rows[1].order_p <= 1.5

    def test_rejects_non_divisible_dt(self):
        with pytest.raises(ConfigError):
            mms.convergence_study([0.021], SchemeConfig(n_modes=16, dt=0.01, t_final=0.05),
                                  PhysParams())

    def test_rejects_non_decreasing_list(self):
        with pytest.raises(ConfigError):
            mms.convergence_study([0.01, 0.02], STUDY_CFG, PhysParams())

    def test_parallel_matches_serial(self):
        kwargs = dict(cfg=STUDY_CFG, params=PhysParams())
        serial = mms.convergence_study([0.02, 0.01], **kwargs)
        parallel = mms.convergence_study([0.02, 0.01], max_workers=2, **kwargs)
        for a, b in zip(serial, parallel):
            assert a.err_p == b.err_p
            assert a.err_u == b.err_u

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("PNPNS_THREADS", "3")
        assert mms.default_thread_count() == 3
        monkeypatch.setenv("PNPNS_THREADS", "junk")
        with pytest.raises(ConfigError):
            mms.default_thread_count()
