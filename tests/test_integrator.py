"""Initialization, single steps, full runs, determinism."""

import dataclasses

import numpy as np
import pytest

from pnpns import mms
from pnpns.config import blob_concentration
from pnpns.errors import ConfigError, NetChargeError, NonPositiveConcentrationError
from pnpns.integrator import advance, initialize, run
from pnpns.pnp import Step1System
from pnpns.spectral import vector_norm
from pnpns.state import PhysParams, SchemeConfig, mass, total_energy

TWO_PI = 2.0 * np.pi


def uniform_cfg(n=16, dt=0.05, steps=3):
    return SchemeConfig(n_modes=n, dt=dt, t_final=steps * dt)


class TestInitialize:
    def test_uniform_rest(self):
        cfg = uniform_cfg()
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, PhysParams(), cfg)
        assert np.abs(state.psi.values).max() <= 1e-14
        _, mu = Step1System(state, PhysParams(), cfg.dt).potentials(
            np.stack((state.p.values, state.n.values)))
        assert np.abs(mu[0]).max() <= 1e-14
        assert np.abs(mu[1]).max() <= 1e-14
        assert vector_norm(state.u) == 0.0
        assert np.abs(state.phi.values).max() == 0.0

    def test_blob_preset(self):
        cfg = SchemeConfig(n_modes=64, dt=1e-4, t_final=1e-4)
        params = PhysParams(epsilon=1.0, kappa=10000.0)
        state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                           blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                           None, params, cfg)
        assert state.p.values.min() > 0
        assert state.n.values.min() > 0
        assert abs(mass(state.p) - mass(state.n)) <= 1e-8 * mass(state.p)
        assert state.p.values.max() == pytest.approx(
            1 + 1e-6 + np.tanh(2 * (0.2 * np.pi) ** 2), abs=1e-2)

    def test_mms_exact_fields(self):
        cfg = uniform_cfg(n=32)
        params = PhysParams()
        case = mms.make_case(params)
        state = case.initial_state(cfg)
        grid = state.grid
        p, n, u, _, psi = case.exact_state(0.0, grid)
        assert np.abs(state.p.values - p.values).max() <= 1e-13
        assert np.abs(state.n.values - n.values).max() <= 1e-13
        assert np.abs(state.psi.values - psi.values).max() <= 1e-12
        assert mms.l2_error(state.u, u) <= 1e-12

    def test_velocity_gets_projected(self, rng):
        cfg = uniform_cfg()
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           (rng.standard_normal((16, 16)), rng.standard_normal((16, 16))),
                           PhysParams(), cfg)
        grid = state.grid
        div_norm = grid.norm(grid.div(state.u.x_comp.values, state.u.y_comp.values))
        assert div_norm <= 1e-11 * max(1.0, vector_norm(state.u))

    def test_rejects_net_charge(self):
        cfg = uniform_cfg()
        with pytest.raises(NetChargeError):
            initialize(lambda x, y: 1.0 + np.zeros_like(x),
                       lambda x, y: 1.5 + np.zeros_like(x),
                       None, PhysParams(), cfg)

    def test_rejects_small_net_charge(self):
        # net/mass = 1e-9: above the potential equation's 1e-10 of the ion masses
        cfg = uniform_cfg()
        with pytest.raises(NetChargeError):
            initialize(lambda x, y: np.full_like(x, 1.0 + 1e-9),
                       lambda x, y: np.ones_like(x), None, PhysParams(), cfg)

    def test_rejects_nonpositive(self):
        cfg = uniform_cfg()
        with pytest.raises(NonPositiveConcentrationError):
            initialize(lambda x, y: np.cos(x), lambda x, y: np.cos(x),
                       None, PhysParams(), cfg)


class TestAdvance:
    def test_uniform_rest_is_steady(self):
        cfg = uniform_cfg(dt=0.1)
        params = PhysParams()
        state = initialize(lambda x, y: np.full_like(x, 1.3),
                           lambda x, y: np.full_like(x, 1.3), None, params, cfg)
        new, diag = advance(state, params, cfg)
        assert np.abs(new.p.values - state.p.values).max() <= 1e-12
        assert np.abs(new.n.values - state.n.values).max() <= 1e-12
        assert vector_norm(new.u) <= 1e-12
        assert diag.newton_iters == 0

    def test_blob_step_dissipates_energy(self):
        params = PhysParams(epsilon=1.0, kappa=10000.0)
        cfg = SchemeConfig(n_modes=64, dt=1e-4, t_final=1e-4)
        state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                           blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                           None, params, cfg)
        e0 = total_energy(state, params, cfg.dt)
        new, diag = advance(state, params, cfg)
        assert diag.energy.total <= e0.total + 1e-10 * abs(e0.total)
        assert diag.min_p > 0 and diag.min_n > 0

    def test_divergence_free_after_step(self, rng):
        params = PhysParams()
        cfg = uniform_cfg(n=16, dt=0.02)
        case = mms.make_case(params)
        state = case.initial_state(cfg, t=0.4)
        new, _ = advance(state, params, cfg, sources=case)
        grid = new.grid
        div_norm = grid.norm(grid.div(new.u.x_comp.values, new.u.y_comp.values))
        assert div_norm <= 1e-11 * max(1.0, vector_norm(new.u))


class TestRun:
    def test_trivial_run_rows(self):
        params = PhysParams()
        cfg = uniform_cfg(steps=3)
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, params, cfg)
        record = run(state, params, cfg)
        assert len(record.diagnostics) == 3
        first = record.diagnostics[0]
        for diag in record.diagnostics[1:]:
            assert diag.mass_p == pytest.approx(first.mass_p, rel=1e-14)
            assert diag.energy.total == pytest.approx(first.energy.total, rel=1e-13)

    def test_mass_conservation_over_run(self):
        params = PhysParams()
        cfg = uniform_cfg(n=16, dt=0.02, steps=10)
        case = mms.make_case(params)
        state = case.initial_state(cfg)
        record = run(state, params, cfg, sources=case)
        m0 = mass(state.p)
        for diag in record.diagnostics:
            assert abs(diag.mass_p - m0) <= 1e-11 * m0

    def test_energy_monotone_for_unforced_run(self, rng):
        params = PhysParams(kappa=50.0)
        cfg = uniform_cfg(n=16, dt=0.05, steps=10)
        state = initialize(
            lambda x, y: 1.0 + 0.5 * np.cos(x) * np.cos(y),
            lambda x, y: 1.0 - 0.5 * np.cos(x) * np.cos(y),
            None, params, cfg)
        record = run(state, params, cfg)
        energies = [total_energy(state, params, cfg.dt).total]
        energies += [d.energy.total for d in record.diagnostics]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-10 * abs(before)

    def test_rejects_non_divisible_horizon(self):
        with pytest.raises(ValueError):
            SchemeConfig(n_modes=16, dt=0.03, t_final=0.1)

    def test_snapshot_schedule(self, tmp_path):
        params = PhysParams()
        cfg = SchemeConfig(n_modes=16, dt=0.05, t_final=0.25,
                           snapshot_times=(0.08, 0.2))
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, params, cfg)
        taken = []

        def writer(s):
            taken.append(s.time)
            return tmp_path / f"snap_{len(taken)}.bin"

        record = run(state, params, cfg, snapshot_writer=writer)
        # first step whose time reaches the requested times 0.08 -> 0.10, 0.2 -> 0.20
        assert taken == [pytest.approx(0.10), pytest.approx(0.20)]
        assert [t for t, _ in record.snapshots] == [0.08, 0.2]

    def test_snapshot_time_after_end_rejected(self, tmp_path):
        params = PhysParams()
        cfg = SchemeConfig(n_modes=16, dt=0.05, t_final=0.1, snapshot_times=(0.05, 0.5))
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, params, cfg)
        taken = []

        def writer(s):
            taken.append(s.time)
            return tmp_path / "snap.bin"

        with pytest.raises(ConfigError, match="snapshot time 0.5"):
            run(state, params, cfg, snapshot_writer=writer)
        assert taken == []

    def test_restart_keeps_dt(self):
        # a state written after 5 steps of dt = 0.02 continues at 0.12 with that
        # dt; with dt = 0.01 its next step would be stamped t = 0.06
        params = PhysParams()
        cfg = uniform_cfg(dt=0.02, steps=1)
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, params, cfg)
        restart = dataclasses.replace(state, step_index=5, time=0.1)
        assert run(restart, params, cfg).final_state.time == pytest.approx(0.12)
        with pytest.raises(ConfigError, match="dt=0.01"):
            run(restart, params, uniform_cfg(dt=0.01, steps=2))

    def test_snapshot_times_require_writer(self):
        params = PhysParams()
        cfg = SchemeConfig(n_modes=16, dt=0.05, t_final=0.1, snapshot_times=(0.05,))
        state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                           None, params, cfg)
        with pytest.raises(ConfigError):
            run(state, params, cfg)

    def test_bitwise_determinism(self):
        params = PhysParams()
        cfg = uniform_cfg(n=16, dt=0.02, steps=5)
        case = mms.make_case(params)

        def final_state():
            state = case.initial_state(cfg)
            return run(state, params, cfg, sources=case).final_state

        a = final_state()
        b = final_state()
        for field in ("p", "n", "psi", "phi"):
            assert np.array_equal(getattr(a, field).values, getattr(b, field).values)
        assert np.array_equal(a.u.x_comp.values, b.u.x_comp.values)
        assert np.array_equal(a.u.y_comp.values, b.u.y_comp.values)
