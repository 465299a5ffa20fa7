"""Initialization, single steps, full runs, determinism."""

import dataclasses
import struct
import weakref

import numpy as np
import pytest

from pnpns import integrator, mms, ns, pnp
from pnpns.config import blob_concentration
from pnpns.errors import (
    ConfigError,
    GridMismatchError,
    NetChargeError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from pnpns.integrator import advance, initialize, run
from pnpns.pnp import Step1System
from pnpns.snapshot import read_snapshot, write_snapshot
from pnpns.spectral import Field
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
        assert np.abs(state.u.values).max() == 0.0
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
        u = state.u.values
        assert grid.norm(grid.div(*u)) <= 1e-11 * max(1.0, grid.norm(u))

    @pytest.mark.parametrize("shape", [(8, 8), (16,)])
    def test_rejects_velocity_on_another_grid(self, shape):
        with pytest.raises(GridMismatchError):
            initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                       (np.zeros(shape), np.zeros(shape)), PhysParams(), uniform_cfg())

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
        assert new.grid.norm(new.u.values) <= 1e-12
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
        u = new.u.values
        assert grid.norm(grid.div(*u)) <= 1e-11 * max(1.0, grid.norm(u))


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
        for field in ("p", "n", "psi", "u", "phi"):
            assert np.array_equal(getattr(a, field).values, getattr(b, field).values)


def blob_run(n_modes, steps):
    """(initial state, params, cfg) of the two-blob experiment (preset blobs_5_2)."""
    params = PhysParams(epsilon=1.0, kappa=1e4)
    cfg = SchemeConfig(n_modes=n_modes, dt=1e-4, t_final=steps * 1e-4)
    state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                       blob_concentration(1.2 * np.pi, 1.2 * np.pi), None, params, cfg)
    return state, params, cfg


def assert_same_state(a, b):
    for name in ("p", "n", "psi", "u", "phi"):
        assert np.array_equal(getattr(a, name).values, getattr(b, name).values)
    assert (a.step_index, a.time, a.line_age) == (b.step_index, b.time, b.line_age)
    assert (a.line_ref is None) == (b.line_ref is None)
    if a.line_ref is not None:
        assert np.array_equal(a.line_ref.values, b.line_ref.values)


@pytest.fixture
def builds(monkeypatch):
    """Counts LinePreconditioner constructions, from an empty factor slot.

    "most_alive" is the largest number of other LinePreconditioners alive
    when one is constructed.
    """
    monkeypatch.setattr(pnp, "_line_slot", None)
    counter = {"calls": 0, "most_alive": 0}
    alive = weakref.WeakSet()
    init = pnp.LinePreconditioner.__init__

    def counted(self, *args):
        counter["calls"] += 1
        counter["most_alive"] = max(counter["most_alive"], len(alive))
        init(self, *args)
        alive.add(self)

    monkeypatch.setattr(pnp.LinePreconditioner, "__init__", counted)
    return counter


class TestLineFactorReuse:
    def test_restart_mid_period_is_bitwise(self, tmp_path):
        period = pnp.LINE_REBUILD_PERIOD
        state, params, cfg = blob_run(32, steps=period + 2)
        straight = run(state, params, cfg).final_state

        head = run(state, params, blob_run(32, steps=2)[2]).final_state
        path = write_snapshot(head, params, tmp_path / "snap.bin")
        reloaded = read_snapshot(path)
        assert reloaded.line_age == head.line_age == 2  # mid-period
        assert reloaded.line_ref is not head.line_ref
        assert_same_state(reloaded, head)
        resumed = run(reloaded, params, blob_run(32, steps=period)[2]).final_state
        assert_same_state(resumed, straight)

    def test_factors_are_built_once_per_period(self, builds):
        period = pnp.LINE_REBUILD_PERIOD
        state, params, cfg = blob_run(32, steps=period + 1)
        ages, refs, calls = [], [], []
        for _ in range(period + 1):
            state, _ = advance(state, params, cfg)
            ages.append(state.line_age)
            refs.append(state.line_ref)
            calls.append(builds["calls"])
        assert calls[2] == 2  # a 3-step run: one per species, not one per species and step
        assert calls[-2:] == [2, 4]
        assert ages == [*range(1, period + 1), 1]
        assert all(ref is refs[0] for ref in refs[:period])
        assert refs[-1] is not refs[0]

    def test_slot_contents_do_not_change_the_step(self, builds):
        initial, params, cfg = blob_run(32, steps=2)
        state = run(initial, params, cfg).final_state
        built = builds["calls"]
        warm, _ = advance(state, params, cfg)
        assert builds["calls"] == built  # a hit

        pnp._line_slot = None  # the fixture puts the slot back afterwards
        cleared, _ = advance(state, params, cfg)
        assert builds["calls"] == built + 2

        advance(initial, params, cfg)  # the slot now holds another reference's factors
        replaced, _ = advance(state, params, cfg)
        assert builds["calls"] == built + 6
        assert builds["most_alive"] == 1  # the old set goes before the new one is built
        assert_same_state(cleared, warm)
        assert_same_state(replaced, warm)

    def test_version_1_snapshot_rebuilds_on_its_first_step(self, builds, tmp_path):
        initial, params, cfg = blob_run(32, steps=2)
        state = run(initial, params, cfg).final_state
        old = dataclasses.replace(state, line_ref=None, line_age=0)
        path = write_snapshot(old, params, tmp_path / "v1.bin")
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 1)  # the version-1 header of the same layout
        path.write_bytes(bytes(raw))

        loaded = read_snapshot(path)
        assert loaded.line_ref is None and loaded.line_age == 0
        built = builds["calls"]
        after, _ = advance(loaded, params, cfg)
        assert builds["calls"] == built + 2
        assert after.line_age == 1
        assert np.array_equal(after.line_ref.values, np.stack((loaded.p.values, loaded.n.values)))

    def test_spectral_step_drops_the_reference(self):
        params = PhysParams()
        cfg = uniform_cfg(n=16, dt=0.02, steps=1)
        case = mms.make_case(params)
        blob, *_ = blob_run(16, steps=1)
        state = dataclasses.replace(case.initial_state(cfg), line_ref=Field(
            blob.grid, np.stack((blob.p.values, blob.n.values))), line_age=2)
        after, _ = advance(state, params, cfg, sources=case)
        assert after.line_ref is None and after.line_age == 0


class NanSource:
    """An MMS case whose ion or momentum source holds one NaN cell."""

    def __init__(self, case, poisoned: str):
        self.case = case
        self.poisoned = poisoned

    def ion_sources(self, t, grid):
        return self._poison("ion_sources", t, grid)

    def momentum_source(self, t, grid):
        return self._poison("momentum_source", t, grid)

    def _poison(self, name, t, grid):
        out = getattr(self.case, name)(t, grid)
        if name == self.poisoned:
            out[0, 3, 5] = np.nan
        return out


class TestNonFiniteSources:
    @staticmethod
    def mms_step():
        params = PhysParams()
        cfg = uniform_cfg(n=16, dt=0.02, steps=1)
        case = mms.make_case(params)
        return case.initial_state(cfg), params, cfg, case

    def test_nan_ion_source_is_no_convergence(self):
        state, params, cfg, case = self.mms_step()
        with pytest.raises(NoConvergenceError, match="residual is not finite") as failure:
            advance(state, params, cfg, sources=NanSource(case, "ion_sources"))
        assert failure.value.iterations == 0

    def test_nan_momentum_source_is_no_convergence(self):
        state, params, cfg, case = self.mms_step()
        with pytest.raises(NoConvergenceError,
                           match="velocity right-hand side is not finite") as failure:
            advance(state, params, cfg, sources=NanSource(case, "momentum_source"))
        assert failure.value.iterations == 0


#: the module attributes through which perfbench/tracing.py times each layer,
#: besides pnp.gmres: a layer reached through them is traced, one called by a
#: reference held elsewhere would not be
LAYER_BOUNDARIES = (
    (integrator, "advance"),
    (integrator, "solve_step1"),
    (integrator, "ion_forcing"),
    (integrator, "velocity_step"),
    (integrator, "total_energy"),
    (ns, "project_velocity"),
    (mms.MMSCase, "ion_sources"),
    (mms.MMSCase, "momentum_source"),
)


def count_boundary_calls(monkeypatch) -> dict:
    """Counting pass-through wrappers at every layer boundary; the calls by name."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in LAYER_BOUNDARIES:
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    gmres = pnp.gmres

    def counting_gmres(*args, **kwargs):
        calls["gmres"] = calls.get("gmres", 0) + 1
        return gmres(*args, callback=lambda _estimate: None, callback_type="pr_norm", **kwargs)

    monkeypatch.setattr(pnp, "gmres", counting_gmres)
    return calls


class TestLayerBoundaries:
    @pytest.mark.parametrize("path", ["spectral", "line"])
    def test_every_boundary_is_called_and_the_step_is_unchanged(self, path, monkeypatch):
        if path == "spectral":
            params = PhysParams()
            cfg = uniform_cfg(n=16, dt=0.02, steps=1)
            case = mms.make_case(params)
            state = case.initial_state(cfg)
        else:
            state, params, cfg = blob_run(32, steps=1)
            case = None
        plain, plain_diag = advance(state, params, cfg, sources=case)

        calls = count_boundary_calls(monkeypatch)
        wrapped, wrapped_diag = integrator.advance(state, params, cfg, sources=case)

        expected = {attr for _, attr in LAYER_BOUNDARIES} | {"gmres"}
        if case is None:
            expected -= {"ion_sources", "momentum_source"}
        assert set(calls) == expected
        assert (wrapped.line_ref is not None) == (path == "line")
        assert_same_state(wrapped, plain)
        assert (dataclasses.replace(wrapped_diag, wall_time_s=0.0)
                == dataclasses.replace(plain_diag, wall_time_s=0.0))
