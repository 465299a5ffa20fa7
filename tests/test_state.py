"""Parameters, configuration, energy breakdown, mass."""

import dataclasses

import numpy as np
import pytest

from pnpns.config import blob_concentration
from pnpns.errors import NonPositiveConcentrationError
from pnpns.integrator import advance, initialize
from pnpns.spectral import Field
from pnpns.state import (
    EnergyBreakdown,
    PhysParams,
    SchemeConfig,
    SimState,
    mass,
    total_energy,
)

from conftest import admissible_state, band_limited, rest_state

TWO_PI = 2.0 * np.pi


class TestParams:
    @pytest.mark.parametrize("field", ["epsilon", "kappa", "diffusion", "viscosity"])
    def test_positivity_required(self, field):
        with pytest.raises(ValueError):
            PhysParams(**{field: 0.0})
        with pytest.raises(ValueError):
            PhysParams(**{field: -1.0})

    def test_defaults_are_unit(self):
        p = PhysParams()
        assert (p.epsilon, p.kappa, p.diffusion, p.viscosity) == (1, 1, 1, 1)


class TestSchemeConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SchemeConfig(n_modes=16, dt=0.0, t_final=1.0)
        with pytest.raises(ValueError):
            SchemeConfig(n_modes=16, dt=-0.1, t_final=1.0)

    def test_rejects_t_final_below_dt(self):
        with pytest.raises(ValueError):
            SchemeConfig(n_modes=16, dt=0.5, t_final=0.1)

    def test_rejects_odd_grid(self):
        with pytest.raises(ValueError):
            SchemeConfig(n_modes=15, dt=0.1, t_final=1.0)

    def test_step_count(self):
        cfg = SchemeConfig(n_modes=16, dt=0.1, t_final=1.0)
        assert cfg.n_steps == 10


class TestEnergy:
    def test_uniform_unit_state(self, grid16):
        state = rest_state(grid16, 1.0)
        for kappa in (1.0, 3.0):
            e = total_energy(state, PhysParams(kappa=kappa), dt=0.1)
            assert e.entropy_p == pytest.approx(-TWO_PI**2, rel=1e-13)
            assert e.entropy_n == pytest.approx(-TWO_PI**2, rel=1e-13)
            assert e.field == pytest.approx(0.0, abs=1e-13)
            assert e.kinetic == 0.0
            assert e.pressure_aug == 0.0
            assert e.total == pytest.approx(-2.0 * kappa * TWO_PI**2, rel=1e-13)

    def test_entropy_vanishes_at_e(self, grid16):
        state = rest_state(grid16, np.e)
        e = total_energy(state, PhysParams(), dt=0.1)
        assert abs(e.entropy_p) <= 1e-12

    def test_rejects_nonpositive_concentration(self, grid16):
        state = rest_state(grid16, 1.0)
        state.p.values[0, 0] = -1e-3
        with pytest.raises(NonPositiveConcentrationError):
            total_energy(state, PhysParams(), dt=0.1)

    def test_total_matches_weighted_parts(self, grid16, rng):
        state = admissible_state(grid16, rng)
        params = PhysParams(kappa=7.5, epsilon=2.0)
        e = total_energy(state, params, dt=0.05)
        parts = (params.kappa * (e.entropy_p + e.entropy_n + e.field)
                 + e.kinetic + e.pressure_aug)
        assert e.total == pytest.approx(parts, rel=1e-13)

    def test_field_term_scales_with_epsilon(self, grid16, rng):
        state = admissible_state(grid16, rng)
        e1 = total_energy(state, PhysParams(epsilon=1.0), dt=0.1)
        e2 = total_energy(state, PhysParams(epsilon=2.0), dt=0.1)
        assert e2.field == pytest.approx(2.0 * e1.field, rel=1e-12)


class TestMass:
    def test_constant(self, grid16):
        assert mass(Field(grid16, np.ones((16, 16)))) == pytest.approx(
            TWO_PI**2, rel=1e-14)

    def test_zero_mean_harmonic(self, grid16):
        f = Field(grid16, np.cos(grid16.xx) * np.cos(grid16.yy))
        assert abs(mass(f)) <= 1e-13

    def test_uniform_background(self, grid16):
        f = Field(grid16, np.full((16, 16), 1.1))
        assert mass(f) == pytest.approx(1.1 * TWO_PI**2, rel=1e-14)

    def test_linearity(self, grid16, rng):
        f = Field(grid16, band_limited(grid16, rng))
        g = Field(grid16, band_limited(grid16, rng))
        combo = Field(grid16, 2.5 * f.values - 0.75 * g.values)
        assert mass(combo) == pytest.approx(
            2.5 * mass(f) - 0.75 * mass(g), rel=1e-12, abs=1e-12)


class TestSimState:
    def test_every_field_is_compared_whole(self):
        """Each field is a Field, None, an int or a float, on a line-path state after a step.

        perfbench's determinism and snapshot-restart checks (fields_bytes)
        compare a value with .values by its bytes and anything else by its
        repr, which numpy shortens for a bare array of 1000 elements or more.
        """
        params = PhysParams(epsilon=1.0, kappa=1e4)
        cfg = SchemeConfig(n_modes=32, dt=1e-4, t_final=1e-4)
        state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                           blob_concentration(1.2 * np.pi, 1.2 * np.pi), None, params, cfg)
        state, _ = advance(state, params, cfg)
        assert state.line_ref is not None  # the line path
        for field in dataclasses.fields(SimState):
            value = getattr(state, field.name)
            assert value is None or isinstance(value, (Field, int, float)), field.name
        assert state.u.values.shape == state.line_ref.values.shape == (2, 32, 32)
