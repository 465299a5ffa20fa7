"""Parameters, configuration, energy breakdown, mass."""

import numpy as np
import pytest

from pnpns.errors import NonPositiveConcentrationError
from pnpns.spectral import ScalarField, VectorField
from pnpns.state import (
    EnergyBreakdown,
    PhysParams,
    SchemeConfig,
    SimState,
    mass,
    total_energy,
)

from conftest import admissible_state, band_limited

TWO_PI = 2.0 * np.pi


def make_rest_state(grid, p_value=1.0, n_value=None):
    n_value = p_value if n_value is None else n_value
    p = ScalarField.constant(grid, p_value)
    n = ScalarField.constant(grid, n_value)
    zero = ScalarField.constant(grid, 0.0)
    u = VectorField.zero(grid)
    return SimState(p=p, n=n, psi=zero, u=u, phi=zero.copy())


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
        state = make_rest_state(grid16, 1.0)
        for kappa in (1.0, 3.0):
            e = total_energy(state, PhysParams(kappa=kappa), dt=0.1)
            assert e.entropy_p == pytest.approx(-TWO_PI**2, rel=1e-13)
            assert e.entropy_n == pytest.approx(-TWO_PI**2, rel=1e-13)
            assert e.field == pytest.approx(0.0, abs=1e-13)
            assert e.kinetic == 0.0
            assert e.pressure_aug == 0.0
            assert e.total == pytest.approx(-2.0 * kappa * TWO_PI**2, rel=1e-13)

    def test_entropy_vanishes_at_e(self, grid16):
        state = make_rest_state(grid16, np.e)
        e = total_energy(state, PhysParams(), dt=0.1)
        assert abs(e.entropy_p) <= 1e-12

    def test_rejects_nonpositive_concentration(self, grid16):
        state = make_rest_state(grid16, 1.0)
        state.p.values[0, 0] = -1e-3
        with pytest.raises(NonPositiveConcentrationError):
            total_energy(state, PhysParams(), dt=0.1)

    def test_total_matches_weighted_parts(self, grid16, rng):
        state = admissible_state(grid16, rng)
        params = PhysParams(kappa=7.5, epsilon=2.0)
        e = total_energy(state, params, dt=0.05)
        assert e.total == pytest.approx(e.recompute_total(params.kappa), rel=1e-13)

    def test_field_term_scales_with_epsilon(self, grid16, rng):
        state = admissible_state(grid16, rng)
        e1 = total_energy(state, PhysParams(epsilon=1.0), dt=0.1)
        e2 = total_energy(state, PhysParams(epsilon=2.0), dt=0.1)
        assert e2.field == pytest.approx(2.0 * e1.field, rel=1e-12)


class TestMass:
    def test_constant(self, grid16):
        assert mass(ScalarField.constant(grid16, 1.0)) == pytest.approx(
            TWO_PI**2, rel=1e-14)

    def test_zero_mean_harmonic(self, grid16):
        f = ScalarField.from_function(grid16, lambda x, y: np.cos(x) * np.cos(y))
        assert abs(mass(f)) <= 1e-13

    def test_uniform_background(self, grid16):
        f = ScalarField.constant(grid16, 1.1)
        assert mass(f) == pytest.approx(1.1 * TWO_PI**2, rel=1e-14)

    def test_linearity(self, grid16, rng):
        f = ScalarField(grid16, band_limited(grid16, rng))
        g = ScalarField(grid16, band_limited(grid16, rng))
        combo = ScalarField(grid16, 2.5 * f.values - 0.75 * g.values)
        assert mass(combo) == pytest.approx(
            2.5 * mass(f) - 0.75 * mass(g), rel=1e-12, abs=1e-12)
