"""The scheme's three guarantees as properties over random admissible steps.

One step from a random admissible state must conserve both masses, keep
both concentrations strictly positive and not increase the modified
energy, for any grid, time step, coupling and Debye length drawn below. A
typed PnpnsError is the only other acceptable outcome; a non-finite or
non-positive field never is. The random admissible states are smooth, with
a contrast below 2, so their steps take the spectral preconditioner; the
two-blob states over a drawn floor reach the line preconditioner.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnpns.errors import NoConvergenceError, NonZeroMeanError, PnpnsError
from pnpns.integrator import advance, initialize
from pnpns.pnp import compute_psi
from pnpns.spectral import Field, make_grid
from pnpns.state import PhysParams, SchemeConfig, mass, total_energy

from conftest import admissible_state


def start(n_modes, dt, kappa, epsilon, seed):
    """(state, params, cfg) for one step from a random admissible state."""
    params = PhysParams(epsilon=epsilon, kappa=kappa)
    cfg = SchemeConfig(n_modes=n_modes, dt=dt, t_final=dt)
    state = admissible_state(make_grid(n_modes), np.random.default_rng(seed))
    # admissible_state solves for psi at epsilon = 1; the energy needs this epsilon's
    psi = compute_psi(state.grid, state.p.values, state.n.values, epsilon)
    state = dataclasses.replace(state, psi=Field(state.grid, psi))
    return state, params, cfg


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n_modes=st.sampled_from([8, 16, 32]),
       dt=st.floats(1e-5, 1.0),
       kappa=st.floats(1.0, 1e4),
       epsilon=st.floats(1e-2, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_one_step_keeps_mass_positivity_and_energy(n_modes, dt, kappa, epsilon, seed):
    check_one_step(*start(n_modes, dt, kappa, epsilon, seed))


def check_one_step(state, params, cfg):
    """One step keeps mass, positivity and energy, or fails with a typed error."""
    e_before = total_energy(state, params, cfg.dt).total
    try:
        new, diag = advance(state, params, cfg)
    except PnpnsError:
        return
    for before, after in ((state.p, new.p), (state.n, new.n)):
        assert np.isfinite(after.values).all()
        assert abs(mass(after) - mass(before)) <= 1e-10 * mass(before)
        assert after.values.min() > 0.0
    assert diag.energy.total <= e_before + 1e-10 * abs(e_before)


def blob(cx, cy, floor):
    """The blobs_5_2 preset's smoothed disk, on the given floor instead of 1e-6."""
    radius_sq = (0.2 * np.pi) ** 2
    return lambda x, y: 1.0 + floor - np.tanh(2.0 * ((x - cx) ** 2 + (y - cy) ** 2 - radius_sq))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(n_modes=st.sampled_from([16, 32]),
       log_floor=st.floats(-8.0, -2.0),
       dt=st.floats(1e-5, 1e-2),
       kappa=st.floats(1.0, 1e4))
def test_two_blob_step_keeps_mass_positivity_and_energy(n_modes, log_floor, dt, kappa):
    # floors below ~7e-4 put the contrast above pnp.LINE_CONTRAST
    floor = 10.0 ** log_floor
    params = PhysParams(kappa=kappa)
    cfg = SchemeConfig(n_modes=n_modes, dt=dt, t_final=dt)
    state = initialize(blob(0.8 * np.pi, 0.8 * np.pi, floor), blob(1.2 * np.pi, 1.2 * np.pi, floor),
                       None, params, cfg)
    check_one_step(state, params, cfg)


def test_near_neutral_step_is_not_rejected():
    # a large kappa*dt step relaxes the charge p - n to ~3e-4, whose mean (-2e-14)
    # is roundoff of p and n; it used to be judged against the charge's own norm
    state, params, cfg = start(8, 0.475310343795327, 2379.5224814115186, 0.01, 428)
    new, _ = advance(state, params, cfg)
    assert new.p.values.min() > 0.0
    assert abs(mass(new.p) - mass(state.p)) <= 1e-10 * mass(state.p)


@pytest.mark.xfail(raises=NoConvergenceError, strict=True, reason=(
    "the Newton threshold newton_tol * (1 + ||c_old||) is absolute, but the residual "
    "of a large kappa*dt step has a roundoff floor that scales with its initial "
    "size (3.2e4 here): the residual stagnates at 1.7e-9 against a threshold of "
    "1.0e-9 and the line search stalls; 1 of the property's 200 draws ends this way"))
def test_large_kappa_dt_step_reaches_newton_threshold():
    # one of the inputs the property above draws that ends in this error
    state, params, cfg = start(16, 1.0, 9278.61408869127, 0.01, 729)
    new, _ = advance(state, params, cfg)
    assert new.p.values.min() > 0.0


def test_net_charged_state_is_rejected():
    state, params, cfg = start(8, 0.01, 1.0, 0.5, 428)
    charged = dataclasses.replace(state, n=Field(state.grid, 1.001 * state.n.values))
    with pytest.raises(NonZeroMeanError):
        compute_psi(state.grid, charged.p.values, charged.n.values, params.epsilon)
    with pytest.raises(NonZeroMeanError):
        advance(charged, params, cfg)
