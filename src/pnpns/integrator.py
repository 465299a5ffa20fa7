"""Time marching: initialization, one-step orchestration, full runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .errors import (
    ConfigError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from .ns import ion_forcing, project_velocity, velocity_step
from .pnp import compute_psi, solve_step1
from .spectral import Field, Grid, make_grid
from .state import (
    PhysParams,
    SchemeConfig,
    SimState,
    StepDiagnostics,
    mass,
    total_energy,
)


class ForcingTerms(Protocol):
    """External sources for manufactured-solution runs, at time t on the grid.

    ion_sources returns the stacked (2, N, N) sources of the p and n
    equations, momentum_source the (2, N, N) source of the momentum
    equation, (x, y) components on axis 0.
    """

    def ion_sources(self, t: float, grid: Grid) -> np.ndarray: ...

    def momentum_source(self, t: float, grid: Grid) -> np.ndarray: ...


@dataclass
class RunRecord:
    """Everything a finished run leaves behind."""

    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    snapshots: list[tuple[float, Path]] = field(default_factory=list)
    final_state: SimState | None = None


def _sample(value, grid: Grid) -> np.ndarray:
    return np.asarray(value(grid.xx, grid.yy) if callable(value) else value, dtype=float)


def initialize(p_in, n_in, u_in, params: PhysParams, cfg: SchemeConfig,
               phi_in=None) -> SimState:
    """Build a consistent discrete state from initial data.

    Accepts (N, N) arrays or callables f(x, y) for the concentrations and
    phi, and a pair of them (or None for rest) for the velocity's x and y
    components. The velocity is projected onto the divergence-free space;
    psi is derived, which rejects a net charge (NetChargeError); phi
    defaults to zero and is shifted to zero mean.
    """
    grid = make_grid(cfg.n_modes)
    p = Field(grid, _sample(p_in, grid))
    n = Field(grid, _sample(n_in, grid))
    if p.values.min() <= 0.0 or n.values.min() <= 0.0:
        raise NonPositiveConcentrationError("initial concentrations must be positive")

    zero = np.zeros((grid.n_modes, grid.n_modes))
    # checked as given, so a wrong shape is a GridMismatchError, not a broadcast error
    u = Field(grid, np.stack((zero, zero) if u_in is None
                             else [_sample(comp, grid) for comp in u_in]))
    # the Leray projection: the pressure correction at dt = 1, its increment dropped
    u = Field(grid, project_velocity(grid, u.values, zero, 1.0)[0])

    psi = Field(grid, compute_psi(grid, p.values, n.values, params.epsilon))

    phi = zero if phi_in is None else _sample(phi_in, grid)
    phi = Field(grid, phi - phi.mean())

    return SimState(p=p, n=n, psi=psi, u=u, phi=phi, step_index=0, time=0.0)


def advance(state: SimState, params: PhysParams, cfg: SchemeConfig,
            sources: ForcingTerms | None = None) -> tuple[SimState, StepDiagnostics]:
    """One full scheme step: ion transport, then fluid solve and projection.

    Manufactured-solution sources are evaluated at the new time level and
    added to the implicit sides of the respective equations.
    """
    grid = state.grid
    dt = cfg.dt
    t_new = (state.step_index + 1) * dt

    ion_src = None
    momentum_src = None
    if sources is not None:
        ion_src = sources.ion_sources(t_new, grid)
        momentum_src = sources.momentum_source(t_new, grid)

    try:
        step1 = solve_step1(state, params, dt, cfg, sources=ion_src)
        forcing = ion_forcing(grid, (state.p.values, state.n.values), step1.mu, params.kappa)
        vel = velocity_step(grid, state.u.values, state.phi.values, forcing, momentum_src,
                            params, dt, cfg)
    except NoConvergenceError as exc:
        raise NoConvergenceError(
            f"step {state.step_index + 1} (t={t_new:g}) failed: {exc.bare_message}",
            exc.iterations, exc.residual) from exc

    # the one place a step wraps its arrays into containers
    new_state = SimState(
        p=Field(grid, step1.c[0]), n=Field(grid, step1.c[1]), psi=Field(grid, step1.psi),
        u=Field(grid, vel.u_new), phi=Field(grid, vel.phi_new),
        step_index=state.step_index + 1, time=t_new,
        line_ref=step1.line_ref, line_age=step1.line_age,
    )
    energy = total_energy(new_state, params, dt)
    diag = StepDiagnostics(
        step_index=new_state.step_index,
        time=t_new,
        mass_p=mass(new_state.p),
        mass_n=mass(new_state.n),
        min_p=float(new_state.p.values.min()),
        min_n=float(new_state.n.values.min()),
        max_p=float(new_state.p.values.max()),
        max_n=float(new_state.n.values.max()),
        energy=energy,
        newton_iters=step1.newton_iters,
        krylov_iters_step1=step1.krylov_iters,
        krylov_iters_step1_max=step1.krylov_iters_max,
        krylov_iters_step2=vel.krylov_iters,
        residual_step1=step1.final_residual,
        residual_step2=vel.residual,
    )
    return new_state, diag


def check_schedule(initial: SimState, cfg: SchemeConfig) -> None:
    """Raise ConfigError unless cfg's steps and snapshot times can follow initial.

    Rejected: an initial state whose time is not step_index * dt (a restart
    with another dt), and a snapshot time after the run's end.
    """
    if not math.isclose(initial.time, initial.step_index * cfg.dt, rel_tol=1e-9, abs_tol=0.0):
        raise ConfigError(f"initial state at t={initial.time:g} is not step "
                          f"{initial.step_index} of dt={cfg.dt:g}; a restart keeps its dt")
    t_end = (initial.step_index + cfg.n_steps) * cfg.dt
    last = max(cfg.snapshot_times, default=-math.inf)
    if last - 1e-12 > t_end:
        raise ConfigError(f"snapshot time {last:g} is after the run's end t={t_end:g}")


def run(initial: SimState, params: PhysParams, cfg: SchemeConfig,
        sources: ForcingTerms | None = None,
        on_step: Callable[[StepDiagnostics], None] | None = None,
        snapshot_writer: Callable[[SimState], Path] | None = None) -> RunRecord:
    """March the scheme from the initial state to t_final.

    Snapshots are taken at the first step whose time reaches each requested
    snapshot time (no interpolation); the writer callback owns the file
    format. Per-step diagnostics stream through on_step and are collected in
    the returned record. Deterministic: identical inputs give identical
    results. The schedule is checked before the first step (check_schedule).
    """
    pending = sorted(cfg.snapshot_times)
    if pending and snapshot_writer is None:
        raise ConfigError("snapshot_times given but no snapshot writer supplied")
    check_schedule(initial, cfg)

    record = RunRecord()
    state = initial
    while pending and pending[0] <= state.time:
        record.snapshots.append((pending.pop(0), snapshot_writer(state)))

    for _ in range(cfg.n_steps):
        state, diag = advance(state, params, cfg, sources)
        record.diagnostics.append(diag)
        if on_step is not None:
            on_step(diag)
        while pending and state.time >= pending[0] - 1e-12:
            record.snapshots.append((pending.pop(0), snapshot_writer(state)))
    record.final_state = state
    return record
