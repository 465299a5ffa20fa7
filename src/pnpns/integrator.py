"""Time marching: initialization, one-step orchestration, full runs."""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .errors import (
    ConfigError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from .ns import ion_forcing, velocity_step
from .pnp import compute_psi, solve_step1
from .spectral import Grid, ScalarField, VectorField, make_grid
from .state import (
    PhysParams,
    SchemeConfig,
    SimState,
    StepDiagnostics,
    mass,
    total_energy,
)


class ForcingTerms(Protocol):
    """External sources for manufactured-solution runs."""

    def ion_sources(self, t: float, grid: Grid) -> tuple[ScalarField, ScalarField]: ...

    def momentum_source(self, t: float, grid: Grid) -> VectorField: ...


@dataclass
class RunRecord:
    """Everything a finished run leaves behind."""

    diagnostics: list[StepDiagnostics] = field(default_factory=list)
    snapshots: list[tuple[float, Path]] = field(default_factory=list)
    final_state: SimState | None = None


def _as_scalar_field(value, grid: Grid) -> ScalarField:
    if isinstance(value, ScalarField):
        if value.grid != grid:
            raise ConfigError("initial field grid does not match the run grid")
        return value
    if callable(value):
        return ScalarField.from_function(grid, value)
    return ScalarField(grid, np.asarray(value, dtype=float))


def initialize(p_in, n_in, u_in, params: PhysParams, cfg: SchemeConfig,
               phi_in=None) -> SimState:
    """Build a consistent discrete state from initial data.

    Accepts arrays, ScalarFields or callables f(x, y) for the concentrations,
    and a VectorField / pair of arrays / pair of callables (or None for rest)
    for the velocity. The velocity is projected onto the divergence-free
    space; psi is derived, which rejects a net charge (NetChargeError); phi
    defaults to zero.
    """
    grid = make_grid(cfg.n_modes)
    p = _as_scalar_field(p_in, grid)
    n = _as_scalar_field(n_in, grid)
    if p.values.min() <= 0.0 or n.values.min() <= 0.0:
        raise NonPositiveConcentrationError("initial concentrations must be positive")

    if u_in is None:
        u = VectorField.zero(grid)
    elif isinstance(u_in, VectorField):
        if u_in.grid != grid:
            raise ConfigError("initial velocity grid does not match the run grid")
        u = u_in
    else:
        ux, uy = u_in
        ux = grid.sample(ux) if callable(ux) else np.asarray(ux, dtype=float)
        uy = grid.sample(uy) if callable(uy) else np.asarray(uy, dtype=float)
        u = VectorField.from_arrays(grid, ux, uy)
    px, py = grid.project_div_free(u.x_comp.values, u.y_comp.values)
    u = VectorField.from_arrays(grid, px, py)

    psi = compute_psi(p, n, params.epsilon)

    if phi_in is None:
        phi = ScalarField.constant(grid, 0.0)
    else:
        phi = _as_scalar_field(phi_in, grid)
        phi = ScalarField(grid, phi.values - phi.values.mean())

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
    started = _time.perf_counter()

    ion_src = None
    momentum_src = None
    if sources is not None:
        ion_src = sources.ion_sources(t_new, grid)
        momentum_src = sources.momentum_source(t_new, grid)

    try:
        step1 = solve_step1(state, params, dt, cfg, sources=ion_src)
        forcing = ion_forcing(state.p, state.n, step1.mu_new, step1.nu_new, params.kappa)
        vel = velocity_step(state.u, state.phi, forcing, momentum_src,
                            params, dt, cfg)
    except NoConvergenceError as exc:
        raise NoConvergenceError(
            f"step {state.step_index + 1} (t={t_new:g}) failed: {exc.bare_message}",
            exc.iterations, exc.residual) from exc

    new_state = SimState(
        p=step1.p_new, n=step1.n_new, psi=step1.psi_new,
        u=vel.u_new, phi=vel.phi_new,
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
        wall_time_s=_time.perf_counter() - started,
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
