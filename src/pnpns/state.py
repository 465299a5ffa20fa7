"""Domain data model: physical parameters, scheme knobs, state, diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveConcentrationError
from .spectral import Field, Grid

@dataclass(frozen=True)
class PhysParams:
    """Physical coefficients of the ion-transport / fluid system.

    epsilon scales the electric potential equation (-eps * lap psi = p - n),
    kappa the electric body force on the fluid, diffusion the ion fluxes and
    viscosity the fluid stress. All must be strictly positive.
    """

    epsilon: float = 1.0
    kappa: float = 1.0
    diffusion: float = 1.0
    viscosity: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "kappa", "diffusion", "viscosity"):
            value = getattr(self, name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ValueError(f"{name} must be strictly positive, got {value}")


@dataclass(frozen=True)
class SchemeConfig:
    """Discretization and solver knobs for one run."""

    n_modes: int
    dt: float
    t_final: float
    newton_tol: float = 1e-10
    newton_max_iter: int = 30
    krylov_tol: float = 1e-12
    krylov_max_iter: int = 200
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if self.n_modes < 4 or self.n_modes % 2 != 0:
            raise ValueError(f"n_modes must be even and >= 4, got {self.n_modes}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        steps = self.n_steps
        if steps < 1 or not math.isclose(steps * self.dt, self.t_final,
                                         rel_tol=1e-9, abs_tol=0.0):
            raise ValueError(
                f"t_final={self.t_final} is not a multiple of dt={self.dt}"
            )
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class SimState:
    """Discrete state at one time level.

    p, n are the ion concentrations (positive everywhere), psi the zero-mean
    electric potential, u the projected velocity as one (2, N, N) stack, phi
    the zero-mean modified pressure. line_ref is the stacked (2, N, N)
    concentrations at which the next ion step's line preconditioner is
    built, and line_age the number of steps that have used it (None and 0
    when the last step took the spectral path, or none was taken); its
    array is never written to.

    The step layers below integrator.advance work on arrays; every array
    field here stays wrapped in a Field, at the public boundary, because
    perfbench's fields_bytes (perfbench/run.py) compares a state by the
    .values of its containers and a bare array only through its repr, which
    numpy shortens. Holding bare arrays waits for a benchmark change that
    compares them whole.
    """

    p: Field
    n: Field
    psi: Field
    u: Field
    phi: Field
    step_index: int = 0
    time: float = 0.0
    line_ref: Field | None = None
    line_age: int = 0

    @property
    def grid(self) -> Grid:
        return self.p.grid


@dataclass(frozen=True)
class EnergyBreakdown:
    """Parts of the modified discrete energy.

    entropy_p/entropy_n are the raw mixing entropies <f(ln f - 1), 1>;
    field is (eps/2)||grad psi||^2; kinetic is ||u||^2 / 2; pressure_aug is
    the (dt^2/2)||grad phi||^2 augmentation of the projection splitting.
    The total weighs the ion parts with kappa:

        total = kappa*(entropy_p + entropy_n + field) + kinetic + pressure_aug
    """

    entropy_p: float
    entropy_n: float
    field: float
    kinetic: float
    pressure_aug: float
    total: float


@dataclass
class StepDiagnostics:
    """Per-step invariant ledger.

    krylov_iters_step1 and krylov_iters_step1_max are the sum and the
    largest, over the ion step's Newton iterations, of the Krylov products
    each GMRES solve applied (Step1Result: one per GMRES iteration, plus one
    per restart cycle that ends unconverged); krylov_iters_step2 counts the
    operator applications of the momentum solves.
    """

    step_index: int
    time: float
    mass_p: float
    mass_n: float
    min_p: float
    min_n: float
    max_p: float
    max_n: float
    energy: EnergyBreakdown
    newton_iters: int
    krylov_iters_step1: int
    krylov_iters_step1_max: int
    krylov_iters_step2: int
    residual_step1: float
    residual_step2: float
    wall_time_s: float = 0.0


def mass(f: Field) -> float:
    """Total amount <f, 1> carried by the field."""
    return f.grid.integral(f.values)


def _entropy(values: np.ndarray, grid: Grid) -> float:
    return grid.integral(values * (np.log(values) - 1.0))


def total_energy(state: SimState, params: PhysParams, dt: float) -> EnergyBreakdown:
    """Modified discrete energy of a state (the Lyapunov functional).

    With unit coefficients this is exactly
    E(p) + E(n) + ||grad psi||^2/2 + ||u||^2/2 + (dt^2/2)||grad phi||^2
    where E(f) = <f(ln f - 1), 1>; kappa and epsilon generalize the weights
    as documented on EnergyBreakdown.
    """
    grid = state.grid
    min_p = state.p.values.min()
    min_n = state.n.values.min()
    if min_p <= 0.0 or min_n <= 0.0:
        raise NonPositiveConcentrationError(
            f"energy undefined: min p={min_p:.3e}, min n={min_n:.3e}"
        )
    entropy_p = _entropy(state.p.values, grid)
    entropy_n = _entropy(state.n.values, grid)

    gx, gy = grid.grad(state.psi.values)
    field_part = 0.5 * params.epsilon * (grid.inner(gx, gx) + grid.inner(gy, gy))

    ux, uy = state.u.values
    kinetic = 0.5 * (grid.inner(ux, ux) + grid.inner(uy, uy))

    px, py = grid.grad(state.phi.values)
    pressure_aug = 0.5 * dt * dt * (grid.inner(px, px) + grid.inner(py, py))

    total = (params.kappa * (entropy_p + entropy_n + field_part)
             + kinetic + pressure_aug)
    return EnergyBreakdown(entropy_p, entropy_n, field_part, kinetic, pressure_aug, total)
