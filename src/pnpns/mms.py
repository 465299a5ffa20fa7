"""Manufactured solutions: exact fields, forcing terms, convergence study.

The closed-form target is

    p   = 1.1 + cos(x) cos(y) sin(t)
    n   = 1.1 - cos(x) cos(y) cos(t)
    u   = ( sin(x)^2 sin(2y) sin(t),  -sin(2x) sin(y)^2 g(t) )
    P   = cos(x) cos(y) sin(t)
    psi = cos(x) cos(y) (sin(t) + cos(t)) / (2 eps)

with g(t) = sin(t) for the default "divergence-free" variant and
g(t) = cos(t) for the "paper-exact" variant. The latter has
div u = sin(2x) sin(2y) (sin t - cos t) != 0 and is kept only for
archaeology: the scheme enforces a solenoidal velocity, so clean rates
need the divergence-free target.

Forcing terms are derived symbolically (sympy) from the strong equations

    f_p = p_t + u.grad p - D div(grad p + p grad psi)
    f_n = n_t + u.grad n - D div(grad n - n grad psi)
    f_u = u_t + (u.grad) u - nu_vis lap u + grad P + kappa (p - n) grad psi

and must be cross-validated against an independent finite-difference oracle
(see the test suite) before the convergence harness is trusted.
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .integrator import initialize, run
from .spectral import Field, Grid, make_grid
from .state import PhysParams, SchemeConfig

PAPER_EXACT = "paper-exact"
DIVERGENCE_FREE = "divergence-free"
VARIANTS = (DIVERGENCE_FREE, PAPER_EXACT)


def forcing_expressions(syms, p, n, psi, u1, u2, pressure, params: PhysParams):
    """Symbolic source terms that make (p, n, psi, u, P) solve the system.

    Works for any sympy fields of (x, y, t); used with the standard closed
    forms below and, in tests, with degenerate fields (constants give
    identically zero forcing).
    """
    import sympy as sp

    x, y, t = syms
    kappa = sp.Float(params.kappa)
    diff = sp.Float(params.diffusion)
    visc = sp.Float(params.viscosity)

    def lap(f):
        return sp.diff(f, x, 2) + sp.diff(f, y, 2)

    def advect(f):
        return u1 * sp.diff(f, x) + u2 * sp.diff(f, y)

    psi_x = sp.diff(psi, x)
    psi_y = sp.diff(psi, y)

    f_p = (sp.diff(p, t) + advect(p)
           - diff * (lap(p) + sp.diff(p * psi_x, x) + sp.diff(p * psi_y, y)))
    f_n = (sp.diff(n, t) + advect(n)
           - diff * (lap(n) - sp.diff(n * psi_x, x) - sp.diff(n * psi_y, y)))
    f_u1 = (sp.diff(u1, t) + advect(u1) - visc * lap(u1)
            + sp.diff(pressure, x) + kappa * (p - n) * psi_x)
    f_u2 = (sp.diff(u2, t) + advect(u2) - visc * lap(u2)
            + sp.diff(pressure, y) + kappa * (p - n) * psi_y)
    return sp.expand(f_p), sp.expand(f_n), sp.expand(f_u1), sp.expand(f_u2)


def _symbolic_fields(variant: str, params: PhysParams):
    import sympy as sp

    x, y, t = sp.symbols("x y t", real=True)
    eps = sp.Float(params.epsilon)

    p = sp.Rational(11, 10) + sp.cos(x) * sp.cos(y) * sp.sin(t)
    n = sp.Rational(11, 10) - sp.cos(x) * sp.cos(y) * sp.cos(t)
    psi = sp.cos(x) * sp.cos(y) * (sp.sin(t) + sp.cos(t)) / (2 * eps)
    u1 = sp.sin(x) ** 2 * sp.sin(2 * y) * sp.sin(t)
    if variant == DIVERGENCE_FREE:
        u2 = -sp.sin(2 * x) * sp.sin(y) ** 2 * sp.sin(t)
    elif variant == PAPER_EXACT:
        u2 = -sp.sin(2 * x) * sp.sin(y) ** 2 * sp.cos(t)
    else:
        raise ConfigError(f"unknown manufactured-solution variant {variant!r}")
    pressure = sp.cos(x) * sp.cos(y) * sp.sin(t)

    f_p, f_n, f_u1, f_u2 = forcing_expressions(
        (x, y, t), p, n, psi, u1, u2, pressure, params)

    exprs = {
        "p": p, "n": n, "psi": psi, "u1": u1, "u2": u2, "pressure": pressure,
        "f_p": f_p, "f_n": f_n, "f_u1": f_u1, "f_u2": f_u2,
    }
    return (x, y, t), exprs


@dataclass(frozen=True)
class MMSCase:
    """Closed-form exact solution plus its derived forcing terms."""

    variant: str
    params: PhysParams
    _fns: dict

    # -- pointwise evaluators ------------------------------------------------
    def _eval(self, name: str, grid: Grid, t: float) -> np.ndarray:
        # Each field is a sum of products of one-variable factors, so the
        # trig calls run on the 1-D axes (N points, not N^2) and only the
        # products broadcast; every element equals the meshgrid evaluation.
        out = self._fns[name](grid.x[:, None], grid.y[None, :], t)
        return np.broadcast_to(np.asarray(out, dtype=float), grid.xx.shape).copy()

    def exact_state(self, t: float, grid: Grid):
        """Sampled exact (p, n, u, P, psi) at time t, u as a (2, N, N) stack."""
        p, n, pressure, psi = (Field(grid, self._eval(name, grid, t))
                               for name in ("p", "n", "pressure", "psi"))
        u = Field(grid, np.stack((self._eval("u1", grid, t), self._eval("u2", grid, t))))
        return p, n, u, pressure, psi

    # -- ForcingTerms protocol -------------------------------------------------
    def ion_sources(self, t: float, grid: Grid) -> np.ndarray:
        """The stacked (2, N, N) sources (f_p, f_n) of the ion equations."""
        return np.stack((self._eval("f_p", grid, t), self._eval("f_n", grid, t)))

    def momentum_source(self, t: float, grid: Grid) -> np.ndarray:
        """The (2, N, N) source (f_u1, f_u2) of the momentum equation."""
        return np.stack((self._eval("f_u1", grid, t), self._eval("f_u2", grid, t)))

    # -- state construction ------------------------------------------------------
    def initial_state(self, cfg: SchemeConfig, t: float = 0.0):
        """Full simulation state sampled from the exact solution at time t.

        The modified pressure is set to its exact zero-mean value so that a
        single step from this state carries only the scheme's own truncation
        error.
        """
        grid = make_grid(cfg.n_modes)
        p, n, ux, uy, pressure = (self._eval(name, grid, t)
                                  for name in ("p", "n", "u1", "u2", "pressure"))
        phi = pressure - self.params.kappa * (p + n)  # modified pressure P - kappa (p + n)
        state = initialize(p, n, (ux, uy), self.params, cfg, phi_in=phi - phi.mean())
        state.time = t
        state.step_index = int(round(t / cfg.dt))
        return state


@lru_cache(maxsize=8)
def make_case(params: PhysParams, variant: str = DIVERGENCE_FREE) -> MMSCase:
    """Build (and cache) the symbolic case for one parameter set."""
    import sympy as sp

    syms, exprs = _symbolic_fields(variant, params)
    fns = {name: sp.lambdify(syms, expr, modules="numpy")
           for name, expr in exprs.items()}
    return MMSCase(variant=variant, params=params, _fns=fns)


def l2_error(numeric: Field, exact: Field) -> float:
    """Discrete L2 norm of the difference (a stack: its components' squares summed)."""
    grid = numeric.grid
    d = numeric.values - exact.values
    return math.sqrt(sum(grid.inner(di, di) for di in d.reshape(-1, *grid.xx.shape)))


@dataclass(frozen=True)
class ConvergenceRow:
    """Errors at the final time for one dt, with orders vs the previous row."""

    dt: float
    err_p: float
    err_n: float
    err_u: float
    err_psi: float
    order_p: float | None = None
    order_n: float | None = None
    order_u: float | None = None
    order_psi: float | None = None


def _errors_for_cfg(cfg: SchemeConfig, params: PhysParams,
                    variant: str) -> tuple[float, float, float, float]:
    case = make_case(params, variant)
    grid = make_grid(cfg.n_modes)
    state = case.initial_state(cfg)
    record = run(state, params, cfg, sources=case)
    final = record.final_state
    p_ex, n_ex, u_ex, _, psi_ex = case.exact_state(final.time, grid)
    return (l2_error(final.p, p_ex), l2_error(final.n, n_ex),
            l2_error(final.u, u_ex), l2_error(final.psi, psi_ex))


def _worker(args):
    return _errors_for_cfg(*args)


def convergence_study(dt_list, cfg: SchemeConfig, params: PhysParams,
                      variant: str = DIVERGENCE_FREE,
                      max_workers: int | None = None) -> list[ConvergenceRow]:
    """Run the scheme for each dt and report errors with observed orders.

    Each run is cfg with its dt replaced and no snapshots: the grid, final
    time and solver options carry over. dt_list must be strictly decreasing
    and each dt must divide cfg.t_final.
    With max_workers > 1 the per-dt runs execute in separate processes
    (they share nothing); results are ordered by dt regardless.
    """
    dts = [float(dt) for dt in dt_list]
    if not dts:
        raise ConfigError("dt_list must not be empty")
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ConfigError("dt_list must be strictly decreasing")
    try:
        jobs = [(dataclasses.replace(cfg, dt=dt, snapshot_times=()), params, variant)
                for dt in dts]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if max_workers is not None and max_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
            errors = list(pool.map(_worker, jobs))
    else:
        errors = [_worker(job) for job in jobs]

    rows: list[ConvergenceRow] = []
    for i, (dt, errs) in enumerate(zip(dts, errors)):
        orders = (None, None, None, None)
        if i > 0:
            prev = errors[i - 1]
            ratio = math.log(dts[i - 1] / dt)
            orders = tuple(
                math.log(prev[j] / errs[j]) / ratio if errs[j] > 0 and prev[j] > 0 else None
                for j in range(4)
            )
        rows.append(ConvergenceRow(dt, *errs, *orders))
    return rows


def default_thread_count() -> int:
    """Parallelism cap from the PNPNS_THREADS environment variable."""
    raw = os.environ.get("PNPNS_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"PNPNS_THREADS must be an integer, got {raw!r}")
