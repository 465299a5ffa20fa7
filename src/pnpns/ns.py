"""Fluid step: implicit convection-diffusion solve, then pressure correction.

Step 2 computes the intermediate velocity from

    (u~ - u_old)/dt + (u_old . grad) u~ - nu_vis lap u~ + grad phi_old
        = forcing + extra_source,

one scalar advection-diffusion solve per component (the convection couples
nothing across components). Each is BiCGStab on the right-preconditioned
operator A S, with S = (1/dt - nu_vis lap)^{-1} diagonal in Fourier space;
since (1/dt - nu_vis lap) S = I, one product is v + u_old . grad(S v), three
transforms where applying S and A in turn takes six. Its tolerance and
budget are the module constants MOMENTUM_TOL and MOMENTUM_MAX_ITER. Step 3
projects u~ onto the discretely divergence-free space through a pressure
increment:

    lap(dphi) = div(u~)/dt,   phi_new = phi_old + dphi,
    u_new = u~ - dt grad(dphi).

On the torus the projection is a direct spectral solve, exact up to
roundoff, so no iteration count is attached to it.

Every function takes the grid plus plain arrays: a velocity, a forcing or a
source is one (2, N, N) stack with the x and y components on axis 0, phi an
(N, N) array. Transforms still run per component, one call each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from .errors import NoConvergenceError
from .spectral import Grid
from .state import PhysParams

#: relative residual at which each component's BiCGStab momentum solve stops
MOMENTUM_TOL = 1e-12
#: BiCGStab iterations allowed per component before NoConvergenceError
MOMENTUM_MAX_ITER = 200


@dataclass
class VelocityResult:
    """Outcome of one fluid step: the projected (2, N, N) velocity and phi_new."""

    u_new: np.ndarray
    phi_new: np.ndarray
    krylov_iters: int
    residual: float


def ion_forcing(grid: Grid, c: tuple[np.ndarray, np.ndarray] | np.ndarray, mu: np.ndarray,
                kappa: float) -> np.ndarray:
    """Electric body force -kappa (p grad mu_p + n grad mu_n) on the fluid, as a (2, N, N) stack.

    c is the previous concentrations as a pair (p, n) of (N, N) arrays, or
    a (2, N, N) stack, and mu the freshly solved chemical potentials; this
    pairing is what makes the split scheme's energy budget close.
    """
    p, n = c
    mx, my = grid.grad(mu[0])
    nx, ny = grid.grad(mu[1])
    return -kappa * np.stack((p * mx + n * nx, p * my + n * ny))


def advect_diffuse_product(grid: Grid, u: np.ndarray, symbol: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
    """(1/dt + u.grad - nu lap) S v, with S = (1/dt - nu lap)^{-1} of spectral symbol `symbol`.

    u is the (2, N, N) advecting velocity. Since (1/dt - nu lap) S = I the
    product is v + u.grad(S v): one forward and two inverse transforms, and
    S v itself is never formed.
    """
    return v + _convection(grid, u, symbol * grid.rfft(v))


def _convection(grid: Grid, u: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """u.grad f for the field f whose half spectrum is spec."""
    gx, gy = grid.grad_spectrum(spec)
    return u[0] * gx + u[1] * gy


def _advect_diffuse_solve(grid: Grid, u: np.ndarray, rhs: np.ndarray,
                          symbol: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Solve (1/dt + u.grad - nu lap) w = rhs for one scalar component.

    Matrix-free BiCGStab, right-preconditioned with the constant-coefficient
    operator S = (1/dt - nu lap)^{-1} of spectral symbol `symbol`: it solves
    (A S) y = rhs with the folded product above and returns w = S y, so its
    residual is that of the original system. The returned iteration figure
    counts operator applications during the solve; a right-hand side that is
    not finite raises NoConvergenceError before any.
    """
    n = grid.n_modes
    rhs_norm = grid.norm(rhs)
    if not math.isfinite(rhs_norm):
        raise NoConvergenceError("velocity right-hand side is not finite", 0, rhs_norm)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    shape = rhs.shape
    applications = 0

    def matvec(vec: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return advect_diffuse_product(grid, u, symbol, vec.reshape(shape)).ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=float)
    y, info = bicgstab(op, rhs.ravel(), rtol=MOMENTUM_TOL, atol=0.0, maxiter=MOMENTUM_MAX_ITER)
    y = y.reshape(shape)
    # w = S y, and A w - rhs = y + u.grad(w) - rhs: both from one spectrum
    spec = symbol * grid.rfft(y)
    residual = grid.norm(y + _convection(grid, u, spec) - rhs) / rhs_norm
    if info != 0:
        raise NoConvergenceError("velocity solve stalled", applications, residual)
    return grid.irfft(spec), applications, residual


def solve_velocity(grid: Grid, u_m: np.ndarray, phi_m: np.ndarray, forcing: np.ndarray,
                   extra_source: np.ndarray | None, params: PhysParams,
                   dt: float) -> tuple[np.ndarray, int, float]:
    """Step-2 intermediate velocity (see module docstring).

    u_m, forcing and extra_source are (2, N, N) stacks, phi_m an (N, N)
    array. Returns (u_tilde as a (2, N, N) stack, operator applications,
    worst relative residual of the two component solves).
    """
    rhs = u_m / dt - np.stack(grid.grad(phi_m)) + forcing
    if extra_source is not None:
        rhs = rhs + extra_source
    # S's symbol, formed in real arithmetic and cast once (spectral.py)
    symbol = (1.0 / (1.0 / dt + params.viscosity * grid.k2)).astype(complex)
    w, iters, residuals = zip(*(_advect_diffuse_solve(grid, u_m, r, symbol) for r in rhs))
    return np.stack(w), sum(iters), max(residuals)


def project_velocity(grid: Grid, u_tilde: np.ndarray, phi_m: np.ndarray,
                     dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Step-3 pressure correction: returns the solenoidal (2, N, N) velocity and phi_new.

    The pressure increment solves lap(dphi) = div(u~)/dt with zero mean; the
    Poisson inverse is built from the same Nyquist-zeroed wavenumbers as the
    derivatives, which makes div(u_new) vanish identically for any input.
    """
    sx = grid.rfft(u_tilde[0])
    sy = grid.rfft(u_tilde[1])
    div_spec = grid.ikx * sx + grid.iky * sy
    dphi_spec = -div_spec * grid.inv_k2_grad / dt  # lap dphi = div(u~)/dt
    u_new = np.stack((grid.irfft(sx - dt * grid.ikx * dphi_spec),
                      grid.irfft(sy - dt * grid.iky * dphi_spec)))
    return u_new, phi_m + grid.irfft(dphi_spec)


def velocity_step(grid: Grid, u_m: np.ndarray, phi_m: np.ndarray, forcing: np.ndarray,
                  extra_source: np.ndarray | None, params: PhysParams,
                  dt: float) -> VelocityResult:
    """Run Steps 2 and 3 together on arrays (solve_velocity, then project_velocity)."""
    u_tilde, iters, residual = solve_velocity(grid, u_m, phi_m, forcing, extra_source,
                                              params, dt)
    u_new, phi_new = project_velocity(grid, u_tilde, phi_m, dt)
    return VelocityResult(u_new=u_new, phi_new=phi_new, krylov_iters=iters, residual=residual)
