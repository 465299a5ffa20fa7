"""Fluid step: implicit convection-diffusion solve, then pressure correction.

Step 2 computes the intermediate velocity from

    (u~ - u_old)/dt + (u_old . grad) u~ - nu_vis lap u~ + grad phi_old
        = forcing + extra_source,

one scalar advection-diffusion solve per component (the convection couples
nothing across components). Each is BiCGStab on the right-preconditioned
operator A S, with S = (1/dt - nu_vis lap)^{-1} diagonal in Fourier space;
since (1/dt - nu_vis lap) S = I, one product is v + u_old . grad(S v), three
transforms where applying S and A in turn takes six. Step 3 projects u~
onto the discretely divergence-free space through a pressure increment:

    lap(dphi) = div(u~)/dt,   phi_new = phi_old + dphi,
    u_new = u~ - dt grad(dphi).

On the torus the projection is a direct spectral solve, exact up to
roundoff, so no iteration count is attached to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, bicgstab

from .errors import NoConvergenceError
from .spectral import Grid, ScalarField, VectorField, _require_same_grid
from .state import PhysParams, SchemeConfig


@dataclass
class VelocityResult:
    """Outcome of one fluid step (intermediate + projected velocity)."""

    u_tilde: VectorField
    u_new: VectorField
    phi_new: ScalarField
    krylov_iters: int
    residual: float


def ion_forcing(p_m: ScalarField, n_m: ScalarField, mu_new: ScalarField,
                nu_new: ScalarField, kappa: float,
                dealias: bool = False) -> VectorField:
    """Electric body force -kappa (p grad mu + n grad nu) on the fluid.

    Uses the previous concentrations against the freshly solved chemical
    potentials; this pairing is what makes the split scheme's energy budget
    close.
    """
    grid = _require_same_grid(p_m, n_m, mu_new, nu_new)
    mx, my = grid.grad(mu_new.values)
    nx, ny = grid.grad(nu_new.values)
    fx = -kappa * (grid.multiply(p_m.values, mx, dealias)
                   + grid.multiply(n_m.values, nx, dealias))
    fy = -kappa * (grid.multiply(p_m.values, my, dealias)
                   + grid.multiply(n_m.values, ny, dealias))
    return VectorField.from_arrays(grid, fx, fy)


def advect_diffuse_product(grid: Grid, ux: np.ndarray, uy: np.ndarray,
                           symbol: np.ndarray, v: np.ndarray,
                           dealias: bool = False) -> np.ndarray:
    """(1/dt + u.grad - nu lap) S v, with S = (1/dt - nu lap)^{-1} of spectral symbol `symbol`.

    Since (1/dt - nu lap) S = I the product is v + u.grad(S v): one forward
    and two inverse transforms, and S v itself is never formed.
    """
    return v + _convection(grid, ux, uy, symbol * grid.rfft(v), dealias)


def _convection(grid: Grid, ux: np.ndarray, uy: np.ndarray, spec: np.ndarray,
                dealias: bool) -> np.ndarray:
    """u.grad f for the field f whose half spectrum is spec."""
    gx, gy = grid.grad_spectrum(spec)
    return grid.multiply(ux, gx, dealias) + grid.multiply(uy, gy, dealias)


def _advect_diffuse_solve(grid: Grid, ux: np.ndarray, uy: np.ndarray,
                          rhs: np.ndarray, viscosity: float, dt: float,
                          tol: float, max_iter: int,
                          dealias: bool) -> tuple[np.ndarray, int, float]:
    """Solve (1/dt + u.grad - nu lap) w = rhs for one scalar component.

    Matrix-free BiCGStab, right-preconditioned with the constant-coefficient
    operator S = (1/dt - nu lap)^{-1}, which is diagonal in Fourier space:
    it solves (A S) y = rhs with the folded product above and returns
    w = S y, so its residual is that of the original system. The returned
    iteration figure counts operator applications during the solve.
    """
    n = grid.n_modes
    rhs_norm = grid.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0, 0.0
    shape = rhs.shape
    symbol = 1.0 / (1.0 / dt + viscosity * grid._k2)
    applications = 0

    def matvec(vec: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return advect_diffuse_product(grid, ux, uy, symbol, vec.reshape(shape),
                                      dealias).ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=float)
    y, info = bicgstab(op, rhs.ravel(), rtol=tol, atol=0.0, maxiter=max_iter)
    y = y.reshape(shape)
    # w = S y, and A w - rhs = y + u.grad(w) - rhs: both from one spectrum
    spec = symbol * grid.rfft(y)
    residual = grid.norm(y + _convection(grid, ux, uy, spec, dealias) - rhs) / rhs_norm
    if info != 0:
        raise NoConvergenceError("velocity solve stalled", applications, residual)
    return grid.irfft(spec), applications, residual


def solve_velocity(u_m: VectorField, phi_m: ScalarField, forcing: VectorField,
                   extra_source: VectorField | None, params: PhysParams,
                   dt: float, cfg: SchemeConfig) -> tuple[VectorField, int, float]:
    """Step-2 intermediate velocity (see module docstring).

    Returns (u_tilde, operator applications, worst relative residual of the
    two component solves).
    """
    grid = u_m.grid
    gx, gy = grid.grad(phi_m.values)
    rhs_x = u_m.x_comp.values / dt - gx + forcing.x_comp.values
    rhs_y = u_m.y_comp.values / dt - gy + forcing.y_comp.values
    if extra_source is not None:
        rhs_x = rhs_x + extra_source.x_comp.values
        rhs_y = rhs_y + extra_source.y_comp.values

    ux = u_m.x_comp.values
    uy = u_m.y_comp.values
    wx, it_x, res_x = _advect_diffuse_solve(grid, ux, uy, rhs_x, params.viscosity,
                                            dt, cfg.krylov_tol, cfg.krylov_max_iter,
                                            cfg.dealias)
    wy, it_y, res_y = _advect_diffuse_solve(grid, ux, uy, rhs_y, params.viscosity,
                                            dt, cfg.krylov_tol, cfg.krylov_max_iter,
                                            cfg.dealias)
    return VectorField.from_arrays(grid, wx, wy), it_x + it_y, max(res_x, res_y)


def project_velocity(u_tilde: VectorField, phi_m: ScalarField,
                     dt: float) -> tuple[VectorField, ScalarField]:
    """Step-3 pressure correction: returns the solenoidal velocity and phi_new.

    The pressure increment solves lap(dphi) = div(u~)/dt with zero mean; the
    Poisson inverse is built from the same Nyquist-zeroed wavenumbers as the
    derivatives, which makes div(u_new) vanish identically for any input.
    """
    grid = u_tilde.grid
    sx = grid.rfft(u_tilde.x_comp.values)
    sy = grid.rfft(u_tilde.y_comp.values)
    div_spec = grid._ikx * sx + grid._iky * sy
    dphi_spec = -div_spec * grid._inv_k2_grad / dt  # lap dphi = div(u~)/dt
    u_new_x = grid.irfft(sx - dt * grid._ikx * dphi_spec)
    u_new_y = grid.irfft(sy - dt * grid._iky * dphi_spec)
    dphi = grid.irfft(dphi_spec)
    phi_new = phi_m.values + dphi
    return (VectorField.from_arrays(grid, u_new_x, u_new_y),
            ScalarField(grid, phi_new))


def velocity_step(u_m: VectorField, phi_m: ScalarField, forcing: VectorField,
                  extra_source: VectorField | None, params: PhysParams,
                  dt: float, cfg: SchemeConfig) -> VelocityResult:
    """Run Steps 2 and 3 together."""
    u_tilde, iters, residual = solve_velocity(u_m, phi_m, forcing, extra_source,
                                              params, dt, cfg)
    u_new, phi_new = project_velocity(u_tilde, phi_m, dt)
    return VelocityResult(u_tilde=u_tilde, u_new=u_new, phi_new=phi_new,
                          krylov_iters=iters, residual=residual)
