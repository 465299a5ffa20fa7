"""Ion-transport step: coupled positivity-preserving solve for (p, n, psi).

One time step advances the two ion concentrations c = (p, n), of valences
z = (+1, -1), implicitly through their chemical potentials
mu_i = ln c_i + z_i psi, with the convection of the previous velocity
treated explicitly and an O(dt)-augmented mobility that makes the explicit
treatment unconditionally stable:

    (c_i - c_i_old)/dt + div(c_i_old u_old) = D div(M_i grad(ln c_i + z_i psi))
    -eps lap psi = sum_i z_i c_i = p - n,   M_i = c_i_old (1 + 2 (kappa/D) dt c_i_old)

The solve is Newton-Krylov on the collocation residual in c with psi
eliminated, an Armijo backtracking line search on the residual norm, and a
fraction-to-boundary rule that keeps every iterate strictly positive. GMRES
works on the Jacobian right-preconditioned by a per-species spectral
operator P, given as one product J P that hands P's spectra straight to
the Jacobian (Step1System.preconditioned_action); the update is P y. The
underlying minimization problem is strictly convex; its objective is
evaluated separately (Step1System.objective) as an optimality certificate;
the line search does not use it.

The unknown is one C-contiguous (2, N, N) array with the species on axis 0,
so its ravel is the Krylov vector itself. Reductions and transforms run per
species slice, which keeps every result bit for bit equal to the
species-by-species computation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    MassMismatchError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from .krylov import gmres
from .spectral import Grid, ScalarField
from .state import PhysParams, SchemeConfig, SimState

#: species names and valences along axis 0 of a stacked (2, N, N) array
SPECIES = ("p", "n")
VALENCE = np.array([1.0, -1.0]).reshape(2, 1, 1)

#: inner tolerance of the linearized Newton solves (inexact Newton)
NEWTON_GMRES_TOL = 1e-4
#: large restart: short restarts stagnate on the sharp-interface Jacobians
NEWTON_GMRES_RESTART = 300
NEWTON_GMRES_MAX_CYCLES = 2

#: a previous state with a smaller minimum concentration is rejected outright
MIN_CONCENTRATION = 1e-14

#: line search constants: Armijo slope fraction and backtracking factor
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40

#: no iterate may cross below this fraction of its current pointwise value
BOUNDARY_FRACTION = 0.1


@dataclass
class Step1Result:
    """Outcome of one ion-transport solve.

    j_initial/j_final hold the convex objective at the initial guess and at
    the solution when functional tracking is enabled, NaN otherwise.
    """

    p_new: ScalarField
    n_new: ScalarField
    psi_new: ScalarField
    mu_new: ScalarField
    nu_new: ScalarField
    newton_iters: int
    final_residual: float
    j_initial: float
    j_final: float


def compute_psi(p: ScalarField, n: ScalarField, epsilon: float) -> ScalarField:
    """Electric potential from the charge density: -eps lap psi = p - n."""
    return ScalarField(p.grid, _psi(p.grid, p.values, n.values, epsilon))


def _psi(grid: Grid, p: np.ndarray, n: np.ndarray, epsilon: float) -> np.ndarray:
    # the charge's mean carries the roundoff of p and n, not of p - n, so it
    # is judged against the ion masses: a near-neutral state passes
    masses = grid.integral(np.abs(p)) + grid.integral(np.abs(n))
    return grid.inv_laplacian_zero_mean((p - n) / epsilon, scale=masses / epsilon)


def mobility(values: np.ndarray, dt: float, kappa: float, diffusion: float) -> np.ndarray:
    """Augmented mobility f (1 + 2 (kappa/D) dt f).

    The O(dt) augmentation cancels the energy contribution of the explicit
    convection; it reduces to f (1 + 2 dt f) for unit coefficients.
    """
    return values * (1.0 + 2.0 * (kappa / diffusion) * dt * values)


def _require_positive(c: np.ndarray) -> None:
    for values, name in zip(c, SPECIES):
        m = values.min()
        if m <= 0.0:
            raise NonPositiveConcentrationError(f"{name} must be positive, min={m:.3e}")


class Step1System:
    """Per-step residual/Jacobian machinery on stacked (p, n) arrays.

    Everything that depends only on the previous state is precomputed once:
    explicit convection divergences, augmented mobilities and the spectral
    preconditioner symbols.
    """

    def __init__(self, prev: SimState, params: PhysParams, dt: float,
                 dealias: bool = False,
                 sources: tuple[np.ndarray, np.ndarray] | None = None):
        grid = prev.grid
        self.grid = grid
        self.params = params
        self.dt = dt
        self.dealias = dealias
        self.c_prev = np.stack((prev.p.values, prev.n.values))
        if self.c_prev.min() < MIN_CONCENTRATION:
            raise NonPositiveConcentrationError(
                "previous state is too close to the positivity boundary"
            )
        ux = prev.u.x_comp.values
        uy = prev.u.y_comp.values
        self.conv = np.stack([grid.div(grid.multiply(c, ux, dealias),
                                       grid.multiply(c, uy, dealias))
                              for c in self.c_prev])
        self.m = mobility(self.c_prev, dt, params.kappa, params.diffusion)
        self.source = None if sources is None else np.stack(sources)

        # spectral preconditioner (1/dt - D cbar lap)^{-1} per species, with
        # cbar the mean diffusion coefficient of the linearized operator
        # (M/c, not M itself: the Jacobian differentiates through ln c)
        d = params.diffusion
        self._pre = [1.0 / (1.0 / dt + d * float(ratio.mean()) * grid._k2)
                     for ratio in self.m / self.c_prev]

    def potentials(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi from -eps lap psi = p - n, and the stacked mu_i = ln c_i + z_i psi."""
        _require_positive(c)
        psi = _psi(self.grid, c[0], c[1], self.params.epsilon)
        return psi, np.log(c) + VALENCE * psi

    # -- nonlinear residual -------------------------------------------------
    def residual(self, c: np.ndarray) -> np.ndarray:
        d = self.params.diffusion
        _, mu = self.potentials(c)
        flux_div = self._weighted_div(map(self.grid.grad, mu))
        r = (c - self.c_prev) / self.dt + self.conv - d * flux_div
        if self.source is not None:
            r = r - self.source
        return r

    def _weighted_div(self, gradients: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """div(M_i grad f_i) for each species, from the gradients of the f_i in turn."""
        grid = self.grid
        out = np.empty_like(self.c_prev)
        for i, (m, (gx, gy)) in enumerate(zip(self.m, gradients)):
            out[i] = grid.div(grid.multiply(m, gx, self.dealias),
                              grid.multiply(m, gy, self.dealias))
        return out

    # -- Jacobian action at the iterate c ----------------------------------
    def jacobian_action(self, c: np.ndarray, dc: np.ndarray) -> np.ndarray:
        """J(c) dc for a direction given as a (2, N, N) stack or its ravel; same shape back."""
        direction = dc.reshape(c.shape)
        charge = self.grid.rfft(direction[0] - direction[1])
        return self._jacobian(c, direction, charge).reshape(dc.shape)

    def preconditioned_action(self, c: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J(c) P v for P the preconditioner; same shape back.

        The operator GMRES works on. P ends in the spectra of P v, which
        give the Jacobian its charge spectrum, so P v is transformed back
        once and never forward again: 16 transforms where P followed by J
        takes 18.
        """
        grid = self.grid
        direction = np.empty_like(c)
        charge = 0.0
        for i, (pre, z, r) in enumerate(zip(self._pre, VALENCE.flat, v.reshape(c.shape))):
            spec = pre * grid.rfft(r)
            direction[i] = grid.irfft(spec)
            charge = charge + z * spec  # spectrum of sum_i z_i (P v)_i
        return self._jacobian(c, direction, charge).reshape(v.shape)

    def _jacobian(self, c: np.ndarray, direction: np.ndarray,
                  charge: np.ndarray) -> np.ndarray:
        """J(c) direction, given the spectrum of the direction's charge (overwritten).

        dmu_i = dc_i/c_i + z_i dpsi is formed in spectral space, so dpsi
        never needs an inverse transform.
        """
        grid = self.grid
        dpsi = charge
        dpsi *= grid._inv_k2 / self.params.epsilon  # DC ignored: handled by dc/dt
        grad_dmu = (grid.grad_spectrum(grid.rfft(d / ci) + z * dpsi)
                    for d, ci, z in zip(direction, c, VALENCE.flat))
        return direction / self.dt - self.params.diffusion * self._weighted_div(grad_dmu)

    def preconditioner(self, z: np.ndarray) -> np.ndarray:
        """Spectral preconditioner P per species on a (2, N, N) stack or its ravel."""
        grid = self.grid
        out = np.empty_like(self.c_prev)
        for i, (pre, r) in enumerate(zip(self._pre, z.reshape(out.shape))):
            out[i] = grid.irfft(pre * grid.rfft(r))
        return out.reshape(z.shape)

    def norm(self, r: np.ndarray) -> float:
        """Discrete L2 norm of a stacked pair, e.g. the residual (r_p, r_n)."""
        return math.sqrt(self.grid.inner(r[0], r[0]) + self.grid.inner(r[1], r[1]))

    # -- convex objective -----------------------------------------------------
    def objective(self, c: np.ndarray, lm_tol: float = 1e-12) -> float:
        """Convex objective whose minimizer over the mass shell is the step solution.

        Quadratic transport-metric terms in the inverse weighted-Laplacian
        norms, explicit-convection coupling through the same inverse
        operator, mixing entropies, and the electrostatic H^{-1} energy:

            sum_i (1/(2 D dt)) ||c_i - c_i_old||^2_{M_i,-1}
          + sum_i (1/D) <L_{M_i}^{-1} div(c_i_old u_old), c_i>
          + sum_i <c_i (ln c_i - 1), 1>
          + (1/(2 eps)) <p - n, (-lap)^{-1}(p - n)>

        The 1/D and 1/(2 eps) scalings make the Euler-Lagrange equation of
        this objective exactly the residual equations without sources (the
        potential term differentiates to psi). Candidates must be strictly
        positive and carry the same masses as the previous state.
        """
        grid = self.grid
        d = self.params.diffusion
        _require_positive(c)
        mass_scale = abs(grid.integral(self.c_prev[0])) + abs(grid.integral(self.c_prev[1]))
        for cand, ref, name in zip(c, self.c_prev, SPECIES):
            drift = abs(grid.integral(cand) - grid.integral(ref))
            if drift > 1e-9 * max(mass_scale, 1.0):
                raise MassMismatchError(f"candidate {name} mass differs by {drift:.3e}")

        total = 0.0
        for cand, ref, m in zip(c, self.c_prev, self.m):
            diff = cand - ref
            diff = diff - diff.mean()  # strip quadrature-level roundoff
            if grid.norm(diff) > 0.0:
                inv_diff = grid.solve_weighted_laplacian(m, diff, tol=lm_tol)
                total += grid.inner(diff, inv_diff) / (2.0 * d * self.dt)
        for cand, conv, m in zip(c, self.conv, self.m):
            if grid.norm(conv) > 0.0:
                inv_conv = grid.solve_weighted_laplacian(m, conv, tol=lm_tol)
                total += grid.inner(inv_conv, cand) / d
        for cand in c:
            total += grid.integral(cand * (np.log(cand) - 1.0))

        charge = c[0] - c[1]
        charge = charge - charge.mean()
        if grid.norm(charge) > 0.0:
            inv_charge = grid.inv_laplacian_zero_mean(charge)
            total += grid.inner(charge, inv_charge) / (2.0 * self.params.epsilon)
        return float(total)


def functional_value(prev: SimState, cand_p: ScalarField, cand_n: ScalarField,
                     params: PhysParams, dt: float,
                     lm_tol: float = 1e-12) -> float:
    """The step's convex objective (Step1System.objective) at (cand_p, cand_n)."""
    return Step1System(prev, params, dt).objective(
        np.stack((cand_p.values, cand_n.values)), lm_tol)


def solve_step1(prev: SimState, params: PhysParams, dt: float, cfg: SchemeConfig,
                sources: tuple[ScalarField, ScalarField] | None = None) -> Step1Result:
    """Newton-Krylov solve of the coupled ion-transport step.

    Converges when the stacked residual norm drops below
    newton_tol * (1 + ||(p_old, n_old)||). The Newton update is projected to
    zero mean so both masses are conserved to roundoff by construction; the
    fraction-to-boundary rule keeps all iterates strictly positive.
    """
    src = None
    if sources is not None:
        src = (sources[0].values, sources[1].values)
    system = Step1System(prev, params, dt, cfg.dealias, src)
    grid = prev.grid

    c = system.c_prev.copy()
    r = system.residual(c)
    res = system.norm(r)
    threshold = cfg.newton_tol * (1.0 + system.norm(system.c_prev))
    iters = 0

    while res > threshold:
        if iters >= cfg.newton_max_iter:
            raise NoConvergenceError("ion-transport Newton solve exhausted", iters, res)
        rhs = -r.ravel()
        # right preconditioning: GMRES solves J P y = rhs, the update is z = P y
        z, info = gmres(partial(system.preconditioned_action, c), rhs,
                        rtol=NEWTON_GMRES_TOL, atol=0.0,
                        restart=NEWTON_GMRES_RESTART,
                        maxiter=NEWTON_GMRES_MAX_CYCLES)
        z = system.preconditioner(z)
        # exact mass conservation: the update never moves the (0,0) mode
        dc = np.stack([d - d.mean() for d in z.reshape(c.shape)])

        alpha = min(1.0, _boundary_step(c, dc))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = c + alpha * dc
            t_r = system.residual(trial)
            t_res = system.norm(t_r)
            if t_res <= (1.0 - ARMIJO_C1 * alpha) * res:
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        if not accepted:
            message = "ion-transport line search stalled"
            if info > 0:
                lin_res = (np.linalg.norm(system.jacobian_action(c, z) - rhs)
                           / np.linalg.norm(rhs))
                message += (f" after an unconverged inner GMRES solve ({info} iterations,"
                            f" relative residual {lin_res:.3e} > {NEWTON_GMRES_TOL:g})")
            raise NoConvergenceError(message, iters, res)
        c, r, res = trial, t_r, t_res
        iters += 1

    for new, old, name in zip(c, system.c_prev, SPECIES):
        drift = abs(grid.integral(new) - grid.integral(old))
        if drift > 1e-11 * abs(grid.integral(old)):
            raise MassMismatchError(f"step lost {name}-mass: drift {drift:.3e}")

    psi, mu = system.potentials(c)
    j_initial = j_final = math.nan
    if cfg.track_functional:
        j_initial = system.objective(system.c_prev)
        j_final = system.objective(c)

    return Step1Result(
        p_new=ScalarField(grid, c[0]),
        n_new=ScalarField(grid, c[1]),
        psi_new=ScalarField(grid, psi),
        mu_new=ScalarField(grid, mu[0]),
        nu_new=ScalarField(grid, mu[1]),
        newton_iters=iters,
        final_residual=res,
        j_initial=j_initial,
        j_final=j_final,
    )


def _boundary_step(values: np.ndarray, direction: np.ndarray) -> float:
    """Largest step keeping values + a*direction >= BOUNDARY_FRACTION * values."""
    falling = direction < 0.0
    if not falling.any():
        return np.inf
    room = (1.0 - BOUNDARY_FRACTION) * values[falling]
    return float((room / -direction[falling]).min())
