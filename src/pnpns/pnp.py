"""Ion-transport step: coupled positivity-preserving solve for (p, n, psi).

One time step advances the two ion concentrations implicitly through their
chemical potentials mu = ln p + psi and nu = ln n - psi, with the convection
of the previous velocity treated explicitly and an O(dt)-augmented mobility
that makes the explicit treatment unconditionally stable:

    (p - p_old)/dt + div(p_old u_old) = D div(M_p grad(ln p + psi))
    (n - n_old)/dt + div(n_old u_old) = D div(M_n grad(ln n - psi))
    -eps lap psi = p - n,   M_f = f_old (1 + 2 (kappa/D) dt f_old)

The solve is Newton-Krylov on the collocation residual in (p, n) with psi
eliminated, an Armijo backtracking line search on the residual norm, and a
fraction-to-boundary rule that keeps every iterate strictly positive. The
underlying minimization problem is strictly convex; its objective is
evaluated separately (functional_value) as an optimality certificate, not
as the search driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MassMismatchError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from .krylov import Operator, gmres
from .spectral import ScalarField
from .state import PhysParams, SchemeConfig, SimState

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
    grid = p.grid
    return ScalarField(grid, grid.inv_laplacian_zero_mean((p.values - n.values) / epsilon))


def chemical_potentials(p: ScalarField, n: ScalarField,
                        psi: ScalarField) -> tuple[ScalarField, ScalarField]:
    """mu = ln p + psi and nu = ln n - psi, pointwise."""
    _require_positive(p.values, "p")
    _require_positive(n.values, "n")
    grid = p.grid
    mu = np.log(p.values) + psi.values
    nu = np.log(n.values) - psi.values
    return ScalarField(grid, mu), ScalarField(grid, nu)


def mobility(f: ScalarField, dt: float, kappa: float, diffusion: float) -> ScalarField:
    """Augmented mobility f (1 + 2 (kappa/D) dt f).

    The O(dt) augmentation cancels the energy contribution of the explicit
    convection; it reduces to f (1 + 2 dt f) for unit coefficients.
    """
    _require_positive(f.values, "mobility base")
    return ScalarField(f.grid, _mobility_arr(f.values, dt, kappa, diffusion))


def _mobility_arr(values: np.ndarray, dt: float, kappa: float, diffusion: float) -> np.ndarray:
    return values * (1.0 + 2.0 * (kappa / diffusion) * dt * values)


def _require_positive(values: np.ndarray, name: str) -> None:
    m = values.min()
    if m <= 0.0:
        raise NonPositiveConcentrationError(f"{name} must be positive, min={m:.3e}")


class Step1System:
    """Per-step residual/Jacobian machinery on raw arrays.

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
        self.p_prev = prev.p.values
        self.n_prev = prev.n.values
        if self.p_prev.min() < MIN_CONCENTRATION or self.n_prev.min() < MIN_CONCENTRATION:
            raise NonPositiveConcentrationError(
                "previous state is too close to the positivity boundary"
            )
        ux = prev.u.x_comp.values
        uy = prev.u.y_comp.values
        self.conv_p = grid.div(grid.multiply(self.p_prev, ux, dealias),
                               grid.multiply(self.p_prev, uy, dealias))
        self.conv_n = grid.div(grid.multiply(self.n_prev, ux, dealias),
                               grid.multiply(self.n_prev, uy, dealias))
        self.m_p = _mobility_arr(self.p_prev, dt, params.kappa, params.diffusion)
        self.m_n = _mobility_arr(self.n_prev, dt, params.kappa, params.diffusion)
        self.f_p = sources[0] if sources is not None else None
        self.f_n = sources[1] if sources is not None else None

        # spectral preconditioner (1/dt - D cbar lap)^{-1} per species, with
        # cbar the mean diffusion coefficient of the linearized operator
        # (M/p, not M itself: the Jacobian differentiates through ln p)
        d = params.diffusion
        c_p = float((self.m_p / self.p_prev).mean())
        c_n = float((self.m_n / self.n_prev).mean())
        self._pre_p = 1.0 / (1.0 / dt + d * c_p * grid._k2)
        self._pre_n = 1.0 / (1.0 / dt + d * c_n * grid._k2)

    # -- nonlinear residual -------------------------------------------------
    def residual(self, p: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        eps = self.params.epsilon
        d = self.params.diffusion
        _require_positive(p, "p")
        _require_positive(n, "n")
        psi = grid.inv_laplacian_zero_mean((p - n) / eps)
        mu = np.log(p) + psi
        nu = np.log(n) - psi
        r_p = (p - self.p_prev) / self.dt + self.conv_p - d * self._weighted_div(self.m_p, mu)
        r_n = (n - self.n_prev) / self.dt + self.conv_n - d * self._weighted_div(self.m_n, nu)
        if self.f_p is not None:
            r_p = r_p - self.f_p
            r_n = r_n - self.f_n
        return r_p, r_n

    def _weighted_div(self, m: np.ndarray, potential: np.ndarray) -> np.ndarray:
        grid = self.grid
        gx, gy = grid.grad(potential)
        return grid.div(grid.multiply(m, gx, self.dealias),
                        grid.multiply(m, gy, self.dealias))

    # -- Jacobian action at the iterate (p, n) ------------------------------
    def jacobian_action(self, p: np.ndarray, n: np.ndarray,
                        dp: np.ndarray, dn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grid = self.grid
        eps = self.params.epsilon
        d = self.params.diffusion
        spec = grid.rfft((dp - dn) / eps)
        dpsi = grid.irfft(spec * grid._inv_k2)  # DC ignored: handled by dp/dt
        dmu = dp / p + dpsi
        dnu = dn / n - dpsi
        j_p = dp / self.dt - d * self._weighted_div(self.m_p, dmu)
        j_n = dn / self.dt - d * self._weighted_div(self.m_n, dnu)
        return j_p, j_n

    def norm2(self, a: np.ndarray, b: np.ndarray) -> float:
        return math.sqrt(self.grid.inner(a, a) + self.grid.inner(b, b))

    # -- stacked-vector interface for GMRES ----------------------------------
    def operator(self, p: np.ndarray, n: np.ndarray) -> Operator:
        """The Jacobian at (p, n) as a map on stacked (dp, dn) vectors."""
        n_sq = self.grid.n_modes**2
        shape = p.shape

        def matvec(z: np.ndarray) -> np.ndarray:
            dp = z[:n_sq].reshape(shape)
            dn = z[n_sq:].reshape(shape)
            j_p, j_n = self.jacobian_action(p, n, dp, dn)
            return np.concatenate([j_p.ravel(), j_n.ravel()])

        return matvec

    def preconditioner(self, z: np.ndarray) -> np.ndarray:
        """Spectral preconditioner on a stacked (r_p, r_n) vector."""
        grid = self.grid
        n_sq = grid.n_modes**2
        shape = (grid.n_modes, grid.n_modes)
        rp = z[:n_sq].reshape(shape)
        rn = z[n_sq:].reshape(shape)
        out_p = grid.irfft(self._pre_p * grid.rfft(rp))
        out_n = grid.irfft(self._pre_n * grid.rfft(rn))
        return np.concatenate([out_p.ravel(), out_n.ravel()])


def functional_value(prev: SimState, cand_p: ScalarField, cand_n: ScalarField,
                     params: PhysParams, dt: float,
                     lm_tol: float = 1e-12) -> float:
    """Convex objective whose minimizer over the mass shell is the step solution.

    Quadratic transport-metric terms in the inverse weighted-Laplacian norms,
    explicit-convection coupling through the same inverse operator, mixing
    entropies, and the electrostatic H^{-1} energy:

        (1/(2 D dt)) (||p* - p_old||^2_{M_p,-1} + ||n* - n_old||^2_{M_n,-1})
      + (1/D) (<L_{M_p}^{-1} div(p_old u_old), p*> + <L_{M_n}^{-1} div(n_old u_old), n*>)
      + <p*(ln p* - 1), 1> + <n*(ln n* - 1), 1>
      + (1/(2 eps)) <p* - n*, (-lap)^{-1}(p* - n*)>

    The 1/D and 1/(2 eps) scalings make the Euler-Lagrange equation of this
    objective exactly the step equations (the potential term differentiates
    to compute_psi). Candidates must be strictly positive and carry the same
    masses as the previous state.
    """
    grid = prev.grid
    p_star = cand_p.values
    n_star = cand_n.values
    _require_positive(p_star, "p")
    _require_positive(n_star, "n")
    mass_scale = abs(grid.integral(prev.p.values)) + abs(grid.integral(prev.n.values))
    for cand, ref, name in ((p_star, prev.p.values, "p"), (n_star, prev.n.values, "n")):
        drift = abs(grid.integral(cand) - grid.integral(ref))
        if drift > 1e-9 * max(mass_scale, 1.0):
            raise MassMismatchError(f"candidate {name} mass differs by {drift:.3e}")

    d = params.diffusion
    m_p = _mobility_arr(prev.p.values, dt, params.kappa, d)
    m_n = _mobility_arr(prev.n.values, dt, params.kappa, d)

    total = 0.0
    for cand, ref, m in ((p_star, prev.p.values, m_p), (n_star, prev.n.values, m_n)):
        diff = cand - ref
        diff = diff - diff.mean()  # strip quadrature-level roundoff
        if grid.norm(diff) > 0.0:
            inv_diff = grid.solve_weighted_laplacian(m, diff, tol=lm_tol)
            total += grid.inner(diff, inv_diff) / (2.0 * d * dt)

    ux = prev.u.x_comp.values
    uy = prev.u.y_comp.values
    for cand, ref, m in ((p_star, prev.p.values, m_p), (n_star, prev.n.values, m_n)):
        conv = grid.div(ref * ux, ref * uy)
        if grid.norm(conv) > 0.0:
            inv_conv = grid.solve_weighted_laplacian(m, conv, tol=lm_tol)
            total += grid.inner(inv_conv, cand) / d

    total += grid.integral(p_star * (np.log(p_star) - 1.0))
    total += grid.integral(n_star * (np.log(n_star) - 1.0))

    charge = p_star - n_star
    charge = charge - charge.mean()
    if grid.norm(charge) > 0.0:
        inv_charge = grid.inv_laplacian_zero_mean(charge)
        total += grid.inner(charge, inv_charge) / (2.0 * params.epsilon)
    return float(total)


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

    p = prev.p.values.copy()
    n = prev.n.values.copy()
    r_p, r_n = system.residual(p, n)
    res = system.norm2(r_p, r_n)
    threshold = cfg.newton_tol * (1.0 + system.norm2(system.p_prev, system.n_prev))

    n_sq = grid.n_modes**2
    shape = p.shape
    iters = 0

    while res > threshold:
        if iters >= cfg.newton_max_iter:
            raise NoConvergenceError("ion-transport Newton solve exhausted", iters, res)
        rhs = -np.concatenate([r_p.ravel(), r_n.ravel()])
        op = system.operator(p, n)
        z, info = gmres(op, rhs, rtol=NEWTON_GMRES_TOL, atol=0.0,
                        restart=NEWTON_GMRES_RESTART,
                        maxiter=NEWTON_GMRES_MAX_CYCLES, M=system.preconditioner)
        dp = z[:n_sq].reshape(shape)
        dn = z[n_sq:].reshape(shape)
        # exact mass conservation: the update never moves the (0,0) mode
        dp = dp - dp.mean()
        dn = dn - dn.mean()

        alpha = min(1.0, _boundary_step(p, dp), _boundary_step(n, dn))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial_p = p + alpha * dp
            trial_n = n + alpha * dn
            t_rp, t_rn = system.residual(trial_p, trial_n)
            t_res = system.norm2(t_rp, t_rn)
            if t_res <= (1.0 - ARMIJO_C1 * alpha) * res:
                accepted = True
                break
            alpha *= BACKTRACK_FACTOR
        if not accepted:
            message = "ion-transport line search stalled"
            if info > 0:
                lin_res = np.linalg.norm(op(z) - rhs) / np.linalg.norm(rhs)
                message += (f" after an unconverged inner GMRES solve ({info} iterations,"
                            f" relative residual {lin_res:.3e} > {NEWTON_GMRES_TOL:g})")
            raise NoConvergenceError(message, iters, res)
        p, n, r_p, r_n, res = trial_p, trial_n, t_rp, t_rn, t_res
        iters += 1

    for new, old, name in ((p, system.p_prev, "p"), (n, system.n_prev, "n")):
        drift = abs(grid.integral(new) - grid.integral(old))
        if drift > 1e-11 * abs(grid.integral(old)):
            raise MassMismatchError(f"step lost {name}-mass: drift {drift:.3e}")

    p_new = ScalarField(grid, p)
    n_new = ScalarField(grid, n)
    psi_new = compute_psi(p_new, n_new, params.epsilon)
    mu_new, nu_new = chemical_potentials(p_new, n_new, psi_new)

    j_initial = j_final = math.nan
    if cfg.track_functional:
        j_initial = functional_value(prev, prev.p, prev.n, params, dt)
        j_final = functional_value(prev, p_new, n_new, params, dt)

    return Step1Result(
        p_new=p_new,
        n_new=n_new,
        psi_new=psi_new,
        mu_new=mu_new,
        nu_new=nu_new,
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
