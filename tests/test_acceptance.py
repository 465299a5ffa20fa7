"""Acceptance suite: one test (group) per criterion, at the stated tolerances.

The two long-running experiments (dt-refinement study and the two-blob
property run) execute once as module-scoped fixtures and feed several
assertions each. Every criterion prints an explicit PASS line; a failed
assertion fails the corresponding test instead.
"""

import math
import time

import numpy as np
import pytest

from pnpns import mms
from pnpns.config import blob_concentration
from pnpns.integrator import advance, initialize, run
from pnpns.ns import project_velocity
from pnpns.pnp import Step1System, solve_step1
from pnpns.spectral import make_grid
from pnpns.state import PhysParams, SchemeConfig, mass, total_energy

from conftest import admissible_state, band_limited, contrast_state, positive_field
from oracles import (
    apply_weighted_laplacian,
    dense_solve_zero_mean,
    dense_weighted_laplacian,
    direct_dft2,
    solve_weighted_laplacian,
    step1_objective,
)

TABLE1_DT = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4, 3.125e-4)
TABLE1_ERR_P_FIRST = 1.01e-2
TABLE1_ERR_U_FIRST = 6.33e-4


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


# ---------------------------------------------------------------------------
# Criterion 1: convergence-order reproduction (dt refinement at N=64, T=0.5)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def convergence_rows():
    started = time.perf_counter()
    cfg = SchemeConfig(n_modes=64, dt=TABLE1_DT[0], t_final=0.5)
    rows = mms.convergence_study(TABLE1_DT, cfg, PhysParams(), variant=mms.DIVERGENCE_FREE)
    elapsed = time.perf_counter() - started
    return rows, elapsed


def test_criterion_1_convergence_orders(convergence_rows):
    rows, elapsed = convergence_rows
    assert elapsed <= 1800.0, f"study took {elapsed:.0f}s, budget 1800s"
    for row in rows[-3:]:
        for name in ("order_p", "order_n", "order_u", "order_psi"):
            order = getattr(row, name)
            assert order is not None
            assert 0.9 <= order <= 1.1, f"{name}={order:.3f} at dt={row.dt}"
    orders = [(r.order_p, r.order_n, r.order_u, r.order_psi) for r in rows[-3:]]
    _report("1 convergence-orders",
            f"{elapsed:.0f}s; last-three orders {orders}")


def test_criterion_1_error_magnitudes_soft(convergence_rows):
    rows, _ = convergence_rows
    first = rows[0]
    assert first.dt == TABLE1_DT[0]
    assert TABLE1_ERR_P_FIRST / 5 <= first.err_p <= TABLE1_ERR_P_FIRST * 5, \
        f"err_p={first.err_p:.3e} vs reference {TABLE1_ERR_P_FIRST:.3e}"
    assert TABLE1_ERR_U_FIRST / 5 <= first.err_u <= TABLE1_ERR_U_FIRST * 5, \
        f"err_u={first.err_u:.3e} vs reference {TABLE1_ERR_U_FIRST:.3e}"
    _report("1 error-magnitude soft check",
            f"err_p={first.err_p:.3e}, err_u={first.err_u:.3e} at dt=1e-2")


# ---------------------------------------------------------------------------
# Criterion 2: property experiment (two blobs, kappa=1e4, 1000 steps)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def property_run():
    params = PhysParams(epsilon=1.0, kappa=10000.0)
    cfg = SchemeConfig(n_modes=64, dt=1e-4, t_final=0.1)
    state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                       blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                       None, params, cfg)
    initial_energy = total_energy(state, params, cfg.dt).total
    initial_masses = (mass(state.p), mass(state.n))
    started = time.perf_counter()
    record = run(state, params, cfg)
    elapsed = time.perf_counter() - started
    return record, initial_energy, initial_masses, elapsed


def test_criterion_2a_mass_conservation(property_run):
    record, _, (mass_p0, mass_n0), elapsed = property_run
    assert elapsed <= 1200.0, f"run took {elapsed:.0f}s, budget 1200s"
    assert len(record.diagnostics) == 1000
    drift_p = max(abs(d.mass_p - mass_p0) for d in record.diagnostics) / mass_p0
    drift_n = max(abs(d.mass_n - mass_n0) for d in record.diagnostics) / mass_n0
    assert drift_p <= 1e-10
    assert drift_n <= 1e-10
    _report("2a mass conservation",
            f"max relative drift p={drift_p:.2e}, n={drift_n:.2e}; {elapsed:.0f}s")


def test_criterion_2b_positivity(property_run):
    record, *_ = property_run
    min_p = min(d.min_p for d in record.diagnostics)
    min_n = min(d.min_n for d in record.diagnostics)
    assert min_p > 0.0
    assert min_n > 0.0
    _report("2b positivity", f"min p={min_p:.3e}, min n={min_n:.3e}")


def test_criterion_2c_energy_dissipation(property_run):
    record, initial_energy, *_ = property_run
    energies = [initial_energy] + [d.energy.total for d in record.diagnostics]
    worst = -np.inf
    for before, after in zip(energies, energies[1:]):
        worst = max(worst, (after - before) / abs(before))
        assert after <= before + 1e-10 * abs(before)
    _report("2c energy dissipation",
            f"E: {energies[0]:.6g} -> {energies[-1]:.6g}, "
            f"worst relative increase {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 3: structural invariants at desk scale (N=8, >=100 trials)
# ---------------------------------------------------------------------------

def test_criterion_3_step1_mass_and_positivity():
    grid = make_grid(8)
    cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
    params = PhysParams()
    worst_drift = 0.0
    for trial in range(100):
        rng = np.random.default_rng(60_000 + trial)
        state = admissible_state(grid, rng)
        result = solve_step1(state, params, cfg.dt, cfg)
        assert result.c[0].min() > 0.0
        assert result.c[1].min() > 0.0
        drift = max(abs(grid.integral(result.c[0]) - mass(state.p)) / mass(state.p),
                    abs(grid.integral(result.c[1]) - mass(state.n)) / mass(state.n))
        worst_drift = max(worst_drift, drift)
        assert drift <= 1e-11
    _report("3 step-1 mass/positivity (100 trials)",
            f"worst relative drift {worst_drift:.2e}")


def test_criterion_3_functional_convexity_and_certificate():
    grid = make_grid(8)
    params = PhysParams()
    dt = 0.05

    def perturb(c, rng, amp):
        dp = band_limited(grid, rng, kmax=3, amplitude=amp)
        dn = band_limited(grid, rng, kmax=3, amplitude=amp)
        return c + np.stack((dp - dp.mean(), dn - dn.mean()))

    for trial in range(100):
        rng = np.random.default_rng(70_000 + trial)
        state = admissible_state(grid, rng)
        system = Step1System(state, params, dt)
        c = np.stack((state.p.values, state.n.values))
        a = perturb(c, rng, 0.25)
        b = perturb(c, rng, 0.25)
        j_a = step1_objective(system, a)
        j_b = step1_objective(system, b)
        j_mid = step1_objective(system, 0.5 * (a + b))
        assert j_mid <= 0.5 * (j_a + j_b) + 1e-10

    cfg = SchemeConfig(n_modes=8, dt=dt, t_final=dt)
    for trial in range(100):
        rng = np.random.default_rng(80_000 + trial)
        state = admissible_state(grid, rng)
        result = solve_step1(state, params, cfg.dt, cfg)
        system = Step1System(state, params, dt)
        j_initial = step1_objective(system, system.c_prev)
        j_final = step1_objective(system, result.c)
        assert j_final <= j_initial + 1e-12 * abs(j_initial)
        for k in range(3):
            prng = np.random.default_rng(90_000 + 100 * trial + k)
            j_trial = step1_objective(system, perturb(result.c, prng, 0.02))
            assert j_final <= j_trial + 1e-10 * abs(j_trial)
    _report("3 functional convexity + minimizer certificate (100+100 trials)")


def test_criterion_3_projection_invariants():
    grid = make_grid(8)
    dt = 0.07
    for trial in range(100):
        rng = np.random.default_rng(100_000 + trial)
        u_tilde = np.stack((rng.standard_normal((8, 8)), rng.standard_normal((8, 8))))
        phi_vals = band_limited(grid, rng, amplitude=0.4)
        phi = phi_vals - phi_vals.mean()
        u_new, phi_new = project_velocity(grid, u_tilde, phi, dt)

        div_norm = grid.norm(grid.div(u_new[0], u_new[1]))
        assert div_norm <= 1e-11 * max(1.0, grid.norm(u_new))

        again_u, again_phi = project_velocity(grid, u_new, phi_new, dt)
        assert np.abs(again_u[0] - u_new[0]).max() <= 1e-12
        assert np.abs(again_u[1] - u_new[1]).max() <= 1e-12
        assert np.abs(again_phi - phi_new).max() <= 1e-12

        lhs = grid.norm(u_tilde) ** 2
        dphi = phi_new - phi
        gx, gy = grid.grad(dphi)
        rhs = grid.norm(u_new) ** 2 + dt * dt * (grid.inner(gx, gx)
                                                 + grid.inner(gy, gy))
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)
    _report("3 projection idempotence/divergence/Pythagoras (100 trials)")


# ---------------------------------------------------------------------------
# Criterion 4: oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_jacobian_vs_finite_differences():
    grid = make_grid(8)
    params = PhysParams(epsilon=1.2, kappa=1.5, diffusion=0.8)
    dt = 0.1

    def cases():
        for trial in range(10):
            rng = np.random.default_rng(110_000 + trial)
            state = admissible_state(grid, rng)
            dp_vals = band_limited(grid, rng, kmax=3)
            dn_vals = band_limited(grid, rng, kmax=3)
            yield state, np.stack((dp_vals - dp_vals.mean(), dn_vals - dn_vals.mean()))
        # a near-vacuum state, whose kernel runs on the differentiation matrix:
        # the direction is relative to c, as the line path's P v = c_old w is
        rng = np.random.default_rng(110_010)
        state = contrast_state(grid, rng)
        w = np.stack([band_limited(grid, rng, kmax=3) for _ in range(2)])
        yield state, np.stack((state.p.values, state.n.values)) * w

    worst = 0.0
    paths = []
    for state, dc in cases():
        c = np.stack((state.p.values, state.n.values))
        system = Step1System(state, params, dt)
        paths.append(system.line_path)
        j_p, j_n = system.jacobian_action(c, dc)
        h = 1e-5
        rp_f, rn_f = system.residual(c + h * dc)
        rp_b, rn_b = system.residual(c - h * dc)
        fd_p = (rp_f - rp_b) / (2 * h)
        fd_n = (rn_f - rn_b) / (2 * h)
        num = math.sqrt(grid.inner(fd_p - j_p, fd_p - j_p)
                        + grid.inner(fd_n - j_n, fd_n - j_n))
        den = math.sqrt(grid.inner(j_p, j_p) + grid.inner(j_n, j_n))
        worst = max(worst, num / den)
        assert num <= 1e-6 * den
    assert paths == [False] * 10 + [True]
    _report("4 Jacobian vs finite differences (both paths)", f"worst rel. err {worst:.2e}")


def test_criterion_4_weighted_laplacian_vs_dense_assembly():
    grid = make_grid(8)
    worst_apply = worst_solve = 0.0
    for trial in range(10):
        rng = np.random.default_rng(120_000 + trial)
        m_vals = positive_field(grid, rng, base=1.4, wobble=0.5, kmax=3)
        f_vals = band_limited(grid, rng, kmax=3)
        dense_mat = dense_weighted_laplacian(m_vals)

        ours = apply_weighted_laplacian(grid, m_vals, f_vals)
        dense = (dense_mat @ f_vals.ravel()).reshape(8, 8)
        scale = max(np.abs(dense).max(), 1.0)
        worst_apply = max(worst_apply, np.abs(ours - dense).max() / scale)
        assert np.abs(ours - dense).max() <= 1e-9 * scale

        rhs = f_vals - f_vals.mean()
        solved = solve_weighted_laplacian(grid, m_vals, rhs, tol=1e-14)
        dense_sol = dense_solve_zero_mean(dense_mat, rhs)
        scale = max(np.abs(dense_sol).max(), 1e-6)
        worst_solve = max(worst_solve, np.abs(solved - dense_sol).max() / scale)
        assert np.abs(solved - dense_sol).max() <= 1e-9 * scale
    _report("4 weighted Laplacian vs dense weak form",
            f"apply {worst_apply:.2e}, solve {worst_solve:.2e}")


def test_criterion_4_transform_vs_direct_dft():
    grid = make_grid(8)
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(130_000 + trial)
        values = rng.standard_normal((8, 8))
        ours = grid.rfft(values) / 8**2
        direct = direct_dft2(values)[:, :8 // 2 + 1]
        err = np.abs(ours - direct).max() / np.abs(direct).max()
        worst = max(worst, err)
        assert err <= 1e-12
    _report("4 transform vs direct DFT", f"worst rel. err {worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 5: trivial steady state
# ---------------------------------------------------------------------------

def test_criterion_5_uniform_rest_state():
    params = PhysParams()
    cfg = SchemeConfig(n_modes=32, dt=0.05, t_final=100 * 0.05)
    state = initialize(lambda x, y: np.ones_like(x), lambda x, y: np.ones_like(x),
                       None, params, cfg)
    p0 = state.p.values.copy()
    e0 = total_energy(state, params, cfg.dt).total
    record = run(state, params, cfg)
    final = record.final_state
    assert len(record.diagnostics) == 100
    assert np.abs(final.p.values - p0).max() <= 1e-11
    assert np.abs(final.n.values - p0).max() <= 1e-11
    assert np.abs(final.psi.values).max() <= 1e-11
    assert np.abs(final.phi.values).max() <= 1e-11
    assert final.grid.norm(final.u.values) <= 1e-11
    for diag in record.diagnostics:
        assert abs(diag.energy.total - e0) <= 1e-12 * abs(e0)
    _report("5 trivial steady state",
            f"max field change {np.abs(final.p.values - p0).max():.2e}")


# ---------------------------------------------------------------------------
# Criterion 6: one-step consistency (local truncation order)
# ---------------------------------------------------------------------------

def test_criterion_6_one_step_error_ratio():
    params = PhysParams()
    case = mms.make_case(params)
    ratios = []
    for t_start in (0.0, 0.3):
        errors = []
        for dt in (5e-3, 2.5e-3):
            cfg = SchemeConfig(n_modes=64, dt=dt, t_final=max(dt, 0.5))
            state = case.initial_state(cfg, t=t_start)
            new, _ = advance(state, params, cfg, sources=case)
            grid = new.grid
            p_ex, n_ex, u_ex, _, psi_ex = case.exact_state(new.time, grid)
            err = math.sqrt(mms.l2_error(new.p, p_ex) ** 2
                            + mms.l2_error(new.n, n_ex) ** 2
                            + mms.l2_error(new.u, u_ex) ** 2
                            + mms.l2_error(new.psi, psi_ex) ** 2)
            errors.append(err)
        ratio = errors[0] / errors[1]
        ratios.append(ratio)
        assert 3.6 <= ratio <= 4.4, f"ratio {ratio:.3f} at t={t_start}"
    _report("6 one-step consistency", f"halving ratios {[f'{r:.3f}' for r in ratios]}")
