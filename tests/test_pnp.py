"""Ion-transport step: potentials, mobility, residual, functional, Newton solve."""

import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pnpns import pnp
from pnpns.errors import (
    MassMismatchError,
    NoConvergenceError,
    NonPositiveConcentrationError,
)
from pnpns.mms import make_case
from pnpns.pnp import (
    Step1System,
    compute_psi,
    line_blocks,
    line_outer,
    mobility,
    solve_step1,
)
from pnpns.spectral import make_grid
from pnpns.state import PhysParams, SchemeConfig, mass

from conftest import (
    admissible_state,
    band_limited,
    contrast_state,
    div_free_velocity,
    rest_state,
)
from oracles import (
    dense_weighted_laplacian,
    dft_inv_laplacian,
    diff_matrices_2d,
    laplacian,
    step1_objective,
)

TWO_PI = 2.0 * np.pi


def perturbed(state, grid, rng, amplitude, kmax=3):
    """Mass-preserving positive perturbation of the previous concentrations."""
    dp = band_limited(grid, rng, kmax=kmax, amplitude=amplitude)
    dn = band_limited(grid, rng, kmax=kmax, amplitude=amplitude)
    p = state.p.values + (dp - dp.mean())
    n = state.n.values + (dn - dn.mean())
    assert p.min() > 0 and n.min() > 0
    return p, n


def blob_step(n_modes):
    """(state, params, cfg) for the first step of the two-blob experiment (preset blobs_5_2)."""
    from pnpns.config import blob_concentration
    from pnpns.integrator import initialize
    params = PhysParams(epsilon=1.0, kappa=10000.0)
    cfg = SchemeConfig(n_modes=n_modes, dt=1e-4, t_final=1e-4)
    state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                       blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                       None, params, cfg)
    return state, params, cfg


def counting_gmres(monkeypatch):
    """Per GMRES solve in the ion step: [iterations, Krylov products, info, rtol, b]."""
    solves = []
    solve = pnp.gmres

    def counting(A, b, **kwargs):
        record = [0, 0, None, kwargs["rtol"], b.copy()]
        solves.append(record)

        def product(v):
            record[1] += 1
            return A(v)

        def callback(_estimate):
            record[0] += 1

        x, record[2] = solve(product, b, callback=callback, callback_type="pr_norm", **kwargs)
        return x, record[2]

    monkeypatch.setattr(pnp, "gmres", counting)
    return solves


def rest_system(grid, params=PhysParams(), dt=0.1):
    """Step1System from the uniform unit state at rest."""
    return Step1System(rest_state(grid), params, dt)


class TestComputePsi:
    def test_electroneutral_gives_zero(self, grid16):
        p = np.full((16, 16), 1.3)
        psi = compute_psi(grid16, p, p.copy(), epsilon=1.0)
        assert np.abs(psi).max() <= 1e-14

    def test_eigenfunction_with_epsilon(self, grid16):
        eps = 2.5
        harmonic = np.cos(grid16.xx) * np.cos(grid16.yy)
        p = 1.5 + 2.0 * eps * harmonic
        n = np.full((16, 16), 1.5)
        psi = compute_psi(grid16, p, n, epsilon=eps)
        assert np.abs(psi - harmonic).max() <= 1e-12

    def test_manufactured_identity(self, grid16):
        # p - n = cos x cos y (sin t + cos t) => psi = that / (2 eps)
        eps, t = 1.7, 0.4
        harmonic = np.cos(grid16.xx) * np.cos(grid16.yy)
        factor = math.sin(t) + math.cos(t)
        p = 1.1 + harmonic * math.sin(t)
        n = 1.1 - harmonic * math.cos(t)
        psi = compute_psi(grid16, p, n, epsilon=eps)
        assert np.abs(psi - harmonic * factor / (2 * eps)).max() <= 1e-13
        # and -eps lap psi reproduces the charge density
        assert np.abs(-eps * laplacian(grid16, psi) - (p - n)).max() <= 1e-12


class TestChemicalPotentials:
    def test_uniform_unit(self, grid16):
        _, mu = rest_system(grid16).potentials(np.ones((2, 16, 16)))
        assert np.abs(mu[0]).max() == 0.0
        assert np.abs(mu[1]).max() == 0.0

    def test_log_of_e(self, grid16):
        _, mu = rest_system(grid16).potentials(np.full((2, 16, 16), np.e))
        assert np.abs(mu[0] - 1.0).max() <= 1e-15

    def test_inverse_identity(self, grid16, rng):
        p = 1.0 + 0.5 * band_limited(grid16, rng)
        n = 1.0 + 0.5 * band_limited(grid16, rng)
        n += p.mean() - n.mean()  # psi needs a zero-mean charge
        psi, mu = rest_system(grid16).potentials(np.stack((p, n)))
        assert np.abs(np.exp(mu[0] - psi) - p).max() <= 1e-12
        assert np.abs(np.exp(mu[1] + psi) - n).max() <= 1e-12

    def test_rejects_nonpositive(self, grid16):
        bad = np.ones((2, 16, 16))
        bad[0, 0, 0] = 0.0
        with pytest.raises(NonPositiveConcentrationError):
            rest_system(grid16).potentials(bad)


class TestMobility:
    def test_unit_coefficients(self, grid16):
        out = mobility(np.ones((16, 16)), dt=0.1, kappa=1.0, diffusion=1.0)
        assert np.abs(out - 1.2).max() <= 1e-15

    def test_vanishing_dt_limit(self, grid16, rng):
        f = 1.0 + 0.4 * band_limited(grid16, rng)
        out = mobility(f, dt=0.0, kappa=1.0, diffusion=1.0)
        assert np.abs(out - f).max() == 0.0

    def test_coefficient_ratio(self, grid16):
        out = mobility(np.full((16, 16), 2.0), dt=0.25, kappa=2.0, diffusion=1.0)
        assert np.abs(out - 6.0).max() <= 1e-14


class TestResidual:
    def test_uniform_steady_state(self, grid16):
        prev = rest_state(grid16, 1.4)
        r_p, r_n = Step1System(prev, PhysParams(), dt=0.1).residual(
            np.stack((prev.p.values, prev.p.values)))
        assert np.abs(r_p).max() <= 1e-12
        assert np.abs(r_n).max() <= 1e-12

    def test_matches_dense_assembly(self, grid8, rng):
        """Collocation residual vs dense weak-form assembly on N=8, on both paths."""
        params = PhysParams(epsilon=1.3, kappa=2.0, diffusion=0.7)
        dt = 0.05
        calm = admissible_state(grid8, rng)
        smooth = np.stack(perturbed(calm, grid8, rng, amplitude=0.05, kmax=2))
        # a near-vacuum state, whose kernel runs on the differentiation matrix
        vacuum = contrast_state(grid8, rng)
        c_vac = np.stack((vacuum.p.values, vacuum.n.values))
        near_vacuum = c_vac * np.exp(0.1 * np.stack([band_limited(grid8, rng)
                                                      for _ in range(2)]))
        dx, dy = diff_matrices_2d(8)
        ratio = params.kappa / params.diffusion
        paths = []
        for state, cand in ((calm, smooth), (vacuum, near_vacuum)):
            system = Step1System(state, params, dt)
            paths.append(system.line_path)
            ours_p, ours_n = system.residual(cand)

            # dense route: differentiation matrices, and psi by explicit DFT
            # sums on the full |k|^2 symbol, whose Nyquist modes the charge of
            # a contrast state carries
            cand_p, cand_n = (ci.ravel() for ci in cand)
            pm, nm = state.p.values.ravel(), state.n.values.ravel()
            ux, uy = (comp.ravel() for comp in state.u.values)
            psi = dft_inv_laplacian((cand[0] - cand[1]) / params.epsilon).ravel()
            m_p = pm * (1.0 + 2.0 * ratio * dt * pm)
            m_n = nm * (1.0 + 2.0 * ratio * dt * nm)
            mu = np.log(cand_p) + psi
            nu = np.log(cand_n) - psi
            dens_p = ((cand_p - pm) / dt
                      + dx @ (pm * ux) + dy @ (pm * uy)
                      + params.diffusion * (dense_weighted_laplacian(
                          m_p.reshape(8, 8)) @ mu))
            dens_n = ((cand_n - nm) / dt
                      + dx @ (nm * ux) + dy @ (nm * uy)
                      + params.diffusion * (dense_weighted_laplacian(
                          m_n.reshape(8, 8)) @ nu))
            scale = max(np.abs(dens_p).max(), np.abs(dens_n).max(), 1.0)
            assert np.abs(ours_p.ravel() - dens_p).max() <= 1e-9 * scale
            assert np.abs(ours_n.ravel() - dens_n).max() <= 1e-9 * scale
        assert paths == [False, True]

    def test_rejects_nonpositive_candidate(self, grid16, rng):
        state = admissible_state(grid16, rng)
        bad = state.p.values.copy()
        bad[2, 3] = -0.1
        with pytest.raises(NonPositiveConcentrationError):
            Step1System(state, PhysParams(), dt=0.1).residual(
                np.stack((bad, state.n.values)))


class TestJacobian:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, grid8, seed):
        rng = np.random.default_rng(1000 + seed)
        params = PhysParams(epsilon=1.4, kappa=1.8, diffusion=0.9)
        dt = 0.1
        state = admissible_state(grid8, rng)
        cand_p, cand_n = perturbed(state, grid8, rng, amplitude=0.1, kmax=2)
        dp_vals = band_limited(grid8, rng, kmax=3)
        dn_vals = band_limited(grid8, rng, kmax=3)
        dp_vals -= dp_vals.mean()
        dn_vals -= dn_vals.mean()
        system = Step1System(state, params, dt)
        c = np.stack((cand_p, cand_n))
        dc = np.stack((dp_vals, dn_vals))

        j_p, j_n = system.jacobian_action(c, dc)

        h = 1e-5
        rp_f, rn_f = system.residual(c + h * dc)
        rp_b, rn_b = system.residual(c - h * dc)
        fd_p = (rp_f - rp_b) / (2 * h)
        fd_n = (rn_f - rn_b) / (2 * h)

        num = math.sqrt(grid8.inner(fd_p - j_p, fd_p - j_p)
                        + grid8.inner(fd_n - j_n, fd_n - j_n))
        den = math.sqrt(grid8.inner(j_p, j_p) + grid8.inner(j_n, j_n))
        assert num <= 1e-6 * den


def step1_operators(grid, rng):
    """Step1System on N=8, an iterate c and the dense Jacobian J(c)."""
    params = PhysParams(epsilon=1.3, kappa=2.0, diffusion=0.7)
    state = admissible_state(grid, rng)
    cand_p, cand_n = perturbed(state, grid, rng, amplitude=0.05, kmax=2)
    system = Step1System(state, params, dt=0.05)
    c = np.stack((cand_p, cand_n))
    eye = np.eye(2 * grid.n_modes**2)
    dense = np.column_stack([system.jacobian_action(c, e) for e in eye])
    return system, c, dense


class TestPreconditionedAction:
    def test_matches_jacobian_after_preconditioner(self, grid8, rng):
        system, c, dense = step1_operators(grid8, rng)
        for e in np.eye(dense.shape[0]):
            folded, direction = system.preconditioned_action(c, e)
            expected = dense @ direction
            assert np.linalg.norm(folded - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_keeps_the_shape_of_its_input(self, grid8, rng):
        system, c, _ = step1_operators(grid8, rng)
        v = rng.standard_normal(c.shape)
        stacked = system.preconditioned_action(c, v)
        assert all(out.shape == c.shape for out in stacked)
        for flat, out in zip(system.preconditioned_action(c, v.ravel()), stacked):
            assert np.array_equal(flat, out.ravel())

    def test_transform_counts(self, grid8, rng, transforms):
        system, c, _ = step1_operators(grid8, rng)
        v = rng.standard_normal(c.size)
        transforms["calls"] = 0
        system.preconditioned_action(c, v)
        assert transforms["calls"] == 16
        transforms["calls"] = 0
        system.jacobian_action(c, v)
        assert transforms["calls"] == 13
        transforms["calls"] = 0
        system.residual(c)
        assert transforms["calls"] == 13

    def test_line_path_transform_counts(self, grid8, rng, transforms):
        system = Step1System(contrast_state(grid8, rng), PhysParams(kappa=50.0), dt=0.05)
        assert system.line_path
        c = system.c_prev
        v = rng.standard_normal(c.size)
        system.preconditioned_action(c, v)  # builds the line factors and the differentiation matrix
        for product in (partial(system.preconditioned_action, c, v),
                        partial(system.jacobian_action, c, v),
                        partial(system.residual, c)):
            transforms["calls"] = 0
            product()
            assert transforms["calls"] == 2  # the charge forward, psi back


class TestWorkArrays:
    """The spectral path's kernels write their intermediates into the system's work arrays."""

    @pytest.fixture(scope="class")
    def mms128(self):
        """Step1System of the first step from the mms128 benchmark state (N = 128, spectral path)."""
        params = PhysParams()
        cfg = SchemeConfig(n_modes=128, dt=1e-2, t_final=0.1)
        case = make_case(params)
        state = case.initial_state(cfg)
        system = Step1System(state, params, cfg.dt, case.ion_sources(cfg.dt, state.grid))
        assert not system.line_path
        return system

    def test_allocation_budget(self, mms128, rng):
        """Peak traced memory of a call, in (N, N) float64 arrays: its outputs alone.

        preconditioned_action returns 4 arrays and residual 2; the transforms
        take a few hundredths more. A temporary spectrum or field would add
        1: forming the intermediates as temporaries took 17.1 and 15.1.
        """
        c = mms128.c_prev.copy()
        v = rng.standard_normal(c.size)
        for call, outputs in ((partial(mms128.preconditioned_action, c, v), 4),
                              (partial(mms128.residual, c), 2)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1] / c[0].nbytes
            finally:
                tracemalloc.stop()
            assert peak < outputs + 0.5

    def test_results_outlive_the_next_call(self, mms128, rng):
        """GMRES keeps every P v_k, and Newton the residual, while the kernels run again."""
        c = mms128.c_prev.copy()
        first = (*mms128.preconditioned_action(c, rng.standard_normal(c.size)), mms128.residual(c))
        kept = [a.copy() for a in first]
        mms128.preconditioned_action(c, rng.standard_normal(c.size))
        mms128.residual(1.01 * c)
        mms128.jacobian_action(c, rng.standard_normal(c.size))
        for result, copy in zip(first, kept):
            assert np.array_equal(result, copy)


def transform_flux_div(grid, params, m, f, charge):
    """D div(M_i grad(f_i + z_i psi)) per species through Grid.grad and Grid.div."""
    psi = grid.inv_laplacian_zero_mean((charge - charge.mean()) / params.epsilon)
    return np.stack([params.diffusion * grid.div(*(mi * g for g in grid.grad(fi + z * psi)))
                     for fi, mi, z in zip(f, m, (1.0, -1.0))])


@pytest.fixture(params=["contrast8", "contrast16", "blob32"])
def line_path_case(request, rng):
    """(state, params, dt, system, c, dc): a line-path step, an iterate c near c_old, a direction dc."""
    if request.param == "blob32":
        state, params, cfg = blob_step(32)
        dt = cfg.dt
    else:
        state = contrast_state(make_grid(int(request.param[8:])), rng)
        params, dt = PhysParams(epsilon=1.3, kappa=50.0, diffusion=0.7), 0.05
    system = Step1System(state, params, dt)
    assert system.line_path
    grid = state.grid
    c = system.c_prev * np.exp(0.1 * np.stack([band_limited(grid, rng) for _ in range(2)]))
    dc = c * np.stack([band_limited(grid, rng) for _ in range(2)])
    return state, params, dt, system, c, dc


class TestLinePathKernel:
    """The line path's flux kernel (products with Grid.diff_matrix) against the transform form."""

    def test_residual_matches_transform_form(self, line_path_case):
        state, params, dt, system, c, _ = line_path_case
        grid = state.grid
        c_old = np.stack((state.p.values, state.n.values))
        m = mobility(c_old, dt, params.kappa, params.diffusion)
        ux, uy = state.u.values
        conv = np.stack([grid.div(ci * ux, ci * uy) for ci in c_old])
        expected = ((c - c_old) / dt + conv
                    - transform_flux_div(grid, params, m, np.log(c), c[0] - c[1]))
        ours = system.residual(c)
        assert np.linalg.norm(ours - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_jacobian_matches_transform_form(self, line_path_case):
        state, params, dt, system, c, dc = line_path_case
        c_old = np.stack((state.p.values, state.n.values))
        m = mobility(c_old, dt, params.kappa, params.diffusion)
        expected = dc / dt - transform_flux_div(state.grid, params, m, dc / c, dc[0] - dc[1])
        ours = system.jacobian_action(c, dc)
        assert np.linalg.norm(ours - expected) <= 1e-13 * np.linalg.norm(expected)


class TestGmres:
    @pytest.fixture
    def jacobian(self, grid8, rng):
        """The preconditioned product v -> (J P v, P v) and dense J on N=8."""
        system, c, dense = step1_operators(grid8, rng)
        return partial(system.preconditioned_action, c), dense

    def test_matches_dense_solve(self, jacobian, rng):
        op, dense = jacobian
        b = rng.standard_normal(dense.shape[0])
        rtol = 1e-10
        x, info = pnp.gmres(op, b, rtol=rtol, restart=300, maxiter=2)
        expected = np.linalg.solve(dense, b)
        assert info == 0
        # a residual within rtol bounds the error by cond(J) * rtol
        assert (np.linalg.norm(x - expected)
                <= np.linalg.cond(dense) * rtol * np.linalg.norm(expected))

    def test_callback_per_inner_iteration(self, jacobian, rng):
        op, dense = jacobian
        b = rng.standard_normal(dense.shape[0])
        matvecs = 0

        def counted(z):
            nonlocal matvecs
            matvecs += 1
            return op(z)

        estimates = []
        rtol = 1e-8
        x, info = pnp.gmres(counted, b, rtol=rtol, restart=300, maxiter=1,
                            callback=estimates.append, callback_type="pr_norm")
        assert info == 0
        # one product per inner iteration: a converged cycle returns on its estimate
        assert len(estimates) == matvecs > 1
        assert estimates[-1] <= rtol
        assert np.linalg.norm(b - dense @ x) <= rtol * np.linalg.norm(b)

    def test_restart_takes_one_product_per_iteration(self, jacobian, rng):
        op, dense = jacobian
        b = rng.standard_normal(dense.shape[0])
        matvecs = 0

        def counted(z):
            nonlocal matvecs
            matvecs += 1
            return op(z)

        estimates = []
        rtol, restart = 1e-8, 8  # a single cycle needs 11 iterations here
        x, info = pnp.gmres(counted, b, rtol=rtol, restart=restart, maxiter=2,
                            callback=estimates.append)
        assert info == 0
        assert len(estimates) > restart
        # the second cycle starts from the first one's residual, formed without a product
        assert matvecs == len(estimates)
        assert np.linalg.norm(b - dense @ x) <= rtol * np.linalg.norm(b)

    @pytest.mark.parametrize("restart", [300, 8])
    @pytest.mark.parametrize("variation", ["float32", "scaled"])
    def test_varying_preconditioner_meets_the_tolerance(self, jacobian, rng, variation,
                                                        restart):
        """P may change from call to call: P v rounded to float32, or scaled by 1 + 0.1 k.

        The returned x = sum_k y_k z_k meets the tolerance on the true
        residual; the update P(V y) of a fixed-preconditioner GMRES does not.
        """
        op, dense = jacobian
        b = rng.standard_normal(dense.shape[0])
        calls = 0

        def varying(v):
            nonlocal calls
            _, z = op(v)
            if variation == "float32":
                z = z.astype(np.float32).astype(float)
            else:
                z = (1.0 + 0.1 * calls) * z
            calls += 1
            return dense @ z, z

        rtol = 1e-8
        x, info = pnp.gmres(varying, b, rtol=rtol, restart=restart, maxiter=2)
        assert info == 0
        assert np.linalg.norm(b - dense @ x) <= rtol * np.linalg.norm(b)

    def test_identity_happy_breakdown(self, rng):
        b = rng.standard_normal(50)
        estimates = []
        x, info = pnp.gmres(lambda z: (z.copy(), z), b, rtol=1e-12, restart=10,
                            maxiter=2, callback=estimates.append)
        assert info == 0
        assert len(estimates) == 1
        assert np.isfinite(x).all()
        assert np.abs(x - b).max() <= 1e-14 * np.abs(b).max()

    def test_singular_operator_reports_info(self, rng):
        b = rng.standard_normal(50)
        x, info = pnp.gmres(lambda z: (np.zeros_like(z), z), b, rtol=1e-12, restart=10,
                            maxiter=2)
        assert info > 0
        assert np.array_equal(x, np.zeros_like(b))

    def test_exhausted_budget_reports_info(self, jacobian, rng):
        op, dense = jacobian
        b = rng.standard_normal(dense.shape[0])
        _, info = pnp.gmres(op, b, rtol=1e-10, restart=2, maxiter=1)
        assert info > 0


def dense_log_operator(grid, s, m):
    """A = diag(s) - div(m grad .) as a dense matrix, column by column through Grid ops."""
    n = grid.n_modes
    columns = []
    for e in np.eye(n * n):
        w = e.reshape(n, n)
        gx, gy = grid.grad(w)
        columns.append((s * w - grid.div(m * gx, m * gy)).ravel())
    return np.column_stack(columns)


class TestLinePreconditioner:
    def test_diff_matrix_reproduces_grid_derivatives(self, grid, rng):
        d = grid.diff_matrix
        f = band_limited(grid, rng)
        for ours, theirs in ((d @ f, grid.ddx(f)), (f @ d.T, grid.ddy(f))):
            assert np.abs(ours - theirs).max() <= 1e-13 * np.abs(theirs).max()
        assert np.abs(d + d.T).max() <= 1e-14 * np.abs(d).max()
        assert grid.diff_matrix is d  # built once

    def test_blocks_are_the_operator_on_each_grid_line(self, grid8, rng):
        n = grid8.n_modes
        params = PhysParams(kappa=50.0, diffusion=0.7)
        dt = 0.05
        c = contrast_state(grid8, rng).p.values
        s = c / dt
        m = params.diffusion * mobility(c, dt, params.kappa, params.diffusion)
        dense = dense_log_operator(grid8, s, m)
        d = grid8.diff_matrix
        outer = line_outer(d)
        lines = [(line_blocks(outer, s, m), lambda j: np.s_[j::n]),  # columns: cells (., j)
                 (line_blocks(outer, s.T, m.T), lambda i: np.s_[i * n:(i + 1) * n])]  # rows
        for blocks, cells in lines:
            for k, block in enumerate(blocks):
                expected = dense[cells(k), cells(k)]
                assert np.linalg.norm(block - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_block_inverse_falls_back_to_lu(self, rng):
        half = rng.standard_normal((3, 6, 6))
        stack = half @ half.transpose(0, 2, 1) + 0.1 * np.eye(6)  # positive definite
        stack[1] = half[1] + half[1].T  # indefinite: no Cholesky factor
        expected = np.linalg.inv(stack)
        ours = pnp._invert_spd(stack.copy())
        for block, ref in zip(ours, expected):
            assert np.linalg.norm(block - ref) <= 1e-12 * np.linalg.norm(ref)
        for k in (0, 2):  # Cholesky inverses are mirrored from their upper triangle
            assert np.array_equal(ours[k], ours[k].T)

    def test_preconditioner_is_two_line_sweeps(self, grid8, rng):
        n = grid8.n_modes
        params = PhysParams(kappa=50.0, diffusion=0.7)
        dt = 0.05
        state = contrast_state(grid8, rng)
        system = Step1System(state, params, dt)
        assert system.line_path
        v = rng.standard_normal((2, n, n))
        _, got = system.preconditioned_action(system.c_prev, v)
        # the dense float64 solves against factors stored and applied in float32
        tol = 8 * np.finfo(np.float32).eps
        cell = np.arange(n * n)
        same_column = cell[:, None] % n == cell[None, :] % n
        same_row = cell[:, None] // n == cell[None, :] // n
        for c, m, vi, ours in zip(system.c_prev, system.m, v, got):
            a = dense_log_operator(grid8, c / dt, params.diffusion * m)
            w = np.linalg.solve(np.where(same_column, a, 0.0), vi.ravel())
            w += np.linalg.solve(np.where(same_row, a, 0.0), vi.ravel() - a @ w)
            expected = c.ravel() * w
            assert np.linalg.norm(ours.ravel() - expected) <= tol * np.linalg.norm(expected)

    def test_factors_are_float32(self, rng):
        """Each species holds its two inverted stacks in float32: 2 N^3 4 bytes."""
        grid = make_grid(16)
        n = grid.n_modes
        system = Step1System(contrast_state(grid, rng), PhysParams(kappa=50.0), dt=0.05)
        assert system.line_path
        lines = system._lines
        assert len(lines) == 2
        for line in lines:
            assert line.inv_x.dtype == line.inv_y.dtype == np.float32
            assert line.inv_x.nbytes + line.inv_y.nbytes == 2 * n**3 * 4

    def test_stacks_match_the_loop_of_line_products(self, grid, rng):
        """The one-GEMM stack against N products d^T diag(m[:, j]) d."""
        d = grid.diff_matrix
        c = contrast_state(grid, rng).p.values
        s, m = c / 0.05, 0.7 * mobility(c, 0.05, 50.0, 0.7)
        ours = line_blocks(line_outer(d), s, m)
        diag = np.arange(grid.n_modes)
        for block, mj, sj, yj in zip(ours, m.T, s.T, (m @ (d * d)).T):
            expected = d.T * mj @ d
            expected[diag, diag] += sj + yj
            assert np.linalg.norm(block - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_path_follows_the_contrast(self, rng):
        from pnpns import mms
        from pnpns.integrator import initialize
        grid = make_grid(32)
        cfg = SchemeConfig(n_modes=32, dt=0.01, t_final=0.01)
        params = PhysParams()
        charge = band_limited(grid, rng, kmax=8, amplitude=0.2)
        smooth = [
            admissible_state(grid, rng),
            mms.make_case(params).initial_state(cfg),
            initialize(1.0 + charge - charge.mean(), 1.0 - charge + charge.mean(),
                       div_free_velocity(grid, rng, amplitude=2.0, kmax=8), params, cfg),
        ]
        for state in smooth:
            assert not Step1System(state, params, cfg.dt).line_path
        state, params, cfg = blob_step(64)
        assert Step1System(state, params, cfg.dt).line_path


class TestFunctional:
    def test_uniform_rest_value(self, grid16):
        prev = rest_state(grid16)
        value = step1_objective(Step1System(prev, PhysParams(), dt=0.1), np.ones((2, 16, 16)))
        assert value == pytest.approx(-2.0 * TWO_PI**2, rel=1e-12)

    def test_rejects_mass_mismatch(self, grid8, rng):
        state = admissible_state(grid8, rng)
        shifted = np.stack((state.p.values + 0.1, state.n.values))
        with pytest.raises(MassMismatchError):
            step1_objective(Step1System(state, PhysParams(), dt=0.1), shifted)

    @pytest.mark.parametrize("seed", range(4))
    def test_midpoint_convexity(self, grid8, seed):
        rng = np.random.default_rng(2000 + seed)
        state = admissible_state(grid8, rng)
        system = Step1System(state, PhysParams(), dt=0.05)
        for _ in range(5):
            a = np.stack(perturbed(state, grid8, rng, amplitude=0.25))
            b = np.stack(perturbed(state, grid8, rng, amplitude=0.25))
            j_a = step1_objective(system, a)
            j_b = step1_objective(system, b)
            j_mid = step1_objective(system, 0.5 * (a + b))
            assert j_mid <= 0.5 * (j_a + j_b) + 1e-10

    def test_solution_certifies_minimum(self, grid8, rng):
        state = admissible_state(grid8, rng)
        params = PhysParams()
        cfg = SchemeConfig(n_modes=8, dt=0.05, t_final=0.05)
        result = solve_step1(state, params, cfg.dt, cfg)
        system = Step1System(state, params, cfg.dt)
        j_initial = step1_objective(system, system.c_prev)
        j_final = step1_objective(system, result.c)
        assert j_final <= j_initial + 1e-12 * abs(j_initial)
        # local-minimum certificate against admissible perturbations
        for k in range(20):
            prng = np.random.default_rng(3000 + k)
            dp = band_limited(grid8, prng, kmax=3, amplitude=0.02)
            dn = band_limited(grid8, prng, kmax=3, amplitude=0.02)
            trial = result.c + np.stack((dp - dp.mean(), dn - dn.mean()))
            j_trial = step1_objective(system, trial)
            assert j_final <= j_trial + 1e-10 * abs(j_trial)


class TestSolveStep1:
    def test_uniform_fixed_point(self, grid16):
        prev = rest_state(grid16)
        cfg = SchemeConfig(n_modes=16, dt=0.1, t_final=0.1)
        result = solve_step1(prev, PhysParams(), cfg.dt, cfg)
        assert result.newton_iters == 0
        assert np.array_equal(result.c[0], prev.p.values)
        assert np.array_equal(result.c[1], prev.p.values)

    @pytest.mark.parametrize("seed", range(5))
    def test_mass_and_positivity(self, grid8, seed):
        rng = np.random.default_rng(4000 + seed)
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        result = solve_step1(state, PhysParams(), cfg.dt, cfg)
        assert result.c[0].min() > 0
        assert result.c[1].min() > 0
        assert abs(grid8.integral(result.c[0]) - mass(state.p)) <= 1e-11 * mass(state.p)
        assert abs(grid8.integral(result.c[1]) - mass(state.n)) <= 1e-11 * mass(state.n)
        assert result.final_residual <= cfg.newton_tol * (
            1.0 + math.sqrt(grid8.inner(state.p.values, state.p.values)
                            + grid8.inner(state.n.values, state.n.values)))

    def test_consistency_fields(self, grid8, rng):
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        params = PhysParams(epsilon=1.5)
        result = solve_step1(state, params, cfg.dt, cfg)
        psi = compute_psi(grid8, result.c[0], result.c[1], params.epsilon)
        assert np.abs(psi - result.psi).max() <= 1e-13
        _, mu = Step1System(state, params, cfg.dt).potentials(result.c)
        assert np.abs(mu[0] - result.mu[0]).max() <= 1e-13
        assert np.abs(mu[1] - result.mu[1]).max() <= 1e-13

    def test_deterministic(self, grid8, rng):
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        r1 = solve_step1(state, PhysParams(), cfg.dt, cfg)
        r2 = solve_step1(state, PhysParams(), cfg.dt, cfg)
        assert np.array_equal(r1.c[0], r2.c[0])
        assert np.array_equal(r1.c[1], r2.c[1])

    def test_no_convergence_raises(self, grid8, rng):
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02, newton_max_iter=0)
        with pytest.raises(NoConvergenceError):
            solve_step1(state, PhysParams(), cfg.dt, cfg)

    def test_stall_names_unconverged_inner_solve(self, grid8, rng, monkeypatch):
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        monkeypatch.setattr(pnp, "gmres", lambda A, b, **kwargs: (np.zeros_like(b), 1))
        with pytest.raises(NoConvergenceError,
                           match=r"line search stalled after an unconverged inner GMRES "
                                 r"solve \(1 iterations, relative residual 1\.000e\+00 "
                                 r"> 0\.0001\)"):
            solve_step1(state, PhysParams(), cfg.dt, cfg)

    def test_stall_names_the_tolerance_of_the_failed_solve(self, grid8, rng, monkeypatch):
        """A stall after an aimed solve prints that solve's tolerance, not the fixed one."""
        state = admissible_state(grid8, rng)
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        rtols = []
        solve = pnp.gmres

        def second_fails(A, b, **kwargs):
            rtols.append(kwargs["rtol"])
            if len(rtols) == 2:
                return np.zeros_like(b), 1
            return solve(A, b, **kwargs)

        monkeypatch.setattr(pnp, "gmres", second_fails)
        with pytest.raises(NoConvergenceError) as failure:
            solve_step1(state, PhysParams(), cfg.dt, cfg)
        assert len(rtols) == 2
        assert rtols[1] < pnp.NEWTON_GMRES_TOL
        assert f"relative residual 1.000e+00 > {rtols[1]:g})" in str(failure.value)

    def test_rejects_degenerate_previous_state(self, grid8, rng):
        state = admissible_state(grid8, rng)
        state.p.values[0, 0] = 1e-15
        cfg = SchemeConfig(n_modes=8, dt=0.02, t_final=0.02)
        with pytest.raises(NonPositiveConcentrationError):
            solve_step1(state, PhysParams(), cfg.dt, cfg)

    def test_one_step_local_order(self):
        """Halving dt quarters the one-step error of the transport solve."""
        from pnpns import mms
        params = PhysParams()
        case = mms.make_case(params)
        errors = []
        for dt in (4e-2, 2e-2, 1e-2):
            cfg = SchemeConfig(n_modes=32, dt=dt, t_final=10 * dt)
            state = case.initial_state(cfg)
            grid = state.grid
            sources = case.ion_sources(dt, grid)
            result = solve_step1(state, params, dt, cfg, sources=sources)
            p_exact, n_exact, *_ = case.exact_state(dt, grid)
            err = math.sqrt(
                grid.inner(result.c[0] - p_exact.values, result.c[0] - p_exact.values)
                + grid.inner(result.c[1] - n_exact.values, result.c[1] - n_exact.values))
            errors.append(err)
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_blob_preset_single_step(self, monkeypatch):
        """First transport step of the two-blob experiment at kappa = 1e4."""
        solves = counting_gmres(monkeypatch)
        state, params, cfg = blob_step(64)
        result = solve_step1(state, params, cfg.dt, cfg)
        assert result.c[0].min() > 0
        assert result.c[1].min() > 0
        grid = state.grid
        assert abs(grid.integral(result.c[0]) - mass(state.p)) <= 1e-11 * mass(state.p)
        assert abs(grid.integral(result.c[1]) - mass(state.n)) <= 1e-11 * mass(state.n)
        inner_iters = [iters for iters, *_ in solves]
        # Krylov-work guard: 2 + 3 + 5 = 10 inner iterations when written
        assert len(inner_iters) == result.newton_iters == 3
        assert sum(inner_iters) <= 1.25 * 10
        # the step reports the products: one per inner iteration, no residual check
        assert result.krylov_iters == sum(products for _, products, *_ in solves)
        assert result.krylov_iters == sum(inner_iters)
        assert result.krylov_iters_max == max(inner_iters)
        # the line path keeps the fixed inner tolerance
        assert all(rtol == pnp.NEWTON_GMRES_TOL for *_, rtol, _ in solves)

    @pytest.mark.parametrize("path", ["spectral", "line"])
    def test_preconditioner_applied_once_per_product(self, monkeypatch, grid8, rng, path):
        """GMRES returns the update from the P v it kept: no P after the solve."""
        if path == "line":
            state, params, cfg = blob_step(32)
        else:
            state, params = admissible_state(grid8, rng), PhysParams()
            cfg = SchemeConfig(n_modes=8, dt=0.05, t_final=0.05)
        assert Step1System(state, params, cfg.dt).line_path == (path == "line")
        applies = 0
        precondition = Step1System._precondition

        def counted(self, v):
            nonlocal applies
            applies += 1
            return precondition(self, v)

        monkeypatch.setattr(Step1System, "_precondition", counted)
        result = solve_step1(state, params, cfg.dt, cfg)
        assert result.newton_iters > 0
        assert applies == result.krylov_iters

    @staticmethod
    def first_mms_step(monkeypatch, dt):
        """The GMRES solves, result and Newton threshold of the first MMS ion step at N=32."""
        from pnpns import mms
        solves = counting_gmres(monkeypatch)
        params = PhysParams()
        case = mms.make_case(params)
        cfg = SchemeConfig(n_modes=32, dt=dt, t_final=10 * dt)
        state = case.initial_state(cfg)
        result = solve_step1(state, params, dt, cfg, sources=case.ion_sources(dt, state.grid))
        system = Step1System(state, params, dt)
        threshold = cfg.newton_tol * (1.0 + system.norm(system.c_prev))
        return solves, result, system, threshold

    def test_mms_step_aims_its_last_solve_at_the_threshold(self, monkeypatch):
        """A smooth step ends after 2 Newton iterations, where a fixed tolerance takes 3."""
        solves, result, _, threshold = self.first_mms_step(monkeypatch, 1e-2)
        assert result.newton_iters == len(solves) == 2
        assert result.final_residual <= threshold
        # Krylov-work guard: 4 + 13 = 17 products when written (27 with a fixed tolerance)
        assert result.krylov_iters <= 1.25 * 17

    @pytest.mark.parametrize("dt", [4e-2, 1e-2])
    def test_forcing_term_follows_the_residual_history(self, monkeypatch, dt):
        solves, _, system, threshold = self.first_mms_step(monkeypatch, dt)
        tol = pnp.NEWTON_GMRES_TOL
        rtols = [rtol for *_, rtol, _ in solves]
        # each solve's right-hand side is minus the Newton residual it starts from
        residuals = [system.norm(b.reshape(system.c_prev.shape)) for *_, b in solves]
        assert rtols[0] == tol
        assert all(tol**2 <= rtol <= tol for rtol in rtols[1:])
        assert min(rtols[1:]) < tol
        for rtol, res, res_prev in zip(rtols[1:], residuals[1:], residuals):
            expected = min(tol, max(0.9 * (res / res_prev) ** 2, 0.5 * threshold / res, tol**2))
            assert rtol == pytest.approx(expected, rel=1e-12)

    def test_fine_blob_step_stays_in_one_restart_cycle(self, monkeypatch):
        """The N=128 two-blob step, whose GMRES solves used to restart."""
        solves = counting_gmres(monkeypatch)
        state, params, cfg = blob_step(128)
        result = solve_step1(state, params, cfg.dt, cfg)
        assert result.c[0].min() > 0
        assert result.c[1].min() > 0
        assert len(solves) == result.newton_iters
        for iters, products, info, *_ in solves:
            # one cycle that returns on its estimate: every product is an iteration
            assert info == 0
            assert products == iters <= pnp.NEWTON_GMRES_RESTART

    @pytest.mark.xfail(raises=NoConvergenceError, strict=True, reason=(
        "on the coarse N=20 grid the Newton iterates of the two-blob step drive "
        "min(p, n) from the 1e-6 floor down to 2.6e-12, the fraction-to-boundary rule "
        "caps every step near alpha = 0.06, and the solve exhausts its 30 Newton "
        "iterations at residual ~17 (N=12 stalls in the line search after 15, N=22 "
        "exhausts its 30 at residual 6.3, and N=16 stalls after 7 at 5.8e-10, its "
        "roundoff floor, above the 3.4e-10 threshold; N=18, 24 and 32 converge), "
        "although the step's convex problem has a positive minimizer"))
    def test_coarse_blob_step_converges(self):
        state, params, cfg = blob_step(20)
        result = solve_step1(state, params, cfg.dt, cfg)
        assert result.c[0].min() > 0
