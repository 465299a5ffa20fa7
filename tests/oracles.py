"""Independent oracles: direct DFT, dense differentiation matrices, dense
weak-form assembly, and a finite-difference forcing check; and the
certificates the solver never evaluates: the weighted Laplacian, its
conjugate-gradient inverse and the ion step's convex objective.

The oracles do not touch the FFT machinery under test: derivatives come
from the closed-form trigonometric cardinal-function matrix and transforms
from the explicit DFT sum. The certificates do: laplacian,
apply_weighted_laplacian, solve_weighted_laplacian and step1_objective are
built on the grid's transforms, and are themselves checked against the
dense oracles.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from pnpns import pnp
from pnpns.errors import MassMismatchError, NoConvergenceError, NonZeroMeanError

TWO_PI = 2.0 * np.pi

#: default relative tolerance / iteration budget for the weighted Poisson solve
CG_DEFAULT_TOL = 1e-12
CG_MAX_ITER_PER_MODE = 50


def direct_dft2(values: np.ndarray) -> np.ndarray:
    """Amplitude-normalized 2-D DFT by explicit summation (O(N^4) work)."""
    n = values.shape[0]
    j = np.arange(n)
    k = np.fft.fftfreq(n, d=1.0 / n)  # ordering matches the package convention
    e = np.exp(-2j * np.pi * np.outer(k, j) / n)
    return e @ values @ e.T / (n * n)


def fourier_diff_matrix(n: int) -> np.ndarray:
    """Trigonometric collocation differentiation matrix on [0, 2pi), even n.

    Closed form d[j,m] = (-1)^(j-m) / (2 tan((j-m) pi / n)) for j != m; this
    is the derivative of the trig interpolant with the unmatched Nyquist mode
    dropped, matching the solver's first-derivative convention.
    """
    d = np.zeros((n, n))
    for j in range(n):
        for m in range(n):
            if j != m:
                d[j, m] = 0.5 * (-1.0) ** (j - m) / np.tan((j - m) * np.pi / n)
    return d


def diff_matrices_2d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker lifts of the 1-D matrix: d/dx acts on the row index."""
    d = fourier_diff_matrix(n)
    eye = np.eye(n)
    return np.kron(d, eye), np.kron(eye, d)


def dense_weighted_laplacian(m_values: np.ndarray) -> np.ndarray:
    """Weak-form assembly of f -> -div(M grad f) on the flattened grid.

    <L f, v> = <M grad f, grad v> with the uniform quadrature weights
    cancelling: L = Dx^T diag(M) Dx + Dy^T diag(M) Dy.
    """
    n = m_values.shape[0]
    dx, dy = diff_matrices_2d(n)
    m_diag = np.diag(m_values.ravel())
    return dx.T @ m_diag @ dx + dy.T @ m_diag @ dy


def dense_solve_zero_mean(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm solve of the (constant-nullspace) dense system."""
    sol, *_ = np.linalg.lstsq(matrix, rhs.ravel(), rcond=None)
    sol = sol - sol.mean()
    n = int(round(np.sqrt(rhs.size)))
    return sol.reshape(n, n)


def dft_inv_laplacian(values: np.ndarray) -> np.ndarray:
    """Zero-mean g with -lap g = values on the full |k|^2 symbol, by explicit DFT sums.

    The Nyquist modes keep their symbol, as in Grid.inv_laplacian_zero_mean.
    A pseudo-inverse of dense_weighted_laplacian(ones), D^T D, drops them,
    since the first-derivative matrices zero the Nyquist mode.
    """
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    inv_k2 = np.zeros_like(k2)
    inv_k2[k2 > 0] = 1.0 / k2[k2 > 0]
    e = np.exp(2j * np.pi * np.outer(np.arange(n), k) / n)  # inverse of direct_dft2
    return (e @ (inv_k2 * direct_dft2(values)) @ e.T).real


# ---------------------------------------------------------------------------
# certificates on the grid's transforms
# ---------------------------------------------------------------------------

def laplacian(grid, values: np.ndarray) -> np.ndarray:
    """The spectral Laplacian: mode (k, l) times -(k^2 + l^2)."""
    return grid.irfft(-grid.k2 * grid.rfft(values))


def _check_mobility(m_values: np.ndarray) -> None:
    m_min = m_values.min()
    if m_min <= 0.0:
        raise ValueError(f"mobility must be positive, min={m_min:.3e}")


def apply_weighted_laplacian(grid, m_values: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    """-div(M grad f) with the product formed in physical space.

    This is the collocation realization of the weak operator
    <out, v> = <M grad f, grad v> for every test field v; for the uniform
    grid the two coincide because the differentiation matrix is
    antisymmetric.
    """
    _check_mobility(m_values)
    gx, gy = grid.grad(f_values)
    return -grid.div(m_values * gx, m_values * gy)


def solve_weighted_laplacian(grid, m_values: np.ndarray, f_values: np.ndarray,
                             tol: float = CG_DEFAULT_TOL,
                             max_iter: int | None = None) -> np.ndarray:
    """Solve -div(M grad g) = f for the zero-mean g.

    Conjugate gradients preconditioned with the constant-coefficient
    inverse Laplacian (diagonal in Fourier space). The right-hand side
    must have zero mean; the solution mean is pinned to zero.
    """
    _check_mobility(m_values)
    n = grid.n_modes
    rhs_norm = grid.norm(f_values)
    if abs(grid.integral(f_values)) > 1e-10 * max(rhs_norm, 1e-300):
        raise NonZeroMeanError(
            f"solve requires a zero-mean rhs; <f,1>={grid.integral(f_values):.3e}"
        )
    if rhs_norm == 0.0:
        return np.zeros_like(f_values)
    if max_iter is None:
        max_iter = CG_MAX_ITER_PER_MODE * n

    shape = (n, n)

    def matvec(vec: np.ndarray) -> np.ndarray:
        return apply_weighted_laplacian(grid, m_values, vec.reshape(shape)).ravel()

    def precond(vec: np.ndarray) -> np.ndarray:
        spec = grid.rfft(vec.reshape(shape))
        # zero-mean component through (-lap)^{-1}; the (0,0) mode passes
        # through unchanged so the operator stays SPD on all of R^{N^2}
        dc = spec[0, 0]
        spec = spec * grid.inv_k2
        spec[0, 0] = dc
        return grid.irfft(spec).ravel()

    op = LinearOperator((n * n, n * n), matvec=matvec, dtype=float)
    pre = LinearOperator((n * n, n * n), matvec=precond, dtype=float)
    iters = 0

    def count(_xk):
        nonlocal iters
        iters += 1

    sol, info = cg(op, f_values.ravel(), rtol=tol, atol=0.0,
                   maxiter=max_iter, M=pre, callback=count)
    g = sol.reshape(shape)
    if info > 0:
        res = grid.norm(matvec(sol).reshape(shape) - f_values) / rhs_norm
        raise NoConvergenceError("weighted Poisson solve stalled", iters, res)
    return g - g.mean()


def step1_objective(system, c: np.ndarray) -> float:
    """Convex objective whose minimizer over the mass shell is the ion step's solution.

    system is the step's pnp.Step1System, c a stacked (2, N, N) candidate.
    Quadratic transport-metric terms in the inverse weighted-Laplacian
    norms, explicit-convection coupling through the same inverse operator,
    mixing entropies, and the electrostatic H^{-1} energy:

        sum_i (1/(2 D dt)) ||c_i - c_i_old||^2_{M_i,-1}
      + sum_i (1/D) <L_{M_i}^{-1} div(c_i_old u_old), c_i>
      + sum_i <c_i (ln c_i - 1), 1>
      + (1/(2 eps)) <p - n, (-lap)^{-1}(p - n)>

    The 1/D and 1/(2 eps) scalings make the Euler-Lagrange equation of
    this objective exactly the residual equations without sources (the
    potential term differentiates to psi). Candidates must be strictly
    positive and carry the same masses as the previous state.
    """
    grid = system.grid
    d = system.params.diffusion
    pnp._require_positive(c)
    mass_scale = abs(grid.integral(system.c_prev[0])) + abs(grid.integral(system.c_prev[1]))
    for cand, ref, name in zip(c, system.c_prev, pnp.SPECIES):
        drift = abs(grid.integral(cand) - grid.integral(ref))
        if drift > 1e-9 * max(mass_scale, 1.0):
            raise MassMismatchError(f"candidate {name} mass differs by {drift:.3e}")

    total = 0.0
    for cand, ref, m in zip(c, system.c_prev, system.m):
        diff = cand - ref
        diff = diff - diff.mean()  # strip quadrature-level roundoff
        if grid.norm(diff) > 0.0:
            inv_diff = solve_weighted_laplacian(grid, m, diff)
            total += grid.inner(diff, inv_diff) / (2.0 * d * system.dt)
    for cand, conv, m in zip(c, system.conv, system.m):
        if grid.norm(conv) > 0.0:
            inv_conv = solve_weighted_laplacian(grid, m, conv)
            total += grid.inner(inv_conv, cand) / d
    for cand in c:
        total += grid.integral(cand * (np.log(cand) - 1.0))

    charge = c[0] - c[1]
    charge = charge - charge.mean()
    if grid.norm(charge) > 0.0:
        inv_charge = grid.inv_laplacian_zero_mean(charge)
        total += grid.inner(charge, inv_charge) / (2.0 * system.params.epsilon)
    return float(total)


# ---------------------------------------------------------------------------
# finite-difference forcing oracle
# ---------------------------------------------------------------------------

def _roll_axis(values: np.ndarray, shift: int, axis: int) -> np.ndarray:
    return np.roll(values, -shift, axis=axis)


def fd_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order central first derivative on the periodic probe grid."""
    f1 = _roll_axis(values, 1, axis)
    f2 = _roll_axis(values, 2, axis)
    b1 = _roll_axis(values, -1, axis)
    b2 = _roll_axis(values, -2, axis)
    return (-f2 + 8.0 * f1 - 8.0 * b1 + b2) / (12.0 * h)


def fd_time_derivative(sample, t: float, ht: float = 1e-3) -> np.ndarray:
    """4th-order central time derivative of a field-valued function of t."""
    return (-sample(t + 2 * ht) + 8.0 * sample(t + ht)
            - 8.0 * sample(t - ht) + sample(t - 2 * ht)) / (12.0 * ht)


class FdForcingOracle:
    """Assembles the manufactured forcing terms by finite differences only.

    The exact fields are restated here in closed form (independent of the
    package's symbolic derivation); all space and time derivatives use
    4th-order central differences on an n_probe^2 periodic grid.
    """

    def __init__(self, params, variant: str, n_probe: int = 512):
        self.eps = params.epsilon
        self.kappa = params.kappa
        self.diff = params.diffusion
        self.visc = params.viscosity
        self.variant = variant
        self.n = n_probe
        self.h = TWO_PI / n_probe
        coords = np.arange(n_probe) * self.h
        self.x, self.y = np.meshgrid(coords, coords, indexing="ij")

    # closed forms, restated independently of the package
    def p(self, t):
        return 1.1 + np.cos(self.x) * np.cos(self.y) * np.sin(t)

    def n_field(self, t):
        return 1.1 - np.cos(self.x) * np.cos(self.y) * np.cos(t)

    def psi(self, t):
        return np.cos(self.x) * np.cos(self.y) * (np.sin(t) + np.cos(t)) / (2 * self.eps)

    def u1(self, t):
        return np.sin(self.x) ** 2 * np.sin(2 * self.y) * np.sin(t)

    def u2(self, t):
        g = np.sin(t) if self.variant == "divergence-free" else np.cos(t)
        return -np.sin(2 * self.x) * np.sin(self.y) ** 2 * g

    def pressure(self, t):
        return np.cos(self.x) * np.cos(self.y) * np.sin(t)

    def _dx(self, f):
        return fd_derivative(f, 0, self.h)

    def _dy(self, f):
        return fd_derivative(f, 1, self.h)

    def _lap(self, f):
        return self._dx(self._dx(f)) + self._dy(self._dy(f))

    def ion_parts(self, t: float):
        """(u.grad p, p_t - D div(grad p + p grad psi)) split for f_p."""
        p = self.p(t)
        psi = self.psi(t)
        u1, u2 = self.u1(t), self.u2(t)
        advect = u1 * self._dx(p) + u2 * self._dy(p)
        flux_x = self._dx(p) + p * self._dx(psi)
        flux_y = self._dy(p) + p * self._dy(psi)
        rest = (fd_time_derivative(self.p, t)
                - self.diff * (self._dx(flux_x) + self._dy(flux_y)))
        return advect, rest

    def f_p(self, t: float):
        advect, rest = self.ion_parts(t)
        return advect + rest

    def f_n(self, t: float):
        n = self.n_field(t)
        psi = self.psi(t)
        u1, u2 = self.u1(t), self.u2(t)
        advect = u1 * self._dx(n) + u2 * self._dy(n)
        flux_x = self._dx(n) - n * self._dx(psi)
        flux_y = self._dy(n) - n * self._dy(psi)
        return (fd_time_derivative(self.n_field, t) + advect
                - self.diff * (self._dx(flux_x) + self._dy(flux_y)))

    def f_u(self, t: float):
        u1, u2 = self.u1(t), self.u2(t)
        psi = self.psi(t)
        charge = self.p(t) - self.n_field(t)
        fx = (fd_time_derivative(self.u1, t)
              + u1 * self._dx(u1) + u2 * self._dy(u1)
              - self.visc * self._lap(u1)
              + self._dx(self.pressure(t)) + self.kappa * charge * self._dx(psi))
        fy = (fd_time_derivative(self.u2, t)
              + u1 * self._dx(u2) + u2 * self._dy(u2)
              - self.visc * self._lap(u2)
              + self._dy(self.pressure(t)) + self.kappa * charge * self._dy(psi))
        return fx, fy

    def sample_at(self, values: np.ndarray, grid) -> np.ndarray:
        """Restrict a probe-grid field to a coarse collocation grid."""
        stride = self.n // grid.n_modes
        if stride * grid.n_modes != self.n:
            raise ValueError("probe grid must be a multiple of the target grid")
        return values[::stride, ::stride]
