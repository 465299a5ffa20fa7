"""Real 2-D Fourier collocation on the periodic square (0, 2pi)^2.

Fields are sampled on the uniform N x N grid x_i = 2*pi*i/N, y_j = 2*pi*j/N
(row index i runs over x, column index j over y). Derivatives are exact in
the trigonometric-interpolant sense: multiply mode (k, l) by ik, il or
-(k^2 + l^2). Nonlinear terms are formed by pointwise multiplication on the
collocation grid, the products the scheme's guarantees are proved for.

Conventions fixed here and relied on everywhere else:
  * quadrature weight (2*pi/N)^2 at every point, so the discrete inner
    product of two band-limited fields equals the L2 integral exactly
    whenever the product is resolved;
  * the unmatched Nyquist mode k = -N/2 is zeroed in first derivatives so
    that derivatives of real fields stay real;
  * pure-periodic elliptic solves pin the (0, 0) coefficient of the
    solution to zero (zero-mean gauge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator, cg

from .errors import (
    GridMismatchError,
    NoConvergenceError,
    NonPositiveMobilityError,
    NonZeroMeanError,
)

TWO_PI = 2.0 * np.pi

#: default relative tolerance / iteration budget for the weighted Poisson solve
CG_DEFAULT_TOL = 1e-12
CG_MAX_ITER_PER_MODE = 50


class Grid:
    """Collocation grid on (0, 2pi)^2 with cached spectral machinery.

    Immutable after construction, apart from the differentiation matrix,
    which is built on first use; safe to share between threads. All array
    attributes are read-only views.
    """

    def __init__(self, n_modes: int):
        if n_modes < 4 or n_modes % 2 != 0:
            raise ValueError(f"n_modes must be even and >= 4, got {n_modes}")
        self.n_modes = int(n_modes)
        n = self.n_modes
        self.weight = (TWO_PI / n) ** 2

        coords = np.arange(n) * (TWO_PI / n)
        self.x = coords.copy()
        self.y = coords.copy()
        self.xx, self.yy = np.meshgrid(coords, coords, indexing="ij")

        # rfft2 layout: full FFT along axis 0 (x), real FFT along axis 1 (y).
        kx = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers, domain 2*pi
        ky = np.arange(n // 2 + 1, dtype=float)
        kx_col = kx[:, None]
        ky_row = ky[None, :]

        # first derivatives drop the unmatched -N/2 mode
        kx_odd = kx.copy()
        kx_odd[n // 2] = 0.0
        ky_odd = ky.copy()
        ky_odd[-1] = 0.0
        self._ikx = 1j * kx_odd[:, None]
        self._iky = 1j * ky_odd[None, :]

        self._k2 = kx_col**2 + ky_row**2
        inv_k2 = np.zeros_like(self._k2)
        nonzero = self._k2 > 0
        inv_k2[nonzero] = 1.0 / self._k2[nonzero]
        self._inv_k2 = inv_k2

        # |k|^2 built from the derivative wavenumbers (Nyquist rows zeroed);
        # used by the velocity projector so that div(project(v)) vanishes
        # identically for any input, Nyquist content included
        k2_grad = kx_odd[:, None] ** 2 + ky_odd[None, :] ** 2
        inv_k2_grad = np.zeros_like(k2_grad)
        nz = k2_grad > 0
        inv_k2_grad[nz] = 1.0 / k2_grad[nz]
        self._inv_k2_grad = inv_k2_grad

        for arr in (self.x, self.y, self.xx, self.yy, self._k2, self._inv_k2,
                    self._inv_k2_grad, self._ikx, self._iky):
            arr.setflags(write=False)

    # -- equality / hashing: a grid is fully determined by N ---------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n_modes == self.n_modes

    def __hash__(self) -> int:
        return hash(("Grid", self.n_modes))

    def __repr__(self) -> str:
        return f"Grid(n_modes={self.n_modes})"

    # -- transforms (array level) -------------------------------------------
    def rfft(self, values: np.ndarray) -> np.ndarray:
        return scipy.fft.rfft2(values)

    def irfft(self, coeffs: np.ndarray) -> np.ndarray:
        return scipy.fft.irfft2(coeffs, s=(self.n_modes, self.n_modes))

    # -- derivatives (array level) -------------------------------------------
    def ddx(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(self._ikx * self.rfft(values))

    def ddy(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(self._iky * self.rfft(values))

    @cached_property
    def diff_matrix(self) -> np.ndarray:
        """The 1-D spectral differentiation matrix d: ddx(f) = d @ f, ddy(f) = f @ d.T.

        ddx applied to the identity; antisymmetric, with the Nyquist mode
        zeroed like the first derivatives. Built once, on first use.
        """
        d = self.ddx(np.eye(self.n_modes))
        d.setflags(write=False)
        return d

    def grad(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.grad_spectrum(self.rfft(values))

    def grad_spectrum(self, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the field whose half spectrum is spec."""
        return self.irfft(self._ikx * spec), self.irfft(self._iky * spec)

    def div(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        return self.irfft(self._ikx * self.rfft(vx) + self._iky * self.rfft(vy))

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(-self._k2 * self.rfft(values))

    # -- quadrature ------------------------------------------------------------
    def integral(self, values: np.ndarray) -> float:
        return float(values.sum() * self.weight)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return float((u * v).sum() * self.weight)

    def norm(self, values: np.ndarray) -> float:
        return float(np.sqrt((values * values).sum() * self.weight))

    # -- elliptic solves ---------------------------------------------------------
    def inv_laplacian_zero_mean(self, values: np.ndarray,
                                scale: float | None = None) -> np.ndarray:
        """Solve -lap(g) = values with <g, 1> = 0; requires zero-mean input.

        The mean is judged against `scale` (default: the norm of values). A
        caller whose values are a difference of larger fields passes their
        size, since the mean carries their roundoff.
        """
        if scale is None:
            scale = self.norm(values)
        if abs(self.integral(values)) > 1e-10 * max(scale, 1e-300):
            raise NonZeroMeanError(
                f"inv_laplacian requires a zero-mean source; <f,1>={self.integral(values):.3e}"
            )
        spec = self.rfft(values)
        spec = spec * self._inv_k2  # (0,0) entry of inv_k2 is 0: mean pinned
        return self.irfft(spec)

    def project_div_free(self, vx: np.ndarray, vy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remove the gradient part: v - grad(inv_lap(div v)) (spectral Leray)."""
        sx = self.rfft(vx)
        sy = self.rfft(vy)
        d = self._ikx * sx + self._iky * sy
        # lap(chi) = div v, gradient-consistent inverse, zero mean
        chi = -d * self._inv_k2_grad
        return self.irfft(sx - self._ikx * chi), self.irfft(sy - self._iky * chi)

    def apply_weighted_laplacian(self, m_values: np.ndarray,
                                 f_values: np.ndarray) -> np.ndarray:
        """-div(M grad f) with the product formed in physical space.

        This is the collocation realization of the weak operator
        <out, v> = <M grad f, grad v> for every test field v; for the uniform
        grid the two coincide because the differentiation matrix is
        antisymmetric.
        """
        _check_mobility(m_values)
        gx, gy = self.grad(f_values)
        return -self.div(m_values * gx, m_values * gy)

    def solve_weighted_laplacian(self, m_values: np.ndarray, f_values: np.ndarray,
                                 tol: float = CG_DEFAULT_TOL,
                                 max_iter: int | None = None) -> np.ndarray:
        """Solve -div(M grad g) = f for the zero-mean g.

        Conjugate gradients preconditioned with the constant-coefficient
        inverse Laplacian (diagonal in Fourier space). The right-hand side
        must have zero mean; the solution mean is pinned to zero.
        """
        _check_mobility(m_values)
        n = self.n_modes
        rhs_norm = self.norm(f_values)
        if abs(self.integral(f_values)) > 1e-10 * max(rhs_norm, 1e-300):
            raise NonZeroMeanError(
                f"solve requires a zero-mean rhs; <f,1>={self.integral(f_values):.3e}"
            )
        if rhs_norm == 0.0:
            return np.zeros_like(f_values)
        if max_iter is None:
            max_iter = CG_MAX_ITER_PER_MODE * n

        shape = (n, n)

        def matvec(vec: np.ndarray) -> np.ndarray:
            return self.apply_weighted_laplacian(m_values, vec.reshape(shape)).ravel()

        def precond(vec: np.ndarray) -> np.ndarray:
            spec = self.rfft(vec.reshape(shape))
            # zero-mean component through (-lap)^{-1}; the (0,0) mode passes
            # through unchanged so the operator stays SPD on all of R^{N^2}
            dc = spec[0, 0]
            spec = spec * self._inv_k2
            spec[0, 0] = dc
            return self.irfft(spec).ravel()

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
            res = self.norm(matvec(sol).reshape(shape) - f_values) / rhs_norm
            raise NoConvergenceError("weighted Poisson solve stalled", iters, res)
        return g - g.mean()

    # -- sampling helper ---------------------------------------------------------------
    def sample(self, fn) -> np.ndarray:
        """Evaluate a callable f(x, y) on the collocation points."""
        return np.asarray(fn(self.xx, self.yy), dtype=float)


@lru_cache(maxsize=None)
def make_grid(n_modes: int) -> Grid:
    """Shared grid instances; grids are immutable so caching is safe."""
    return Grid(n_modes)


@dataclass
class Field:
    """Real samples on the collocation grid: one (N, N) field or a (2, N, N) stack.

    values[i, j] = f(x_i, y_j); a stack holds the (x, y) components of a
    velocity, or the (p, n) species, on axis 0. The values must be finite
    and match the grid. A float64 array is held as given, not copied, so a
    read-only array stays read-only.

    SimState keeps every array in a Field until a benchmark change compares
    bare arrays whole; its docstring says why.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.grid.n_modes
        if self.values.shape not in ((n, n), (2, n, n)):
            raise GridMismatchError(
                f"expected shape {(n, n)} or {(2, n, n)}, got {self.values.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")


def _check_mobility(m_values: np.ndarray) -> None:
    m_min = m_values.min()
    if m_min <= 0.0:
        raise NonPositiveMobilityError(f"mobility must be positive, min={m_min:.3e}")
