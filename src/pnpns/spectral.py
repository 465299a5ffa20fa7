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

Transforms. Grid.rfft and Grid.irfft are the one transform path, over the
last two axes (a (2, N, N) stack transforms slice by slice): numpy.fft's rfft
along axis -1, then fft in place along axis -2, and ifft then irfft back.
That is scipy.fft.rfft2's layout, bitwise its values at N = 2^k (at other N
the inverse scales per axis and differs in the last bits). A default call
leaves its input untouched and returns a new array; a caller that transforms
every Krylov product passes `out=`, and irfft a complex `scratch` for its
axis -2 pass (the spectrum itself once the caller is done with it). Reused
work arrays spare glibc handing pages back and faulting them in again: ~4 k
minor faults per vortex256 step against ~25 k. They live with their caller
(pnp.Step1System), not on the grid, which threads share.

Symbols. The grid owns every Fourier symbol, built once at the spectra's
full (N, N/2 + 1) shape, public and read-only. ikx, iky (Nyquist-zeroed) and
inv_k2_grad (1/|k|^2 of those wavenumbers, the projection's) are complex: numpy
would copy or cast a broadcast or real operand on every product, at twice the
time (46.6 against 26.7 us at N = 256). k2 and inv_k2 are real: callers derive
symbols from them in real arithmetic and cast last, since complex division by
a real eps rounds as a * (1/eps), not as a / eps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridMismatchError, NonZeroMeanError

TWO_PI = 2.0 * np.pi


class Grid:
    """Collocation grid on (0, 2pi)^2 with cached spectral machinery.

    Immutable after construction, apart from the differentiation matrix,
    which is built on first use; safe to share between threads. All array
    attributes, the Fourier symbols among them, are read-only.
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

        # half-spectrum layout: full FFT along axis 0 (x), real FFT along axis 1 (y).
        kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]  # integer wavenumbers, domain 2*pi
        ky = np.arange(n // 2 + 1, dtype=float)[None, :]

        # first derivatives drop the unmatched -N/2 mode
        kx_odd = kx.copy()
        kx_odd[n // 2] = 0.0
        ky_odd = ky.copy()
        ky_odd[0, -1] = 0.0
        self.ikx, self.iky = (np.broadcast_to(1j * k, (n, n // 2 + 1)).copy()
                              for k in (kx_odd, ky_odd))

        self.k2 = kx**2 + ky**2
        self.inv_k2 = _reciprocal_or_zero(self.k2)
        # |k|^2 built from the derivative wavenumbers (Nyquist rows zeroed);
        # used by the velocity projector so that div(project(v)) vanishes
        # identically for any input, Nyquist content included
        self.inv_k2_grad = _reciprocal_or_zero(kx_odd**2 + ky_odd**2).astype(complex)

        for arr in (self.x, self.y, self.xx, self.yy, self.k2, self.inv_k2,
                    self.inv_k2_grad, self.ikx, self.iky):
            arr.setflags(write=False)

    # -- equality / hashing: a grid is fully determined by N ---------------
    def __eq__(self, other) -> bool:
        return isinstance(other, Grid) and other.n_modes == self.n_modes

    def __hash__(self) -> int:
        return hash(("Grid", self.n_modes))

    def __repr__(self) -> str:
        return f"Grid(n_modes={self.n_modes})"

    # -- transforms (array level) -------------------------------------------
    def rfft(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectrum of real samples over the last two axes; written to out when given.

        out is a complex array shaped (..., N, N/2 + 1); values is not modified.
        """
        spec = np.fft.rfft(values, axis=-1, out=out)
        return np.fft.fft(spec, axis=-2, out=spec)

    def irfft(self, coeffs: np.ndarray, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
        """Real samples of a half spectrum over the last two axes; written to out when given.

        scratch, a complex array shaped like coeffs, takes the inverse pass
        along axis -2; it may be coeffs itself, which is then overwritten.
        Without it that pass goes to a new array and coeffs is not modified.
        """
        spec = np.fft.ifft(coeffs, axis=-2, out=scratch)
        return np.fft.irfft(spec, n=self.n_modes, axis=-1, out=out)

    # -- derivatives (array level) -------------------------------------------
    def ddx(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(self.ikx * self.rfft(values))

    def ddy(self, values: np.ndarray) -> np.ndarray:
        return self.irfft(self.iky * self.rfft(values))

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
        return self.irfft(self.ikx * spec), self.irfft(self.iky * spec)

    def div(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        return self.irfft(self.ikx * self.rfft(vx) + self.iky * self.rfft(vy))

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
        spec = spec * self.inv_k2  # (0,0) entry of inv_k2 is 0: mean pinned
        return self.irfft(spec)


def _reciprocal_or_zero(k2: np.ndarray) -> np.ndarray:
    """1 / k2 where k2 > 0, and 0 where it vanishes: the mean mode (zero-mean gauge)."""
    return np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)


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
