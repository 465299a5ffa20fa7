"""Shared fixtures and random-field builders.

Random test fields are band-limited (no content at or above the cutoff
wavenumber) so that the discrete operator identities hold to roundoff: the
quadrature is exact for resolved trigonometric polynomials, and Nyquist
content is outside the contract of the first-derivative operators.
"""

import numpy as np
import pytest

from pnpns.pnp import compute_psi
from pnpns.spectral import Field, Grid, make_grid
from pnpns.state import SimState


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture(params=[8, 16, 32])
def grid(request) -> Grid:
    return make_grid(request.param)


@pytest.fixture
def grid8() -> Grid:
    return make_grid(8)


@pytest.fixture
def grid16() -> Grid:
    return make_grid(16)


@pytest.fixture
def transforms(monkeypatch) -> dict:
    """Counts Grid.rfft and Grid.irfft calls in transforms["calls"]."""
    counter = {"calls": 0}
    for name in ("rfft", "irfft"):
        def counted(self, values, _original=getattr(Grid, name)):
            counter["calls"] += 1
            return _original(self, values)

        monkeypatch.setattr(Grid, name, counted)
    return counter


def band_limited(grid: Grid, rng, kmax: int | None = None,
                 amplitude: float = 1.0) -> np.ndarray:
    """Random real field with spectrum confined to |kx|, |ky| < kmax."""
    n = grid.n_modes
    if kmax is None:
        kmax = max(1, n // 4)
    raw = rng.standard_normal((n, n))
    spec = grid.rfft(raw)
    kx = np.abs(np.fft.fftfreq(n, d=1.0 / n))[:, None]
    ky = np.arange(n // 2 + 1)[None, :]
    spec[(kx >= kmax) | (ky >= kmax)] = 0.0
    values = grid.irfft(spec)
    peak = np.abs(values).max()
    if peak > 0:
        values *= amplitude / peak
    return values


def positive_field(grid: Grid, rng, base: float = 1.0, wobble: float = 0.3,
                   kmax: int | None = None) -> np.ndarray:
    return base + band_limited(grid, rng, kmax=kmax, amplitude=wobble)


def div_free_velocity(grid: Grid, rng, amplitude: float = 1.0,
                      kmax: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Velocity from a random streamfunction: exactly divergence-free."""
    stream = band_limited(grid, rng, kmax=kmax, amplitude=amplitude)
    return grid.ddy(stream), -grid.ddx(stream)


def admissible_state(grid: Grid, rng, wobble: float = 0.3,
                     speed: float = 0.5) -> SimState:
    """Random valid previous state: positive, electroneutral, solenoidal."""
    p_vals = positive_field(grid, rng, wobble=wobble)
    n_vals = positive_field(grid, rng, wobble=wobble)
    n_vals += p_vals.mean() - n_vals.mean()  # equal masses
    psi = Field(grid, compute_psi(grid, p_vals, n_vals, 1.0))
    u = Field(grid, np.stack(div_free_velocity(grid, rng, amplitude=speed)))
    phi_vals = band_limited(grid, rng, amplitude=0.2)
    phi = Field(grid, phi_vals - phi_vals.mean())
    return SimState(p=Field(grid, p_vals), n=Field(grid, n_vals), psi=psi, u=u, phi=phi,
                    step_index=0, time=0.0)


def at_rest(grid: Grid, p: np.ndarray, n: np.ndarray) -> SimState:
    """State with concentrations p and n, no potential, velocity or pressure."""
    zero = np.zeros((grid.n_modes, grid.n_modes))
    return SimState(p=Field(grid, p), n=Field(grid, n), psi=Field(grid, zero),
                    u=Field(grid, np.zeros((2, *zero.shape))), phi=Field(grid, zero))


def rest_state(grid: Grid, p_value: float = 1.0, n_value: float | None = None) -> SimState:
    """Uniform concentrations p_value and n_value (default p_value) at rest."""
    n_value = p_value if n_value is None else n_value
    shape = (grid.n_modes, grid.n_modes)
    return at_rest(grid, np.full(shape, float(p_value)), np.full(shape, float(n_value)))


def contrast_state(grid: Grid, rng, log_range: float = 12.0) -> SimState:
    """Previous state at rest whose concentrations span a contrast of about e^log_range."""
    p, n = (np.exp(band_limited(grid, rng, amplitude=0.5 * log_range)) for _ in range(2))
    n *= p.sum() / n.sum()
    return at_rest(grid, p, n)
