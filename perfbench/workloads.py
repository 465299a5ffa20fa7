"""The benchmark's three workloads: seeded initial states and their checks.

Each workload is a fixed trajectory of `steps` calls to `pnpns.advance` from
an initial state built through the public API. The seed draws the inputs;
the same seed always gives bitwise the same initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import pnpns
from pnpns import PhysParams, SchemeConfig, make_grid

#: relative mass drift allowed at every step (acceptance criterion 2)
MASS_DRIFT_TOL = 1e-10
#: E_{n+1} <= E_n + ENERGY_SLACK * |E_n| in unforced runs
ENERGY_SLACK = 1e-10
#: mms128: L2 errors at t = steps * dt, fixed at 1.05x the values the
#: unmodified solver gives; a scheme or solver defect moves them well past it
MMS_ERROR_BOUNDS = {"p": 6.8e-3, "n": 2.5e-2, "u": 1.02e-4, "psi": 1.43e-2}
#: unit coefficients: the manufactured-solution case of the dt study
MMS_PARAMS = PhysParams()


@dataclass
class Workload:
    """One benchmark input: what to advance, how far, and what to check."""

    name: str
    state: pnpns.SimState
    params: PhysParams
    cfg: SchemeConfig
    sources: object | None
    steps: int
    check_energy: bool


def _scheme(n_modes: int, dt: float, steps: int) -> SchemeConfig:
    return SchemeConfig(n_modes=n_modes, dt=dt, t_final=steps * dt)


def _band_limited(grid, rng, kmax: int, amplitude: float) -> np.ndarray:
    """Random zero-mean real field with spectrum in |kx|, |ky| < kmax."""
    n = grid.n_modes
    spec = grid.rfft(rng.standard_normal((n, n)))
    kx = np.abs(np.fft.fftfreq(n, d=1.0 / n))[:, None]
    ky = np.arange(n // 2 + 1)[None, :]
    spec[(kx >= kmax) | (ky >= kmax)] = 0.0
    spec[0, 0] = 0.0
    values = grid.irfft(spec)
    return values * (amplitude / np.abs(values).max())


def blobs64(seed: int) -> Workload:
    """Two-blob property experiment (preset blobs_5_2), translated by the seed.

    The shift is a whole number of grid cells, so every seed poses the same
    discrete problem up to roundoff (which still moves the GMRES counts by a
    few percent): the seed moves the blobs, not the cost.
    """
    steps = 3
    params = PhysParams(epsilon=1.0, kappa=1e4, diffusion=1.0, viscosity=1.0)
    cfg = _scheme(64, 1e-4, steps)
    grid = make_grid(cfg.n_modes)
    shift = tuple(np.random.default_rng(seed).integers(0, grid.n_modes, 2))
    radius_sq = (0.2 * np.pi) ** 2

    def blob(cx: float, cy: float) -> np.ndarray:
        r_sq = (grid.xx - cx) ** 2 + (grid.yy - cy) ** 2
        return np.roll(1.0 + 1e-6 - np.tanh(2.0 * (r_sq - radius_sq)), shift, axis=(0, 1))

    state = pnpns.initialize(blob(0.8 * np.pi, 0.8 * np.pi),
                             blob(1.2 * np.pi, 1.2 * np.pi), None, params, cfg)
    return Workload("blobs64", state, params, cfg, None, steps, check_energy=True)


def mms128(seed: int) -> Workload:
    """Divergence-free manufactured solution; closed form, so the seed is unused."""
    del seed
    steps = 10
    cfg = _scheme(128, 1e-2, steps)
    case = pnpns.make_case(MMS_PARAMS)
    return Workload("mms128", case.initial_state(cfg), MMS_PARAMS, cfg, case, steps,
                    check_energy=False)


def vortex256(seed: int) -> Workload:
    """Random band-limited vortex flow (peak speed 2) with a weak charge perturbation.

    Both are confined to |k| < 8: with finer random fields the last Newton
    iterations need tens of GMRES iterations each, and the ion step, not the
    momentum solve, would again carry the cost.
    """
    steps = 4
    params = PhysParams(epsilon=1.0, kappa=1.0, diffusion=1.0, viscosity=1e-2)
    cfg = _scheme(256, 1e-2, steps)
    grid = make_grid(cfg.n_modes)
    rng = np.random.default_rng(seed)
    stream = _band_limited(grid, rng, kmax=8, amplitude=1.0)
    ux, uy = grid.ddy(stream), -grid.ddx(stream)
    speed = np.sqrt(ux * ux + uy * uy).max()
    ux, uy = ux * (2.0 / speed), uy * (2.0 / speed)
    charge = _band_limited(grid, rng, kmax=8, amplitude=0.2)
    state = pnpns.initialize(1.0 + charge, 1.0 - charge, (ux, uy), params, cfg)
    return Workload("vortex256", state, params, cfg, None, steps, check_energy=True)


WORKLOADS = {"blobs64": blobs64, "mms128": mms128, "vortex256": vortex256}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)


def step_failures(wl: Workload, mass_p0: float, mass_n0: float,
                  energy_prev: float, diag) -> list[str]:
    """The per-step guarantees of the scheme, as messages for each breach."""
    failures = []
    for label, now, start in (("p", diag.mass_p, mass_p0), ("n", diag.mass_n, mass_n0)):
        drift = abs(now - start) / abs(start)
        if drift > MASS_DRIFT_TOL:
            failures.append(f"step {diag.step_index}: {label}-mass drift {drift:.3e}")
    if not (diag.min_p > 0.0 and diag.min_n > 0.0):
        failures.append(f"step {diag.step_index}: min p={diag.min_p:.3e}, "
                        f"min n={diag.min_n:.3e}")
    energy = diag.energy.total
    if wl.check_energy and energy > energy_prev + ENERGY_SLACK * abs(energy_prev):
        failures.append(f"step {diag.step_index}: energy rose {energy_prev!r} -> {energy!r}")
    return failures


def final_failures(wl: Workload, final: pnpns.SimState) -> list[str]:
    """mms128 only: L2 errors against the exact solution at the final time."""
    if wl.sources is None:
        return []
    grid = final.grid
    p_ex, n_ex, u_ex, _, psi_ex = wl.sources.exact_state(final.time, grid)
    errors = {"p": pnpns.l2_error(final.p, p_ex), "n": pnpns.l2_error(final.n, n_ex),
              "u": pnpns.l2_error(final.u, u_ex), "psi": pnpns.l2_error(final.psi, psi_ex)}
    return [f"L2 error in {k} at t={final.time:g}: {v:.6e} > {MMS_ERROR_BOUNDS[k]:.6e}"
            for k, v in errors.items() if not v <= MMS_ERROR_BOUNDS[k]]
