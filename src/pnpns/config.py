"""Run-configuration files: JSON schema validation and preset initial data."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import mms
from .errors import ConfigError
from .integrator import initialize
from .snapshot import read_snapshot
from .state import PhysParams, SchemeConfig, SimState

_NUMBER_POS = {"type": "number", "exclusiveMinimum": 0}

_PHYSICS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "epsilon": _NUMBER_POS,
        "kappa": _NUMBER_POS,
        "diffusion": _NUMBER_POS,
        "viscosity": _NUMBER_POS,
    },
}

_SOLVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "newton_tol": _NUMBER_POS,
        "newton_max_iter": {"type": "integer", "minimum": 1},
    },
}

_INITIAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["preset"],
    "properties": {
        "preset": {"enum": ["uniform", "blobs_5_2", "mms", "from_snapshot"]},
        "value": _NUMBER_POS,        # uniform
        "path": {"type": "string"},  # from_snapshot
    },
}

_OUTPUT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dir": {"type": "string"},
        "diagnostics_csv": {"type": "string"},
        "convergence_csv": {"type": "string"},
    },
}

_TIME_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "dt": _NUMBER_POS,
        "dt_list": {"type": "array", "items": _NUMBER_POS, "minItems": 1},
        "t_final": _NUMBER_POS,
        "snapshot_times": {"type": "array", "items": {"type": "number"}},
    },
    "required": ["t_final"],
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "time", "initial"],
    "properties": {
        "physics": _PHYSICS_SCHEMA,
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_modes"],
            "properties": {"n_modes": {"type": "integer", "minimum": 4}},
        },
        "time": _TIME_SCHEMA,
        "solver": _SOLVER_SCHEMA,
        "initial": _INITIAL_SCHEMA,
        "output": _OUTPUT_SCHEMA,
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI command needs, parsed and validated."""

    params: PhysParams
    scheme: SchemeConfig
    initial: dict
    output_dir: Path
    diagnostics_csv: str
    convergence_csv: str
    dt_list: tuple[float, ...] = ()


def load_config(path, *, need_dt_list: bool = False) -> RunConfig:
    """Parse and validate a JSON run configuration.

    need_dt_list selects the convergence-study form, which replaces
    time.dt by time.dt_list. All structural and numeric violations raise
    ConfigError.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"{path}: {exc.message}") from exc

    time_sec = raw["time"]
    if need_dt_list:
        if "dt_list" not in time_sec:
            raise ConfigError(f"{path}: convergence runs need time.dt_list")
        dt_list = tuple(float(v) for v in time_sec["dt_list"])
        dt = dt_list[0]
    else:
        if "dt" not in time_sec:
            raise ConfigError(f"{path}: time.dt is required")
        dt = float(time_sec["dt"])
        dt_list = ()

    solver = raw.get("solver", {})
    output = raw.get("output", {})
    out_dir = Path(output.get("dir", "."))
    try:
        params = PhysParams(**raw.get("physics", {}))
        scheme = SchemeConfig(
            n_modes=raw["grid"]["n_modes"],
            dt=dt,
            t_final=float(time_sec["t_final"]),
            snapshot_times=tuple(time_sec.get("snapshot_times", ())),
            **solver,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    return RunConfig(
        params=params,
        scheme=scheme,
        initial=raw["initial"],
        output_dir=out_dir,
        diagnostics_csv=output.get("diagnostics_csv", "diagnostics.csv"),
        convergence_csv=output.get("convergence_csv", "convergence.csv"),
        dt_list=dt_list,
    )


def blob_concentration(cx: float, cy: float):
    """Smoothed indicator of a disk: 1 + 1e-6 - tanh(2(r^2 - (0.2 pi)^2))."""
    radius_sq = (0.2 * np.pi) ** 2

    def fn(x, y):
        return 1.0 + 1e-6 - np.tanh(2.0 * ((x - cx) ** 2 + (y - cy) ** 2 - radius_sq))

    return fn


def build_initial_state(config: RunConfig) -> tuple[SimState, object | None]:
    """Construct the initial state for a preset; returns (state, forcing).

    forcing is non-None only for the manufactured-solution preset, where the
    run must apply the derived source terms.
    """
    preset = config.initial["preset"]
    scheme = config.scheme
    params = config.params
    if preset == "uniform":
        value = float(config.initial.get("value", 1.0))
        state = initialize(lambda x, y: np.full_like(x, value),
                           lambda x, y: np.full_like(x, value),
                           None, params, scheme)
        return state, None
    if preset == "blobs_5_2":
        state = initialize(blob_concentration(0.8 * np.pi, 0.8 * np.pi),
                           blob_concentration(1.2 * np.pi, 1.2 * np.pi),
                           None, params, scheme)
        return state, None
    if preset == "mms":
        case = mms.make_case(params)
        return case.initial_state(scheme), case
    if preset == "from_snapshot":
        if "path" not in config.initial:
            raise ConfigError("from_snapshot preset needs initial.path")
        state = read_snapshot(config.initial["path"], expected_n_modes=scheme.n_modes)
        return state, None
    raise ConfigError(f"unknown preset {preset!r}")
