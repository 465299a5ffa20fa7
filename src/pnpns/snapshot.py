"""Binary snapshot container for simulation states.

Layout (version 2):
  * 64-byte header: 8-byte magic ``PNPNSSNP``, uint32 version, uint32
    metadata length, zero padding;
  * JSON metadata (grid size, time, step index, physical parameters, field
    order, and ``line_age`` when the state carries a line reference);
  * the fields p, n, psi, phi, u_x, u_y, then line_ref_p, line_ref_n when
    the state carries a line reference (SimState.line_ref, the
    concentrations its next ion step's line preconditioner is built at), as
    little-endian float64, row-major, in the order the metadata lists.

A version-1 file has no line reference; it loads with none, so its first
line-path step rebuilds. Writes are atomic (temp file + rename). Reading
validates the metadata and rejects non-finite payloads, non-positive
concentrations or references, and a line age outside
[1, LINE_REBUILD_PERIOD], since a snapshot is outside input.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import NonPositiveConcentrationError, RejectedGridError, SnapshotError
from .pnp import LINE_REBUILD_PERIOD
from .spectral import ScalarField, VectorField, make_grid
from .state import PhysParams, SimState

MAGIC = b"PNPNSSNP"
VERSION = 2
HEADER_SIZE = 64
FIELD_ORDER = ("p", "n", "psi", "phi", "u_x", "u_y")
REF_FIELDS = ("line_ref_p", "line_ref_n")


def atomic_write(path: Path, *chunks: bytes) -> None:
    """Write the chunks to path through a temp file and a rename.

    Readers see either the old file or the complete new one, never a
    partial write; the parent directory is created if needed.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_snapshot(state: SimState, params: PhysParams, path) -> Path:
    """Serialize a state; returns the written path."""
    path = Path(path)
    n = state.grid.n_modes
    meta = {
        "n_modes": n,
        "time": state.time,
        "step_index": state.step_index,
        "params": dataclasses.asdict(params),
        "fields": list(FIELD_ORDER),
    }
    arrays = [state.p.values, state.n.values, state.psi.values,
              state.phi.values, state.u.x_comp.values, state.u.y_comp.values]
    if state.line_ref is not None:
        meta["fields"] += REF_FIELDS
        meta["line_age"] = state.line_age
        arrays += list(state.line_ref)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = MAGIC + struct.pack("<II", VERSION, len(meta_bytes))
    header = header.ljust(HEADER_SIZE, b"\0")

    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)

    atomic_write(path, header, meta_bytes, payload)
    return path


def _read_meta(fh, path: Path) -> dict:
    header = fh.read(HEADER_SIZE)
    if len(header) < HEADER_SIZE:
        raise SnapshotError(f"{path}: truncated header")
    if header[:8] != MAGIC:
        raise SnapshotError(f"{path}: bad magic {header[:8]!r}")
    version, meta_len = struct.unpack("<II", header[8:16])
    if version not in (1, VERSION):
        raise SnapshotError(f"{path}: unsupported version {version}")
    meta_bytes = fh.read(meta_len)
    if len(meta_bytes) < meta_len:
        raise SnapshotError(f"{path}: truncated metadata")
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: corrupt metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise SnapshotError(f"{path}: metadata is not a JSON object")
    allowed = (FIELD_ORDER,) if version == 1 else (FIELD_ORDER, FIELD_ORDER + REF_FIELDS)
    if tuple(meta.get("fields", ())) not in allowed:
        raise SnapshotError(f"{path}: unexpected field order {meta.get('fields')}")
    _check_meta(meta, path)
    return meta


def _check_meta(meta: dict, path: Path) -> None:
    """Types and ranges of the metadata entries the readers rely on."""
    def bad(key: str) -> SnapshotError:
        return SnapshotError(f"{path}: bad or missing {key!r} in metadata: "
                             f"{meta.get(key)!r}")

    n = meta.get("n_modes")
    if type(n) is not int or n < 4 or n % 2 != 0:
        raise bad("n_modes")
    step = meta.get("step_index")
    if type(step) is not int or step < 0:
        raise bad("step_index")
    t = meta.get("time")
    if type(t) not in (int, float) or not math.isfinite(t):
        raise bad("time")
    try:
        PhysParams(**meta.get("params"))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"{path}: invalid params in metadata: {exc}") from exc
    age = meta.get("line_age")
    if len(meta["fields"]) > len(FIELD_ORDER):
        if type(age) is not int or not 1 <= age <= LINE_REBUILD_PERIOD:
            raise bad("line_age")
    elif age is not None:
        raise bad("line_age")


def read_snapshot_meta(path) -> dict:
    """Header/metadata of a snapshot file, without loading the fields."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _read_meta(fh, path)


def read_snapshot(path, expected_n_modes: int | None = None) -> SimState:
    """Load a state; fails cleanly on corrupt/truncated files or a wrong grid."""
    path = Path(path)
    with open(path, "rb") as fh:
        meta = _read_meta(fh, path)
        n = meta["n_modes"]
        if expected_n_modes is not None and n != expected_n_modes:
            raise RejectedGridError(
                f"{path}: snapshot is {n}x{n}, "
                f"run expects {expected_n_modes}x{expected_n_modes}"
            )
        names = meta["fields"]
        count = n * n * len(names)
        payload = fh.read(count * 8 + 1)  # +1 detects trailing garbage
    if len(payload) < count * 8:
        raise SnapshotError(f"{path}: truncated payload "
                            f"({len(payload)} of {count * 8} bytes)")
    if len(payload) > count * 8:
        raise SnapshotError(f"{path}: trailing bytes after payload")

    flat = np.frombuffer(payload, dtype="<f8", count=count)
    if not np.isfinite(flat).all():
        raise SnapshotError(f"{path}: payload holds non-finite values")
    fields = flat.reshape(len(names), n, n)
    for name, f in zip(names, fields):
        if name in ("p", "n") + REF_FIELDS and f.min() <= 0.0:
            raise NonPositiveConcentrationError(
                f"{path}: {name} must be positive, min={f.min():.3e}")
    grid = make_grid(n)
    p = ScalarField(grid, fields[0].copy())
    n_field = ScalarField(grid, fields[1].copy())
    psi = ScalarField(grid, fields[2].copy())
    phi = ScalarField(grid, fields[3].copy())
    u = VectorField.from_arrays(grid, fields[4].copy(), fields[5].copy())
    line_ref = None
    if len(names) > len(FIELD_ORDER):
        line_ref = fields[len(FIELD_ORDER):].copy()
        line_ref.flags.writeable = False
    return SimState(p=p, n=n_field, psi=psi, u=u, phi=phi,
                    step_index=meta["step_index"], time=float(meta["time"]),
                    line_ref=line_ref, line_age=meta.get("line_age", 0))
