"""Run the byte-identity reference runs and print a digest of every file they write.

    python scripts/output_digests.py OUTDIR [--src SRC] [--compare OTHER_DIR]

Six CLI runs go into subdirectories of OUTDIR, each in a fresh process:

  blobs        `pnpns run` on blobs_5_2: N = 32, dt = 1e-4, t_final = 8e-4,
               snapshots at 4e-4 and 8e-4 (the line path);
  restart      `pnpns run` from blobs/snapshot_0000.bin, 4 steps, a snapshot
               at 8e-4 (bitwise the uninterrupted run's second one);
  mms          `pnpns run` on mms: N = 16, dt = 1e-2, t_final = 5e-2, a
               snapshot at 5e-2 (the spectral path, with sources);
  convergence  `pnpns convergence` on mms: N = 16, dt_list [2e-2, 1e-2],
               t_final = 0.04;
  mms128       `pnpns run` on mms: N = 128, dt = 1e-2, t_final = 3e-2 (the
               spectral path at a benchmark size; the runs above stop at
               N = 32);
  mms_coeffs   `pnpns run` on mms: N = 32, eps = 0.1, nu = 0.1, dt = 1e-2,
               t_final = 3e-2, a snapshot at 3e-2 (the only run with
               non-unit coefficients: a symbol scaled by eps that rounds
               differently, such as psi's formed as a complex inv_k2 / eps,
               changes its snapshot and no other file; at eps = 0.5, a power
               of two, or in the diagnostics alone it would not show).

Each run's directory holds its config.json, the files the CLI wrote and its
stdout.txt; every path the CLI sees is relative, so a directory's contents do
not depend on OUTDIR. The script prints `sha256  relative-path` for every
file under OUTDIR, sorted by path.

A refactor that promises byte-identical output is checked by running this
twice, on a checkout of the parent commit (``--src parent/src``) and on the
change, in the same environment (BLAS thread counts included), and diffing
the two listings.

A change that is not byte-identical is checked numerically: with
``--compare OTHER_DIR``, an earlier OUTDIR of this script, the listing is
followed by one line per CSV column and per snapshot field present in both
trees, with the largest relative difference |a - b| / max(|a|, |b|) over
its entries. A snapshot field's line also gives the largest difference
relative to the field's largest value, max |a - b| / max |b|. A column whose
entries are all integers must be equal: the script exits 1 if one is not,
or if a CSV, snapshot, column or field is in one tree only.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

#: (directory, CLI command, config)
RUNS = (
    ("blobs", "run", {
        "physics": {"epsilon": 1.0, "kappa": 1e4, "diffusion": 1.0, "viscosity": 1.0},
        "grid": {"n_modes": 32},
        "time": {"dt": 1e-4, "t_final": 8e-4, "snapshot_times": [4e-4, 8e-4]},
        "initial": {"preset": "blobs_5_2"},
    }),
    ("restart", "run", {
        "physics": {"epsilon": 1.0, "kappa": 1e4, "diffusion": 1.0, "viscosity": 1.0},
        "grid": {"n_modes": 32},
        "time": {"dt": 1e-4, "t_final": 4e-4, "snapshot_times": [8e-4]},
        "initial": {"preset": "from_snapshot", "path": "../blobs/snapshot_0000.bin"},
    }),
    ("mms", "run", {
        "grid": {"n_modes": 16},
        "time": {"dt": 1e-2, "t_final": 5e-2, "snapshot_times": [5e-2]},
        "initial": {"preset": "mms"},
    }),
    ("convergence", "convergence", {
        "grid": {"n_modes": 16},
        "time": {"dt_list": [2e-2, 1e-2], "t_final": 0.04},
        "initial": {"preset": "mms"},
    }),
    ("mms128", "run", {
        "grid": {"n_modes": 128},
        "time": {"dt": 1e-2, "t_final": 3e-2},
        "initial": {"preset": "mms"},
    }),
    ("mms_coeffs", "run", {
        "physics": {"epsilon": 0.1, "kappa": 1.0, "diffusion": 1.0, "viscosity": 0.1},
        "grid": {"n_modes": 32},
        "time": {"dt": 1e-2, "t_final": 3e-2, "snapshot_times": [3e-2]},
        "initial": {"preset": "mms"},
    }),
)


def run_all(out_dir: Path, src: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, command, config in RUNS:
        run_dir = out_dir / name
        run_dir.mkdir(parents=True)
        (run_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
        proc = subprocess.run([sys.executable, "-m", "pnpns.cli", command, "config.json"],
                              cwd=run_dir, env=env, capture_output=True, text=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"{name}: pnpns {command} exited {proc.returncode}\n{proc.stderr}")


def digests(out_dir: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir)}"
            for path in sorted(out_dir.rglob("*")) if path.is_file()]


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the entries, 0 where both are equal."""
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(diff == 0.0, 0.0, diff / scale)
    return float(rel.max(initial=0.0))


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [row[j] for row in rows[1:]] for j, name in enumerate(rows[0])}


def _snapshot_fields(path: Path) -> dict[str, np.ndarray]:
    """The fields of a snapshot (layout: pnpns.snapshot), by name."""
    data = path.read_bytes()
    (meta_len,) = struct.unpack("<I", data[12:16])
    meta = json.loads(data[64:64 + meta_len])
    n = meta["n_modes"]
    flat = np.frombuffer(data, dtype="<f8", offset=64 + meta_len)
    return {name: flat[k * n * n:(k + 1) * n * n] for k, name in enumerate(meta["fields"])}


def compare(out_dir: Path, other_dir: Path) -> list[str]:
    """Numeric differences of out_dir's CSV columns and snapshot fields from other_dir's.

    Returns the report lines; a line that starts with "UNEQUAL" or "MISSING"
    fails the comparison.
    """
    lines = []
    files = sorted({p.relative_to(d) for d in (out_dir, other_dir) for p in d.rglob("*")
                    if p.suffix in (".csv", ".bin")})
    for rel in files:
        ours, theirs = out_dir / rel, other_dir / rel
        if not (ours.is_file() and theirs.is_file()):
            lines.append(f"MISSING  {rel}: in one tree only")
            continue
        read = _csv_columns if rel.suffix == ".csv" else _snapshot_fields
        a_cols, b_cols = read(ours), read(theirs)
        lines += [f"MISSING  {rel}:{name}: in one tree only" for name in a_cols.keys() ^ b_cols.keys()]
        if rel.suffix == ".csv":
            for name in a_cols.keys() & b_cols.keys():
                a, b = a_cols[name], b_cols[name]
                if len(a) != len(b):
                    lines.append(f"UNEQUAL  {rel}:{name}: {len(a)} rows against {len(b)}")
                elif all(v.lstrip("-").isdigit() for v in a + b):
                    equal = a == b
                    lines.append(f"{'integer' if equal else 'UNEQUAL'}  {rel}:{name}: "
                                 f"{'equal' if equal else 'differs'}")
                else:
                    # equal cells, such as an empty first order in convergence.csv, differ by 0
                    pairs = [(x, y) for x, y in zip(a, b) if x != y]
                    try:
                        rel_diff = _relative(*np.array(pairs, dtype=float).reshape(-1, 2).T)
                    except ValueError:
                        lines.append(f"UNEQUAL  {rel}:{name}: non-numeric cells differ")
                        continue
                    lines.append(f"{rel_diff:.3e}  {rel}:{name}")
        else:
            for name in a_cols.keys() & b_cols.keys():
                a, b = a_cols[name], b_cols[name]
                of_max = float(np.abs(a - b).max() / max(np.abs(b).max(), np.finfo(float).tiny))
                lines.append(f"{_relative(a, b):.3e}  {rel}:{name}  "
                             f"(of the field's largest value: {of_max:.3e})")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new or empty directory for the runs")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="source tree holding the pnpns package (default: this checkout's)")
    parser.add_argument("--compare", type=Path, metavar="OTHER_DIR",
                        help="an earlier OUTDIR to compare the new runs with numerically")
    args = parser.parse_args(argv)
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    if args.compare is not None and not args.compare.is_dir():
        parser.error(f"{args.compare} is not a directory")
    run_all(args.outdir, args.src.resolve())
    print("\n".join(digests(args.outdir)))
    if args.compare is None:
        return 0
    report = compare(args.outdir, args.compare)
    print("\n".join(report))
    return int(any(line.startswith(("UNEQUAL", "MISSING")) for line in report))


if __name__ == "__main__":
    sys.exit(main())
