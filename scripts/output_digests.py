"""Run the byte-identity reference runs and print a digest of every file they write.

    python scripts/output_digests.py OUTDIR [--src SRC]

Four CLI runs go into subdirectories of OUTDIR, each in a fresh process:

  blobs        `pnpns run` on blobs_5_2: N = 32, dt = 1e-4, t_final = 8e-4,
               snapshots at 4e-4 and 8e-4 (the line path);
  restart      `pnpns run` from blobs/snapshot_0000.bin, 4 steps, a snapshot
               at 8e-4 (bitwise the uninterrupted run's second one);
  mms          `pnpns run` on mms: N = 16, dt = 1e-2, t_final = 5e-2, a
               snapshot at 5e-2 (the spectral path, with sources);
  convergence  `pnpns convergence` on mms: N = 16, dt_list [2e-2, 1e-2],
               t_final = 0.04.

Each run's directory holds its config.json, the files the CLI wrote and its
stdout.txt; every path the CLI sees is relative, so a directory's contents do
not depend on OUTDIR. The script prints `sha256  relative-path` for every
file under OUTDIR, sorted by path.

A refactor that promises byte-identical output is checked by running this
twice, on a checkout of the parent commit (``--src parent/src``) and on the
change, in the same environment (BLAS thread counts included), and diffing
the two listings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="new or empty directory for the runs")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="source tree holding the pnpns package (default: this checkout's)")
    args = parser.parse_args(argv)
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    run_all(args.outdir, args.src.resolve())
    print("\n".join(digests(args.outdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
