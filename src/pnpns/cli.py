"""Command-line front end: run, convergence, inspect.

Exit codes: 0 success, 1 configuration/usage error, 2 solver failure.
All numeric CSV output uses 17 significant digits so values round-trip
exactly; re-running a command with the same configuration reproduces the
output files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from . import mms
from .config import build_initial_state, load_config
from .errors import NoConvergenceError, PnpnsError
from .integrator import check_schedule, run
from .snapshot import atomic_write, read_snapshot, read_snapshot_meta, write_snapshot
from .state import StepDiagnostics, mass

DIAGNOSTICS_COLUMNS = (
    "step", "time", "mass_p", "mass_n", "min_p", "min_n", "max_p", "max_n",
    "energy_total", "energy_entropy_p", "energy_entropy_n", "energy_field",
    "energy_kinetic", "energy_pressure_aug", "newton_iters", "residual_step1",
    "krylov_iters_step1", "krylov_iters_step1_max", "krylov_iters_step2", "residual_step2",
)

PLOT_SAMPLE_TARGET = 32  # quiver stride aims at ~32 samples per direction


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _diagnostics_row(diag: StepDiagnostics) -> list[str]:
    e = diag.energy
    cells = (
        diag.step_index, diag.time, diag.mass_p, diag.mass_n,
        diag.min_p, diag.min_n, diag.max_p, diag.max_n,
        e.total, e.entropy_p, e.entropy_n, e.field, e.kinetic, e.pressure_aug,
        diag.newton_iters, diag.residual_step1,
        diag.krylov_iters_step1, diag.krylov_iters_step1_max,
        diag.krylov_iters_step2, diag.residual_step2,
    )
    return [_fmt(c) for c in cells]


def _write_lines(path: Path, lines: list[str]) -> None:
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def _write_plot_data(state, path: Path) -> None:
    grid = state.grid
    stride = max(1, grid.n_modes // PLOT_SAMPLE_TARGET)
    charge = state.p.values - state.n.values
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y", "p_minus_n", "u_x", "u_y"])
    for i in range(0, grid.n_modes, stride):
        for j in range(0, grid.n_modes, stride):
            writer.writerow([
                _fmt(grid.x[i]), _fmt(grid.y[j]), _fmt(charge[i, j]),
                _fmt(state.u.x_comp.values[i, j]), _fmt(state.u.y_comp.values[i, j]),
            ])
    atomic_write(path, buf.getvalue().encode("ascii"))


def cmd_run(config_path: str) -> int:
    try:
        config = load_config(config_path)
        state, forcing = build_initial_state(config)
        check_schedule(state, config.scheme)  # before diagnostics.csv is opened
    except PnpnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = config.output_dir
    snapshot_index = 0

    def snapshot_writer(snap_state):
        nonlocal snapshot_index
        path = out_dir / f"snapshot_{snapshot_index:04d}.bin"
        write_snapshot(snap_state, config.params, path)
        _write_plot_data(snap_state, out_dir / f"plotdata_{snapshot_index:04d}.csv")
        snapshot_index += 1
        return path

    # Rows stream to disk as their steps complete, so a run that fails or is
    # killed leaves the steps it finished as evidence.
    diagnostics_path = out_dir / config.diagnostics_csv
    diagnostics_path.parent.mkdir(parents=True, exist_ok=True)
    with open(diagnostics_path, "w", encoding="ascii", newline="\n") as diagnostics:
        def write_row(cells) -> None:
            diagnostics.write(",".join(cells) + "\n")
            diagnostics.flush()

        write_row(DIAGNOSTICS_COLUMNS)
        try:
            record = run(state, config.params, config.scheme, sources=forcing,
                         on_step=lambda diag: write_row(_diagnostics_row(diag)),
                         snapshot_writer=snapshot_writer)
        except PnpnsError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return 2

    final = record.final_state
    print(f"completed {len(record.diagnostics)} steps to t={final.time:g}; "
          f"mass_p={mass(final.p):.12g} mass_n={mass(final.n):.12g}; "
          f"{len(record.snapshots)} snapshots in {out_dir}")
    return 0


CONVERGENCE_COLUMNS = ("dt", "err_p", "err_n", "err_u", "err_psi",
                       "order_p", "order_n", "order_u", "order_psi")


def _format_convergence_table(rows: list[mms.ConvergenceRow]) -> str:
    lines = [f"{'dt':>12s} {'err_p':>11s} {'order':>6s} {'err_n':>11s} {'order':>6s} "
             f"{'err_u':>11s} {'order':>6s} {'err_psi':>11s} {'order':>6s}"]
    for row in rows:
        def order(v):
            return f"{v:6.2f}" if v is not None else "    --"
        lines.append(
            f"{row.dt:12.6g} {row.err_p:11.4e} {order(row.order_p)} "
            f"{row.err_n:11.4e} {order(row.order_n)} "
            f"{row.err_u:11.4e} {order(row.order_u)} "
            f"{row.err_psi:11.4e} {order(row.order_psi)}"
        )
    return "\n".join(lines)


def cmd_convergence(config_path: str) -> int:
    try:
        config = load_config(config_path, need_dt_list=True)
        if config.initial["preset"] != "mms":
            raise PnpnsError("convergence runs require the mms preset")
        variant = config.initial.get("variant", mms.DIVERGENCE_FREE)
        workers = mms.default_thread_count()
        rows = mms.convergence_study(config.dt_list, config.scheme, config.params,
                                     variant, max_workers=workers)
    except NoConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except PnpnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    csv_lines = [",".join(CONVERGENCE_COLUMNS)]
    for row in rows:
        cells = [row.dt, row.err_p, row.err_n, row.err_u, row.err_psi]
        orders = [row.order_p, row.order_n, row.order_u, row.order_psi]
        csv_lines.append(",".join(
            [_fmt(c) for c in cells] + ["" if o is None else _fmt(o) for o in orders]
        ))
    _write_lines(config.output_dir / config.convergence_csv, csv_lines)
    print(_format_convergence_table(rows))
    return 0


def cmd_inspect(snapshot_path: str) -> int:
    try:
        meta = read_snapshot_meta(snapshot_path)
        state = read_snapshot(snapshot_path)
    except PnpnsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"snapshot {snapshot_path}")
    print(f"  grid      : {meta['n_modes']} x {meta['n_modes']}")
    print(f"  time      : {meta['time']:.17g} (step {meta['step_index']})")
    print(f"  params    : {meta['params']}")
    print(f"  mass      : p={mass(state.p):.12g} n={mass(state.n):.12g}")
    print(f"  p range   : [{state.p.values.min():.6g}, {state.p.values.max():.6g}]")
    print(f"  n range   : [{state.n.values.min():.6g}, {state.n.values.max():.6g}]")
    print(f"  |u| max   : {max(abs(state.u.x_comp.values).max(), abs(state.u.y_comp.values).max()):.6g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pnpns",
        description="Pseudo-spectral solver for coupled ion transport and "
                    "incompressible flow on the periodic square",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="time-march a configuration")
    p_run.add_argument("config", help="path to JSON configuration")
    p_conv = sub.add_parser("convergence", help="dt-refinement error study")
    p_conv.add_argument("config", help="path to JSON configuration with time.dt_list")
    p_ins = sub.add_parser("inspect", help="print snapshot metadata and field stats")
    p_ins.add_argument("snapshot", help="path to a snapshot file")
    args = parser.parse_args(argv)

    if args.command == "run":
        return cmd_run(args.config)
    if args.command == "convergence":
        return cmd_convergence(args.config)
    return cmd_inspect(args.snapshot)


if __name__ == "__main__":
    sys.exit(main())
