"""pnpns benchmark: step cost end to end, and a traced per-layer ledger.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload blobs64 --seed 1 --seconds 26 --trace 0

One process per workload drives the public API: it builds the seeded
initial state, then repeats the workload's fixed trajectory of `advance`
calls, as many whole trajectories as fit in `--seconds`, checking the
scheme's guarantees at every step, and ends with a snapshot round trip.
Set-up time is measured in separate fresh processes. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it alternates untraced
trajectories with ones that record spans at each layer boundary, and
reports the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units come from BENCHMARK.json; perfbench/README.md defines them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
#: untimed trajectories run for this long before the timed ones
WARMUP_S = 6.0
#: MMS forcing evaluations timed on the side when the workload has none
SIDE_FORCING_EVALS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread unless the caller chose otherwise: on a small shared box a
# second OpenBLAS thread doubles CPU time without lowering wall time and
# makes step times swing. Set before numpy loads, here and in every probe.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("blobs64", "mms128", "vortex256"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import and set-up in this fresh process")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# -- set-up, in fresh processes ---------------------------------------------

def setup_probe(args) -> dict:
    """Time `import pnpns` and the initial state; mms128's includes make_case.

    In trace mode the case build is timed in every workload's probe (after
    the state, so it never counts toward a workload that does not use it).
    """
    t0 = time.perf_counter()
    import pnpns
    t1 = time.perf_counter()
    import workloads

    case_s = None
    if args.workload == "mms128":
        pnpns.make_case(workloads.MMS_PARAMS)
        case_s = time.perf_counter() - t1
    workloads.build(args.workload, args.seed)
    t2 = time.perf_counter()
    if case_s is None and args.trace:
        pnpns.make_case(workloads.MMS_PARAMS)
        case_s = time.perf_counter() - t2
    return {"import_s": t1 - t0, "state_s": t2 - t1, "case_build_s": case_s}


def run_probes(args, ref) -> list[dict]:
    """Set-up probes in fresh processes, each with its speed factor.

    The reference kernel runs in this process between the probes; a probe's
    factor is NOMINAL_MS over the mean of the kernel's times around it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    probes = []
    before = ref()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        after = ref()
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probe["factor"] = ref.factor(before, after)
        probes.append(probe)
        before = after
    return probes


# -- the stepped loop ----------------------------------------------------------

class Tally:
    """Steps attempted, and failed steps and checks, of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def fields_bytes(state) -> bytes:
    """Every field of a state, for bitwise comparison.

    Walks the dataclass fields, so a SimState that gains or loses a field
    is still compared whole.
    """
    parts = []
    for field in dataclasses.fields(state):
        value = getattr(state, field.name)
        comps = (value.x_comp, value.y_comp) if hasattr(value, "x_comp") else (value,)
        for comp in comps:
            parts.append(comp.values.tobytes() if hasattr(comp, "values")
                         else repr(comp).encode())
    return b"".join(parts)


def checked_step(ctx, state, energy_prev, tracer=None, step_label=None):
    """One `advance` with the per-step checks; returns (state, diag) or None."""
    import pnpns
    import workloads

    wl, tally = ctx["wl"], ctx["tally"]
    tally.attempted += 1
    if tracer is not None:
        tracer.step = step_label
    try:
        new_state, diag = pnpns.integrator.advance(state, wl.params, wl.cfg, wl.sources)
    except pnpns.errors.PnpnsError as exc:
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    finally:
        if tracer is not None:
            tracer.step = None
    breaches = workloads.step_failures(wl, ctx["mass_p0"], ctx["mass_n0"],
                                       energy_prev, diag)
    if breaches:
        tally.fail("; ".join(breaches))
    return new_state, diag


def trajectory(ctx, tracer=None, label_base=0):
    """The workload's fixed trajectory from its initial state.

    Returns (final state or None on failure, per-step wall s, per-step CPU s,
    per-step speed factors, diagnostics). Only the `advance` calls are
    timed; the reference kernel runs between them, and a step's speed
    factor is NOMINAL_MS over the mean of the kernel's times right before
    and right after it.
    """
    wl, ref = ctx["wl"], ctx["reference"]
    state, energy = wl.state, ctx["energy0"]
    walls, cpus, factors, diags = [], [], [], []
    ref_before = ref()
    for k in range(wl.steps):
        w0, c0 = time.perf_counter(), time.process_time()
        out = checked_step(ctx, state, energy, tracer, label_base + k)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if out is None:
            return None, walls, cpus, factors, diags
        ref_after = ref()
        factors.append(ref.factor(ref_before, ref_after))
        ref_before = ref_after
        state, diag = out
        energy = diag.energy.total
        diags.append(diag)
    return state, walls, cpus, factors, diags


def timed_reps(ctx, seconds: float, tracer=None) -> dict:
    """Repeat the trajectory, as many whole rounds as fit in `seconds` (at least one).

    A round is one untraced trajectory and, given a tracer, one traced one:
    alternating keeps both under the same machine load, so their ratio is
    the tracing overhead. Every trajectory must end in bitwise the same
    fields as the first: repeatable, and traced runs compute what untraced
    ones do. Returns {False: untraced results, True: traced results}.
    """
    tally = ctx["tally"]
    runs = {False: [], True: []}
    kinds = (False, True) if tracer is not None else (False,)
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for traced in kinds:
            with tracer.installed() if traced else contextlib.nullcontext():
                final, *times, diags = trajectory(
                    ctx, tracer if traced else None, len(runs[True]) * ctx["wl"].steps)
            runs[traced].append((*times, diags))
            if final is None:
                return runs
            digest = fields_bytes(final)
            ctx.setdefault("final_bytes", digest)
            ctx.setdefault("final_state", final)
            if digest != ctx["final_bytes"]:
                kind = "traced" if traced else "untraced"
                tally.fail(f"{kind} trajectory {len(runs[traced])} ended in "
                           "different fields from the first trajectory")
        now = time.perf_counter()
        if now + (now - round_started) - started > seconds:
            return runs


def snapshot_round_trip(ctx, tracer=None) -> int | None:
    """write_snapshot, read_snapshot, then one more step from both copies.

    Returns the snapshot's size in bytes (None when no trajectory finished).
    """
    import pnpns

    tally, wl = ctx["tally"], ctx["wl"]
    state = ctx.get("final_state")
    if state is None:
        return None
    path = OUT / f"{wl.name}-seed{ctx['seed']}.snap"
    if tracer is not None:
        tracer.step = "snapshot"
    pnpns.snapshot.write_snapshot(state, wl.params, path)
    reloaded = pnpns.snapshot.read_snapshot(path, expected_n_modes=wl.cfg.n_modes)
    if tracer is not None:
        tracer.step = None
    size = path.stat().st_size
    path.unlink()
    energy = state_energy(state, wl)
    after = [checked_step(ctx, s, energy) for s in (state, reloaded)]
    if None not in after and fields_bytes(after[0][0]) != fields_bytes(after[1][0]):
        tally.fail("step from the reloaded snapshot differs from the step in memory")
    return size


def state_energy(state, wl) -> float:
    import pnpns

    return pnpns.state.total_energy(state, wl.params, wl.cfg.dt).total


# -- metrics ---------------------------------------------------------------------

def complete(results) -> list:
    """The trajectories that ran every step."""
    return [rep for rep in results if len(rep[-1]) == len(rep[0])]


def per_rep_ms(results, index: int, scaled: bool) -> list[float]:
    """ms per step of each complete trajectory (index 0: wall, 1: CPU).

    Scaled: each step's time multiplied by its speed factor, i.e. the time
    it would have taken at the reference kernel's nominal speed.
    """
    return [1e3 * statistics.fmean(t * (f if scaled else 1.0)
                                   for t, f in zip(rep[index], rep[2]))
            for rep in complete(results)]


def step_percentiles(results) -> dict:
    """Median and 90th percentile of single `advance` calls, with the sample count."""
    walls = [1e3 * t for rep in complete(results) for t in rep[0]]
    p90 = statistics.quantiles(walls, n=10)[-1] if len(walls) > 1 else walls[0]
    return {"samples": len(walls), "p50_ms": statistics.median(walls), "p90_ms": p90}


def end_to_end(results, probes) -> dict:
    return {
        "ms_per_step": statistics.median(per_rep_ms(results, 0, scaled=True)),
        "cpu_ms_per_step": statistics.median(per_rep_ms(results, 1, scaled=True)),
        "setup_s": statistics.median((p["import_s"] + p["state_s"]) * p["factor"]
                                     for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(spans, untraced, traced, probes, snapshot_bytes: int) -> dict:
    import tracing

    book = tracing.ledger(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0, "info_max": 0}

    def entry(name):
        return book.get(name, empty)

    steps = entry("integrator.advance")["calls"]

    def total_ms(name):
        return 1e3 * entry(name)["total_s"] / steps

    fft = [entry(n) for n in tracing.FFT_NAMES]
    fft_calls = sum(e["calls"] for e in fft)
    fft_s = sum(e["total_s"] for e in fft)
    gmres = entry("pnp.gmres")
    diags = [d for rep in traced for d in rep[-1]]
    forcing = [entry(n) for n in ("mms.ion_sources", "mms.momentum_source")]
    return {
        "spectral.fft_calls": fft_calls / steps,
        "spectral.fft_ms": 1e3 * fft_s / steps,
        "spectral.fft_us_per_call": 1e6 * fft_s / max(fft_calls, 1),
        "spectral.fft_bytes_computed": sum(e["info"] for e in fft) / steps,
        "pnp.step1_ms": total_ms("pnp.solve_step1"),
        "pnp.newton_iters": statistics.fmean(d.newton_iters for d in diags),
        "pnp.gmres_iters": gmres["info"] / steps,
        "pnp.gmres_iters_per_newton_max": gmres["info_max"],
        "pnp.gmres_ms": 1e3 * gmres["total_s"] / steps,
        "pnp.gmres_self_ms": 1e3 * gmres["self_s"] / steps,
        "ns.momentum_ms": total_ms("ns.velocity_step") - total_ms("ns.project_velocity"),
        "ns.bicgstab_ops": statistics.fmean(d.krylov_iters_step2 for d in diags),
        "ns.projection_ms": total_ms("ns.project_velocity"),
        "ns.ion_forcing_ms": total_ms("ns.ion_forcing"),
        "mms.forcing_ms": (1e3 * sum(e["total_s"] for e in forcing)
                           / max(forcing[0]["calls"], 1)),
        "mms.case_build_s": statistics.median(p["case_build_s"] for p in probes),
        "state.energy_ms": total_ms("state.total_energy"),
        "integrator.self_ms": 1e3 * entry("integrator.advance")["self_s"] / steps,
        "integrator.step_ms": total_ms("integrator.advance"),
        "snapshot.write_ms": 1e3 * entry("snapshot.write")["total_s"],
        "snapshot.read_ms": 1e3 * entry("snapshot.read")["total_s"],
        "snapshot.bytes": snapshot_bytes,
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.state_s": statistics.median(p["state_s"] for p in probes),
        "trace.overhead": (statistics.median(per_rep_ms(traced, 0, scaled=True))
                           / statistics.median(per_rep_ms(untraced, 0, scaled=True))),
    }


def side_forcing(ctx, tracer) -> None:
    """Time MMS forcing evaluations on the workload's grid when it has none.

    The spans land in the ledger under the same names as mms128's in-step
    evaluations, so mms.forcing_ms means one evaluation on every workload.
    """
    import pnpns
    import workloads

    wl = ctx["wl"]
    if wl.sources is not None:
        return
    case = pnpns.make_case(workloads.MMS_PARAMS)
    tracer.step = "side"
    for k in range(1, SIDE_FORCING_EVALS + 1):
        t = k * wl.cfg.dt
        case.ion_sources(t, wl.state.grid)
        case.momentum_source(t, wl.state.grid)
    tracer.step = None


# -- environment -------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it ("unknown" if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, wl, reps: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def blas(config) -> str:
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "steps_per_trajectory": wl.steps, "trajectories": reps,
        "cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


# -- main --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pnpns" / "__init__.py").is_file():
        print(f"perfbench: no pnpns sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import reference

    ref = reference.Reference()
    probes = run_probes(args, ref)

    import pnpns
    if not Path(pnpns.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported pnpns from {pnpns.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed)
    tally = Tally()
    ctx = {"wl": wl, "tally": tally, "seed": args.seed, "reference": ref,
           "mass_p0": pnpns.mass(wl.state.p), "mass_n0": pnpns.mass(wl.state.n),
           "energy0": state_energy(wl.state, wl)}

    # untimed trajectories first: lazy caches fill and the heap grows to its
    # working size (vortex256's first 6 s otherwise run 10-30% slow)
    timed_reps(ctx, WARMUP_S)

    tracer = tracing.Tracer() if args.trace else None
    runs = timed_reps(ctx, args.seconds, tracer)
    results = runs[False]
    with tracer.installed() if tracer else contextlib.nullcontext():
        snap = snapshot_round_trip(ctx, tracer)
        if tracer:
            side_forcing(ctx, tracer)
    final = ctx.get("final_state")
    if final is not None:
        for message in workloads.final_failures(wl, final):
            tally.fail(message)

    # a step that raised leaves nothing to time; a failed check only makes
    # the run incorrect
    finished = snap is not None and all(
        len(rep[-1]) == wl.steps for kind in runs.values() for rep in kind)
    values, steps, metrics = {}, {}, {}
    if finished:
        values, steps = end_to_end(results, probes), step_percentiles(results)
        if args.trace:
            values.update(per_layer(tracer.spans, runs[False], runs[True], probes, snap))
        section = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec[section]}

    env = environment(args, wl, len(results))
    report = {"env": env, "single_steps": steps, "probes": probes,
              "trajectory_ms_per_step": per_rep_ms(results, 0, scaled=False),
              "trajectory_scaled_ms_per_step": per_rep_ms(results, 0, scaled=True),
              "failed_step_share": tally.failed / tally.attempted,
              "failures": tally.messages, "values": values,
              "not_traced": tracer.missing if tracer is not None else []}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.json")

    for message in tally.messages:
        print(f"FAILED CHECK: {message}")
    if tracer is not None and tracer.missing:
        print(f"not traced, absent from this version: {', '.join(tracer.missing)}")
    print(f"environment: {json.dumps(env)}")
    print(f"{'failed_step_share':32s} {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} steps and checks)")
    if steps:
        print(f"{'single step, median':32s} {steps['p50_ms']:.6g} ms "
              f"(p90 {steps['p90_ms']:.6g} ms, {steps['samples']} samples)")
        raw = per_rep_ms(results, 0, scaled=False)
        print(f"{'unscaled ms/step, median':32s} {statistics.median(raw):.6g} ms "
              f"({len(raw)} trajectories)")
        raw_setup = statistics.median(p["import_s"] + p["state_s"] for p in probes)
        print(f"{'unscaled set-up, median':32s} {raw_setup:.6g} s")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if args.trace and metrics:
        parts = ["pnp.step1_ms", "ns.momentum_ms", "ns.projection_ms",
                 "ns.ion_forcing_ms", "state.energy_ms", "integrator.self_ms"]
        if wl.sources is not None:
            parts.append("mms.forcing_ms")
        for name in parts:
            print(f"share of step {name:18s} "
                  f"{values[name] / values['integrator.step_ms']:.1%}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
