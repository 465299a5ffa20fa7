"""Passive span tracing around pnpns's public layer boundaries.

Inside `with tracer.installed():` wrappers stand in for the module
attributes and methods through which the solver reaches each layer; on exit
the originals are back. Wrappers only time and count: the arguments and
results pass through untouched, so a traced run computes bitwise the same
fields as an untraced one. Spans stay in memory until `write` is called at
the end of a run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import pnpns.integrator
import pnpns.mms
import pnpns.ns
import pnpns.pnp
import pnpns.snapshot
import pnpns.spectral

FFT_NAMES = ("spectral.rfft", "spectral.irfft")

#: (owner, attribute, span name): every call the solver makes through these
#: attributes becomes one span
_PATCH_POINTS = (
    (pnpns.integrator, "advance", "integrator.advance"),
    (pnpns.integrator, "solve_step1", "pnp.solve_step1"),
    (pnpns.integrator, "ion_forcing", "ns.ion_forcing"),
    (pnpns.integrator, "velocity_step", "ns.velocity_step"),
    (pnpns.integrator, "total_energy", "state.total_energy"),
    (pnpns.ns, "project_velocity", "ns.project_velocity"),
    (pnpns.spectral.Grid, "rfft", "spectral.rfft"),
    (pnpns.spectral.Grid, "irfft", "spectral.irfft"),
    (pnpns.mms.MMSCase, "ion_sources", "mms.ion_sources"),
    (pnpns.mms.MMSCase, "momentum_source", "mms.momentum_source"),
    (pnpns.snapshot, "write_snapshot", "snapshot.write"),
    (pnpns.snapshot, "read_snapshot", "snapshot.read"),
)


class Tracer:
    """Records spans as [id, parent id, name, start, end, step, info].

    `step` labels the spans that `ledger` counts (None: left out); `info`
    is the FFT's computed bytes or the GMRES call's inner iteration count.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.step: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, name, 0.0, 0.0, self.step, None]
            spans.append(rec)
            stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if name in FFT_NAMES:
                rec[6] = args[1].nbytes + out.nbytes
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place for the duration of a `with` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self) -> None:
        """Wrap every patch point the program still has; `missing` lists the others."""
        self.missing = []
        points = [(owner, attr, name, self.wrap) for owner, attr, name in _PATCH_POINTS]
        points.append((pnpns.pnp, "gmres", "pnp.gmres", self.wrap_gmres))
        for owner, attr, name, wrapper in points:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(name, original))

    def wrap_gmres(self, name: str, gmres):
        """scipy's gmres with a counting callback; the iteration count is the span's info."""
        spans = self.spans

        def counting(*args, **kwargs):
            count = 0

            def callback(_pr_norm):
                nonlocal count
                count += 1

            sid = len(spans)
            out = timed(*args, callback=callback, callback_type="pr_norm", **kwargs)
            spans[sid][6] = count
            return out

        timed = self.wrap(name, gmres)
        return counting

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "step", "info"],
                       "spans": self.spans}, fh)


def ledger(spans: list[list]) -> dict:
    """Per-name totals over the labelled spans.

    Returns {name: {"calls", "total_s", "self_s", "info", "info_max"}} where
    self time is the span's duration minus that of its direct children
    (children run nested and sequentially, so they never overlap), and info
    and info_max are the sum and the largest of the spans' info fields.
    Spans whose step is None are left out.
    """
    child_s = defaultdict(float)
    for _sid, parent, _name, start, end, _step, _info in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "info": 0, "info_max": 0})
    for sid, _parent, name, start, end, step, info in spans:
        if step is None:
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_s[sid]
        if info is not None:
            entry["info"] += info
            entry["info_max"] = max(entry["info_max"], info)
    return dict(out)
