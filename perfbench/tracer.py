"""Span tracer that wraps chartbank's public functions where their callers bind them.

Every wrapped callable records a span: call count, total time and self time
(its duration minus the part covered by spans it caused), plus work counts
taken from its arguments and results.  Spans nest on one stack.  The benchmark
runs single-threaded with ``CHARTBANK_WORKERS`` unset, so nothing in the
process queues or waits and no wait times are recorded.

Wrapping happens from the benchmark's files only; no source file changes.  A
name that a later version of the program no longer defines is skipped and
reported as absent instead of failing the run.
"""

from __future__ import annotations

import inspect
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = {}
        self.wanted: set[str] = set()
        self.present: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        # kernel row counts of the simulate_runs call in progress, if any
        self._sim: dict | None = None
        self.row_steps = 0  # (run, slot) pairs the batch kernels advanced
        self.useful_row_steps = 0  # stop slot, or horizon if censored, summed over runs

    def record(self, name: str) -> dict[str, float]:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = {"calls": 0, "self_s": 0.0}
        return rec

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; ``count(rec, args, kwargs, out)`` adds work counts."""
        stack = self._stack
        rec = self.record(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec["calls"] += 1
                rec["self_s"] += dt - frame[0]
            if count is not None:
                count(rec, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of fn inside a span, without patching anything."""
        self.present.add(name)
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, name: str, owners, attr: str, count=None, counters: tuple[str, ...] = ()) -> None:
        """Wrap ``attr`` on every owner that defines it, all under one span name.

        ``counters`` start at zero so a layer a workload never enters reports 0.
        """
        self.wanted.add(name)
        for key in counters:
            self.record(name).setdefault(key, 0)
        for owner in owners:
            if owner is None:
                continue
            if isinstance(owner, type):
                fn = owner.__dict__.get(attr)  # only where the class itself defines it
            else:
                fn = getattr(owner, attr, None)
            if fn is None or not callable(fn):
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count))
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def absent(self) -> list[str]:
        """Span names whose function no longer exists anywhere it was looked for."""
        return sorted(self.wanted - self.present)

    def covered_s(self) -> float:
        return sum(rec["self_s"] for rec in self.stats.values())

    # -- work counts -----------------------------------------------------

    def _count_cells(self, rec, args, kwargs, out) -> None:
        rec["cells"] += int(np.size(out))

    def _count_advance(self, rec, args, kwargs, out) -> None:
        arr = np.asarray(out)
        rows = arr.size // arr.shape[-1] if arr.ndim else 1
        rec["row_steps"] += rows
        if self._sim is not None:
            self._sim["advance_rows"] += rows

    def _count_ring(self, rec, args, kwargs, out) -> None:
        table = np.asarray(args[0] if args else kwargs["table"])
        rec["cells"] += table.size
        # computed, not measured: recycle one column, read+write every cell for
        # the add, read every cell for the max, write the per-column maxima
        column = table.nbytes // table.shape[-1]
        rec["bytes_computed"] += column + 3 * table.nbytes + np.asarray(out).nbytes
        if self._sim is not None:
            self._sim["ring_rows"] += table.size // (table.shape[-1] * table.shape[-2])

    def _count_written(self, rec, args, kwargs, out) -> None:
        out_dir = Path(args[0] if args else kwargs["out_dir"])
        rec["bytes"] += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    def _wrap_simulate_runs(self, fn):
        """simulate_runs span that also counts executed and useful row-steps."""
        signature = inspect.signature(fn)
        traced = self.wrap("simulate.simulate_runs", fn)

        def counted(*args, **kwargs):
            outer, self._sim = self._sim, {"advance_rows": 0, "ring_rows": 0}
            try:
                runs = traced(*args, **kwargs)
                sim = self._sim
            finally:
                self._sim = outer
            bound = signature.bind(*args, **kwargs)
            spec, horizon = bound.arguments["spec"], int(bound.arguments["horizon"])
            if hasattr(spec, "families"):
                executed = sim["ring_rows"] // len(spec.families)
            else:
                executed = sim["advance_rows"]
            stop = np.asarray(runs.stop_time)
            self.row_steps += executed
            self.useful_row_steps += int(np.where(stop > 0, stop, horizon).sum())
            return runs

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap each chartbank layer boundary at every place a caller binds it."""
        import chartbank
        from chartbank import cli, detectors, families, simulate, windowed

        self.patch("families.sample_path", (families, simulate, chartbank), "sample_path")
        self.patch("families.sample_path_multi", (families, simulate, chartbank), "sample_path_multi")
        llr_owners = [
            cls
            for cls in vars(families).values()
            if isinstance(cls, type) and issubclass(cls, families.ObservationFamily) and "llr" in cls.__dict__
        ]
        self.patch("families.llr", llr_owners, "llr", self._count_cells, ("cells",))
        self.patch(
            "detectors.advance_log_stats",
            (detectors, simulate, chartbank),
            "advance_log_stats",
            self._count_advance,
            ("row_steps",),
        )
        self.patch("detectors.ChartBank.__init__", (detectors.ChartBank,), "__init__")
        self.patch("detectors.ChartBank.step", (detectors.ChartBank,), "step")
        self.patch(
            "windowed.ring_advance", (windowed, simulate), "ring_advance", self._count_ring, ("cells", "bytes_computed")
        )
        self.patch("windowed.window_offsets", (windowed, simulate), "window_offsets")
        self.patch("windowed.WindowEngine.__init__", (windowed.WindowEngine,), "__init__")
        self.patch("windowed.WindowEngine.step", (windowed.WindowEngine,), "step")
        self.wanted.add("simulate.simulate_runs")
        for owner in (simulate, chartbank):
            fn = getattr(owner, "simulate_runs", None)
            if fn is not None:
                self._patches.append((owner, "simulate_runs", fn))
                setattr(owner, "simulate_runs", self._wrap_simulate_runs(fn))
                self.present.add("simulate.simulate_runs")
        self.patch("cli.write_outputs", (cli,), "write_outputs", self._count_written, ("bytes",))

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics; names of functions that no longer exist are left out."""
        out = {
            f"{name}.{key}": value
            for name, rec in self.stats.items()
            if name in self.present
            for key, value in rec.items()
        }
        kernels = {"simulate.simulate_runs", "detectors.advance_log_stats", "windowed.ring_advance"}
        if kernels <= self.present:
            out["simulate.row_steps"] = self.row_steps
            out["simulate.useful_row_steps"] = self.useful_row_steps
            if self.row_steps:
                out["simulate.useful_frac"] = self.useful_row_steps / self.row_steps
        return out
