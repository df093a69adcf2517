"""chartbank benchmark: preset sweep throughput and online step latency.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig4-bank --seed 0 --seconds 60 --trace 0

Prints the environment, every metric by name with its unit, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json, measured
untraced; with ``--trace 1`` they are the per-layer ones, taken from a traced
run of the same work.  The program runs single-threaded in this process
(``CHARTBANK_WORKERS`` must be unset), closed loop: each sweep or step starts
when the previous one has returned, so nothing queues and no wait is reported.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # fresh interpreters started after each unit
WORKLOAD_NAMES = ("fig4-bank", "fig5-window")


class ProbeDone(Exception):
    pass


def load_chartbank():
    """Import chartbank from this checkout's sources, never from an installed copy."""
    if not (SRC / "chartbank" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no chartbank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chartbank

    if Path(chartbank.__file__).resolve().parent != (SRC / "chartbank").resolve():
        raise SystemExit(f"benchmark: imported chartbank from {chartbank.__file__}, not {SRC}")
    return chartbank


def probe_setup(workload_name: str, seed: int) -> int:
    """Child side of the setup_s probe: run the sweep until its first path exists.

    Prints ``ready`` once the first ``sample_path``/``sample_path_multi`` call of
    the preset sweep has returned, then stops the sweep.
    """
    load_chartbank()
    from chartbank import cli, simulate

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    hooked = False
    for attr in ("sample_path", "sample_path_multi"):
        fn = getattr(simulate, attr, None)
        if fn is None:
            continue

        def first(*args, _fn=fn, **kwargs):
            out = _fn(*args, **kwargs)
            print("ready", flush=True)
            raise ProbeDone

        setattr(simulate, attr, first)
        hooked = True
    if not hooked:
        raise SystemExit("benchmark: simulate binds neither sample_path nor sample_path_multi")
    out_dir = OUT_ROOT / f"probe-{os.getpid()}"
    try:
        cli.main(workloads.sweep_argv(workload, workloads.preset_seed(seed, 0), out_dir))
    except ProbeDone:
        return 0
    finally:
        workloads.clear(out_dir)
    raise SystemExit("benchmark: the sweep finished without sampling a path")


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the workload's first path."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", workload_name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"benchmark: setup probe failed (exit {code})")
        times.append(elapsed)
    return times


def environment() -> dict:
    import numpy

    def cache(level: str) -> str:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            try:
                if (index / "level").read_text().strip() == level and (index / "type").read_text().strip() in (
                    "Unified",
                    "Data",
                ):
                    return (index / "size").read_text().strip()
            except OSError:
                continue
        return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2": cache("2"),
        "l3": cache("3"),
        "machine": platform.machine(),
    }


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    return float(sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)])


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict, log=print) -> dict:
    """Run one workload; return attempted and failed counts and its metrics."""
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[name]
    n_units, block = workloads.plan(workload, seconds)
    exp = expected.get(name, {})
    setup = workloads.step_setup(workload, seed)
    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    counts = {"attempted": 0, "failed": 0}

    def unit(index: int, stepped: workloads.StepResult, call=None, host_refs=None) -> float:
        """Sweep ``index`` then stepped block ``index``; returns the sweep's wall time.

        With ``host_refs``, the host reference runs just before and just after
        the sweep and its summed time is appended there.
        """
        p_seed = workloads.preset_seed(seed, index)
        before = workloads.host_reference(workload.host_ref_steps) if host_refs is not None else 0.0
        result = workloads.run_sweep(workload, p_seed, out_dir, call)
        if host_refs is not None:
            host_refs.append(before + workloads.host_reference(workload.host_ref_steps))
        pinned = exp.get("results_sha256") if (exp.get("seed"), exp.get("runs")) == (p_seed, workload.runs) else None
        bad = workloads.check_sweep(workload, result, out_dir, pinned)
        workloads.clear(out_dir)
        counts["attempted"] += workload.cells
        counts["failed"] += len(bad)
        if pinned is not None:
            log(f"check results.csv sha256 at preset seed {p_seed}: {'ok' if result.csv_sha256 == pinned else 'MISMATCH'}")
        if bad:
            log(f"check sweep {index} (preset seed {p_seed}, exit {result.exit_code}): cells {sorted(bad)} failed")
        workloads.run_stepping(setup, range(index * block, (index + 1) * block), workload.sub_block_runs, stepped)
        return result.wall_s

    tracer = reference = None
    setup_times = []
    if trace:
        # unit 0 untraced first, to set against its traced wall for the overhead
        ref_steps = workloads.StepResult()
        reference = unit(0, ref_steps) + sum(ref_steps.block_walls)
        counts.update(attempted=0, failed=0)  # the traced pass repeats unit 0 and counts it
        tracer = Tracer()
        tracer.install()
    stepped = workloads.StepResult()
    sweep_walls = []
    host_refs = [] if workload.host_ref_steps and not trace else None
    try:
        call = (lambda fn, argv: tracer.call("cli.main", fn, argv)) if tracer else None
        for index in range(n_units):
            sweep_walls.append(unit(index, stepped, call, host_refs))
            if not trace:
                setup_times.append(measure_setup(name, seed))
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    mismatched = workloads.check_stepping(setup, stepped.outcomes, seed)
    counts["attempted"] += len(stepped.outcomes)
    counts["failed"] += mismatched
    attempted, failed = counts["attempted"], counts["failed"]
    sweep_wall, step_wall = sum(sweep_walls), sum(stepped.block_walls)
    log(f"check stepped runs vs simulate_runs: {len(stepped.outcomes) - mismatched}/{len(stepped.outcomes)} agree")
    log(f"work: {n_units} x (sweep {workload.preset} @ {workload.runs} runs/cell, {workload.cells} cells; "
        f"{block} stepped runs), {len(stepped.latencies_ns)} steps")
    log(f"wall: sweeps {sweep_wall:.3f} s ({', '.join(f'{w:.3f}' for w in sweep_walls)}), stepping {step_wall:.3f} s")
    log(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted}; attempts are sweep cells and stepped runs)")
    log("waiting: none; single-threaded closed loop, CHARTBANK_WORKERS unset")

    if trace:
        traced_wall = sweep_wall + step_wall
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.coverage"] = tracer.covered_s() / traced_wall
        unit0_steps = sum(stepped.block_walls[: block // workload.sub_block_runs])
        metrics["trace.overhead_s"] = sweep_walls[0] + unit0_steps - reference
        absent = tracer.absent()
        if absent:
            log(f"absent (no longer defined, metrics left out): {', '.join(absent)}")
        log(f"trace overhead: {metrics['trace.overhead_s']:.3f} s on unit 0 (untraced {reference:.3f} s)")
    else:
        # Step latency is printed, not reported as a metric: the host switches
        # between speed states (a ChartBank.step median of about 21, 33 or
        # 41 us for the same code) that can last a minute, so its percentiles
        # spread far beyond any usable bound from run to run.  The per-sub-block
        # medians show which states a run met.
        pooled = sorted(stepped.latencies_ns)
        ends = itertools.accumulate(stepped.block_steps)
        block_p50 = [statistics.median(stepped.latencies_ns[end - n : end]) / 1e3
                     for end, n in zip(ends, stepped.block_steps)]
        detector = "ChartBank.step" if workload.preset == "fig4" else "WindowEngine.step"
        log(f"step_us_p50 {quantile(pooled, 0.50) / 1e3:.6g} us, step_us_p99 {quantile(pooled, 0.99) / 1e3:.6g} us "
            f"over {len(pooled)} calls of {detector}")
        log(f"step_us_p50 per sub-block of {workload.sub_block_runs} runs: {', '.join(f'{v:.1f}' for v in block_p50)}")
        setup_all = [t for probe in setup_times for t in probe]
        log(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup_all)}")
        rates = [workload.cells * workload.runs / w for w in sweep_walls]
        if host_refs:
            # each sweep's speed scaled to the reference host speed, measured
            # around that sweep; see "Host noise" in README.md
            nominal = 2 * workload.host_ref_steps * workloads.HOST_REF_NOMINAL_STEP_S
            log(f"runs_per_s unscaled {statistics.median(rates):.6g} 1/s; host reference "
                f"{', '.join(f'{h:.4f}' for h in host_refs)} s, nominal {nominal:.4f} s")
            rates = [r * h / nominal for r, h in zip(rates, host_refs)]
        metrics = {
            # median over sweeps, so one sweep slowed by the host does not move it
            "runs_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_all),
            "peak_rss_mb": peak_rss_mb,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if os.environ.get("CHARTBANK_WORKERS") is not None:
        raise SystemExit("benchmark: CHARTBANK_WORKERS must be unset; the default path is single-threaded")
    if args.probe_setup:
        return probe_setup(args.probe_setup, args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_chartbank()
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), expected)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"])
        if value is None:
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
