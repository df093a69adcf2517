"""The two benchmark workloads: a preset sweep phase and an online stepping phase each.

* ``fig4-bank``: ``chartbank preset fig4`` through ``cli.main`` (16 cells: sr/max
  x 2 grids x 4 alphas), then fresh ``ChartBank`` objects stepped one
  observation at a time (fig4 fine grid, ``sr``, alpha 1e-3).
* ``fig5-window``: the ``fig5`` preset's config (3 cells, 3 sources x 7
  candidates, window 200) with a pinned horizon and censoring cap, through
  ``cli.main run``, then fresh ``WindowEngine`` objects stepped the same way
  (fig5 sources, window 200, alpha 1e-2).

The work of a run is fixed by ``(seed, seconds)``: ``seconds`` sizes the number
of sweeps and stepped runs from the seed commit's speed, so a faster program
finishes sooner on identical inputs and traced counts repeat exactly.  All
paths come from the program's own samplers, seeded from the workload seed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import shutil
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chartbank import cli, design, detectors, families, simulate, windowed


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    runs: int  # Monte Carlo runs per cell
    cells: int
    horizon: int | None  # None keeps the preset's auto horizon
    censor_cap: float | None  # None keeps the preset's cap
    sweep_share: float  # share of --seconds spent in sweeps at seed-commit speed
    nominal_sweep_s: float  # seed-commit time of one sweep, sizes the sweep count
    step_share: float
    nominal_run_ms: float  # seed-commit time of one stepped run
    step_alpha: float
    sub_block_runs: int  # stepped runs per latency sub-block, about 0.2 s and over 1000 calls
    host_ref_steps: int = 0  # host_reference steps before and after each sweep; 0 reports raw speed


# fig5 runs 400 per cell: the per-source ring table (runs x 7 x 201 x 8 B,
# 4.3 MiB) must stay above the 4 MiB of L2, as the preset's 2048-run batch
# does; a 128-run batch fits in L2 and runs about twice as fast per run.
# A batch steps every row until its last run stops, so with the auto horizon a
# sweep's work follows the largest change time among 400 runs and moved by
# +-20% from seed to seed.  A 400-slot horizon censors about 2% of runs (4 to
# 13 of 400 per cell), so every batch runs exactly 400 slots at any seed; the
# 0.1 cap keeps those cells valid (40 censored runs would be a 10-sigma event).
WORKLOADS = {
    "fig4-bank": Workload("fig4-bank", "fig4", 2000, 16, None, None, 0.6, 7.0, 0.05, 4.5, 1e-3, 30),
    "fig5-window": Workload("fig5-window", "fig5", 400, 3, 400, 0.1, 0.8, 7.5, 0.05, 15.0, 1e-2, 15, 100),
}

STEP_STREAM = 99  # stepped runs use seeds (seed, STEP_STREAM, run)


def plan(workload: Workload, seconds: float) -> tuple[int, int]:
    """Units and stepped runs per unit for a run of the given length at seed-commit speed.

    A unit is one sweep followed by one block of stepped runs, so both phases
    sample the machine across the whole run.
    """
    units = max(1, round(workload.sweep_share * seconds / workload.nominal_sweep_s))
    step_runs = round(workload.step_share * seconds * 1e3 / workload.nominal_run_ms)
    per_unit = math.ceil(step_runs / units / workload.sub_block_runs) * workload.sub_block_runs
    return units, max(workload.sub_block_runs, per_unit)


def preset_seed(seed: int, index: int) -> int:
    """Seed of the index-th sweep; sweep 0 of workload seed s runs preset seed s * 100."""
    return seed * 100 + index


# Seconds per host_reference step on the host the baseline was measured on,
# so that scaled speeds read close to raw ones there.
HOST_REF_NOMINAL_STEP_S = 4.4e-3


def host_reference(steps: int) -> float:
    """Seconds taken by a fixed numpy kernel shaped like the fig5 sweep's inner loop.

    Each step recycles one column of three 400 x 7 x 201 float64 ring tables
    (4.3 MiB each, above L2), adds a per-row increment, takes the max over
    the 7 candidates and combines the three per-column maxima.  It calls no
    chartbank code, so it moves with the host's speed and not with the program.
    """
    tables = [np.zeros((400, 7, 201)) for _ in range(3)]
    inc = np.linspace(-1.0, 1.0, 400 * 7).reshape(400, 7, 1)
    weights = np.arange(1.0, 202.0)
    t0 = time.perf_counter()
    for step in range(steps):
        col = (step + 1) % 201
        bests = []
        for table in tables:
            table[..., col] = 0.0
            table += inc
            bests.append(table.max(axis=-2))
        (weights[None, :] + sum(bests)).max(axis=1)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# sweep phase


@dataclass
class SweepResult:
    wall_s: float
    exit_code: int
    csv_sha256: str | None


def sweep_argv(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    """``cli.main`` arguments of one sweep: the preset, or its config with a pinned horizon and cap."""
    if workload.horizon is None:
        return ["preset", workload.preset, "--out", str(out_dir), "--seed", str(seed), "--runs", str(workload.runs)]
    cfg = dataclasses.replace(
        cli.preset_config(workload.preset, seed, workload.runs),
        horizon=workload.horizon,
        censor_cap=workload.censor_cap,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir.with_suffix(".cfg")
    cfg_path.write_text(cli.config_to_text(cfg))
    return ["run", str(cfg_path), "--out", str(out_dir)]


def run_sweep(workload: Workload, seed: int, out_dir: Path, call=None) -> SweepResult:
    """One sweep through ``cli.main``; ``call`` lets a tracer wrap it."""
    argv = sweep_argv(workload, seed, out_dir)
    t0 = time.perf_counter()
    try:
        code = call(cli.main, argv) if call else cli.main(argv)
    except Exception:  # a crashing program fails its cells, the run goes on
        traceback.print_exc()
        code = -1
    wall = time.perf_counter() - t0
    csv_path = out_dir / "results.csv"
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest() if csv_path.is_file() else None
    return SweepResult(wall, code, digest)


def check_sweep(workload: Workload, result: SweepResult, out_dir: Path, expected_sha256: str | None) -> set:
    """Indices of failed cells; every cell fails on a bad exit code or a hash mismatch."""
    every = set(range(workload.cells))
    if result.exit_code != 0 or result.csv_sha256 is None:
        return every
    if expected_sha256 is not None and result.csv_sha256 != expected_sha256:
        return every
    failed = set()
    with open(out_dir / "results.csv", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    manifest = json.loads((out_dir / "manifest.json").read_text())
    cells = manifest.get("cells", [])
    failed |= set(range(len(rows), workload.cells))
    for idx, row in enumerate(rows[: workload.cells]):
        alpha, pfa, pfa_se = float(row["alpha"]), float(row["pfa_hat"]), float(row["pfa_se"])
        valid = idx < len(cells) and cells[idx].get("valid") is True
        if not valid or not pfa <= alpha + 3.0 * pfa_se:
            failed.add(idx)
    # runs are paired across templates at each alpha and SR >= MAX pathwise, so
    # the SR bank's mean delay can never exceed the MAX bank's on the same grid
    by_key = {(row["alpha"], row["detector"]): (idx, float(row["add_hat"])) for idx, row in enumerate(rows)}
    for (alpha, detector), (idx, add_sr) in by_key.items():
        if detector.startswith("sr-"):
            partner = by_key.get((alpha, "max-" + detector[3:]))
            if partner is None or not add_sr <= partner[1]:
                failed.add(idx)
    return failed


# ---------------------------------------------------------------------------
# online stepping phase


@dataclass
class StepSetup:
    """One online detector configuration: how to build it and its batch counterpart."""

    make_detector: object
    spec: object
    lam_true: object
    horizon: int
    sample: object  # run index -> the per-step inputs of that run


@dataclass
class StepResult:
    latencies_ns: array = field(default_factory=lambda: array("q"))
    outcomes: list = field(default_factory=list)  # (stop slot or 0, firing chart or -1) per run
    block_walls: list = field(default_factory=list)
    block_steps: list = field(default_factory=list)


def bank_setup(seed: int, alpha: float) -> StepSetup:
    cfg = cli.preset_config("fig4")
    family = families.GaussianMeanShift(
        pre_mean=cfg.pre_param, sigma=cfg.noise_sigma, post_params=families.Interval(cfg.lambda_low, cfg.lambda_high)
    )
    prior = families.GeometricPrior(cfg.rho)
    grid = cfg.grids[-1]
    variant = detectors.ChartVariant.SR
    log_b = design.threshold_for(alpha, cfg.rho, len(grid))
    template = simulate.BankTemplate("sr-grid2", family, prior, grid, variant)
    horizon = simulate.default_horizon(alpha, prior, simulate.best_drift(template, cfg.lambda_true), cfg.censor_cap)
    lam = cfg.lambda_true

    def sample(run: int) -> list:
        _, path = families.sample_path(family, prior, lam, horizon, [seed, STEP_STREAM, run])
        return path.tolist()

    return StepSetup(
        make_detector=lambda: detectors.ChartBank(family, prior, grid, log_b, variant),
        spec=simulate.BankSpec(family=family, prior=prior, grid=grid, log_thresholds=(log_b,), variant=variant),
        lam_true=lam,
        horizon=horizon,
        sample=sample,
    )


def window_setup(seed: int, alpha: float) -> StepSetup:
    cfg = cli.preset_config("fig5")
    # the same source families the multisource preset builds
    fams = tuple(
        families.GaussianVarianceShift(
            pre_sigma=p, post_params=families.Interval(min(*g, t) * 0.5, max(*g, t) * 2.0)
        )
        for p, g, t in zip(cfg.pre_params, cfg.source_grids, cfg.lambda_true)
    )
    prior = families.GeometricPrior(cfg.rho)
    n_charts = math.prod(len(g) for g in cfg.source_grids)
    log_b = design.threshold_for(alpha, cfg.rho, n_charts)
    template = simulate.WindowTemplate("windowed-max", fams, prior, cfg.source_grids, cfg.window)
    horizon = simulate.default_horizon(alpha, prior, simulate.best_drift(template, cfg.lambda_true), cfg.censor_cap)
    lams = cfg.lambda_true

    def sample(run: int) -> np.ndarray:
        _, block = families.sample_path_multi(list(fams), prior, lams, horizon, [seed, STEP_STREAM, run])
        return np.ascontiguousarray(block.T)

    return StepSetup(
        make_detector=lambda: windowed.WindowEngine(fams, prior, cfg.source_grids, cfg.window, log_b),
        spec=simulate.WindowSpec(
            families=fams, prior=prior, grids=cfg.source_grids, window_len=cfg.window, log_threshold=log_b
        ),
        lam_true=lams,
        horizon=horizon,
        sample=sample,
    )


def step_setup(workload: Workload, seed: int) -> StepSetup:
    maker = bank_setup if workload.preset == "fig4" else window_setup
    return maker(seed, workload.step_alpha)


def run_stepping(setup: StepSetup, runs: range, sub_block: int, result: StepResult) -> None:
    """Feed fresh detectors one observation at a time; time every ``step`` call.

    Runs go in sub-blocks of ``sub_block`` runs; a sub-block's paths are
    generated before its first step is timed.
    """
    clock = time.perf_counter_ns
    latencies, outcomes = result.latencies_ns, result.outcomes
    for lo in range(runs.start, runs.stop, sub_block):
        t_block = time.perf_counter()
        paths = [setup.sample(run) for run in range(lo, min(lo + sub_block, runs.stop))]
        first = len(latencies)
        for path in paths:
            det = setup.make_detector()
            outcome = (0, -1)
            for x in path:
                t0 = clock()
                report = det.step(x)
                latencies.append(clock() - t0)
                if report is not None:
                    outcome = (report.stopped_at, report.firing_chart)
                    break
            outcomes.append(outcome)
        result.block_walls.append(time.perf_counter() - t_block)
        result.block_steps.append(len(latencies) - first)


def check_stepping(setup: StepSetup, outcomes: list, seed: int) -> int:
    """Stepped runs whose stop slot or firing chart differ from ``simulate_runs``."""
    runs = simulate.simulate_runs(setup.spec, setup.lam_true, len(outcomes), setup.horizon, [seed, STEP_STREAM])
    stop = np.asarray(runs.stop_time)
    chart = np.where(stop > 0, np.asarray(runs.firing_chart), -1)
    return sum(1 for i, (s, c) in enumerate(outcomes) if (s, c) != (int(stop[i]), int(chart[i])))


def clear(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.with_suffix(".cfg").unlink(missing_ok=True)
