"""Experiment runner.

Subcommands:

* ``run <config>``: execute a flat key=value config file, whose check first
  builds every cell of the one sweep plan (``_sweep_plan``) the run follows.
* ``preset <fig4|fig5|example1> --out DIR [--seed N] [--runs N]``: run a
  built-in configuration, materializing the equivalent config file next to
  the results.  Presets are config text in ``PRESETS``, parsed and checked
  exactly as config files are, overrides included.
* ``selftest``: fast differential and identity checks, no files written.

Outputs per run: ``results.csv`` (fixed column order), ``manifest.json``
(resolved config, derived quantities, content hash) and ``config.txt``.
The CSV's first line carries the manifest hash so tables and configs cannot
be mismatched.  All outputs are byte-identical across repeated runs with the
same config and seed.

Exit codes: 0 success, 2 config parse or validation error, 3 capacity or
censoring validity failure (partial outputs are written and flagged).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, make_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .design import DesignSpec, default_lipschitz_constant, design_grid, verify_grid
from .detectors import (
    ChartBank,
    ChartVariant,
    posterior_complement_from_stat,
    posterior_from_stat,
    stat_from_posterior,
)
from .errors import CapacityError
from .families import GaussianMeanShift, GaussianVarianceShift, GeometricPrior, Interval
from .simulate import (
    BankTemplate,
    SweepRow,
    Template,
    WindowTemplate,
    _check_alphas,
    _check_censor_cap,
    _sweep_cell,
    add_vs_alpha_sweep,
    direct_stat_oracle,
    direct_window_stat_oracle,
)
from .windowed import WindowEngine, window_length_for

# results.csv in column order: each column and its cell for a SweepRow
_CSV_TABLE = [
    ("alpha", lambda r: repr(float(r.alpha))),
    ("log_alpha_abs", lambda r: repr(abs(math.log(r.alpha)))),
    ("detector", lambda r: r.detector),
    ("lambda_true", lambda r: "|".join(repr(float(v)) for v in r.lam_true)),
    ("add_hat", lambda r: repr(float(r.add_hat))),
    ("add_se", lambda r: repr(float(r.add_se))),
    ("pfa_hat", lambda r: repr(float(r.pfa_hat))),
    ("pfa_se", lambda r: repr(float(r.pfa_se))),
    ("lower_bound", lambda r: repr(float(r.lower_bound))),
    ("efficiency", lambda r: repr(float(r.efficiency))),
    ("censored", lambda r: str(r.censored)),
    ("n_runs", lambda r: str(r.n_runs)),
    ("seed", lambda r: str(r.seed)),
]
CSV_COLUMNS = [column for column, _ in _CSV_TABLE]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3


class ConfigError(ValueError):
    """Aggregated config problems; one line per issue."""

    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


# ---------------------------------------------------------------------------
# config schema


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ValueError("list must be nonempty")
    return tuple(_parse_float(s) for s in items)


def _or_auto(parse):
    """``parse``, with ``auto`` read as None."""
    return lambda text: None if text.strip().lower() == "auto" else parse(text)


def _one_of(*names: str):
    """Parser of one name from ``names``, case-insensitive."""

    def parse(text: str) -> str:
        name = text.strip().lower()
        if name not in names:
            raise ValueError(f"must be {' or '.join(names)}")
        return name

    return parse


def _parse_grids(text: str) -> tuple[tuple[float, ...], ...]:
    groups = [g.strip() for g in text.split("|")]
    if not groups or any(not g for g in groups):
        raise ValueError("expected pipe-separated comma lists")
    return tuple(_parse_float_list(g) for g in groups)


def _parse_variants(text: str) -> tuple[str, ...]:
    names = tuple(s.strip().lower() for s in text.split(",") if s.strip())
    allowed = {v.value for v in ChartVariant}
    bad = [n for n in names if n not in allowed]
    if bad or not names:
        raise ValueError(f"variants must be drawn from {sorted(allowed)}")
    return names


# family name -> constructor from (pre_param, noise_sigma, interval)
_FAMILIES = {
    "gaussian-mean-shift": lambda pre, sigma, interval: GaussianMeanShift(pre, sigma, post_params=interval),
    "gaussian-variance-shift": lambda pre, _sigma, interval: GaussianVarianceShift(pre, post_params=interval),
}


# key -> (parser, required, default, unit/help); the help text lands in config.txt
_COMMON_SWEEP = {
    "rho": (_parse_float, True, None, "change probability per slot, in (0, 1)"),
    "alphas": (_parse_float_list, True, None, "false-alarm targets, strictly decreasing"),
    "n_runs": (int, False, 10_000, "Monte Carlo runs per cell"),
    "horizon": (_or_auto(int), False, None, "slots per run, or auto"),
    "censor_cap": (_parse_float, False, 1e-3, "max tolerated censored fraction"),
    "seed": (int, False, 0, "base seed; per-run seeds derive from it"),
}

SCHEMAS: dict[str, dict] = {
    "single-sweep": {
        "family": (_one_of(*_FAMILIES), True, None, "observation family kind"),
        "pre_param": (_parse_float, True, None, "pre-change mean (mean shift) or scale (variance shift)"),
        "noise_sigma": (_parse_float, False, 1.0, "observation scale, mean-shift family only"),
        "lambda_low": (_parse_float, True, None, "admissible post-change parameter, lower end"),
        "lambda_high": (_parse_float, True, None, "admissible post-change parameter, upper end"),
        "lambda_true": (_parse_float, True, None, "true post-change parameter for simulation"),
        "variants": (_parse_variants, False, ("sr",), "chart recursions to run: sr, max, sum"),
        "grids": (_parse_grids, True, None, "candidate grids, pipe-separated comma lists"),
        **_COMMON_SWEEP,
    },
    "multisource-sweep": {
        "pre_params": (_parse_float_list, True, None, "pre-change scale per source"),
        "lambda_true": (_parse_float_list, True, None, "true post-change scale per source"),
        "source_grids": (_parse_grids, True, None, "candidate scales per source, pipe-separated"),
        "window": (_or_auto(int), False, None, "window length in slots, or auto"),
        **_COMMON_SWEEP,
    },
    "epsilon-design": {
        "pre_param": (_parse_float, True, None, "pre-change mean"),
        "noise_sigma": (_parse_float, False, 1.0, "observation scale"),
        "lambda_low": (_parse_float, True, None, "design interval, lower end"),
        "lambda_high": (_parse_float, True, None, "design interval, upper end"),
        "epsilon": (_parse_float, True, None, "relative delay penalty budget, in (0, 1)"),
        "mesh_points": (int, False, 1000, "verification mesh resolution"),
        "grid_cap": (int, False, 4096, "max candidates before a capacity error"),
        "construction": (_one_of("greedy", "uniform"), False, "greedy", "greedy or uniform"),
        "eval_lambdas": (_or_auto(_parse_float_list), False, None, "parameters to simulate, or auto"),
        **_COMMON_SWEEP,
    },
    "differential-test": {
        "n_paths": (int, False, 50, "random paths per check, at most 50 (recursion), 30 (ordering), 8 (window)"),
        "path_length": (int, False, 80, "slots per path, at most 200 (recursion), 120 (ordering), 50 (window)"),
        "seed": (int, False, 0, "rng seed for the checks"),
    },
}


def _config_class(name: str, experiment: str) -> type:
    """Frozen dataclass with one field per key of the experiment's schema."""
    return make_dataclass(name, list(SCHEMAS[experiment]), frozen=True, namespace={"experiment": experiment})


SingleSweepConfig = _config_class("SingleSweepConfig", "single-sweep")
MultiSweepConfig = _config_class("MultiSweepConfig", "multisource-sweep")
DesignRunConfig = _config_class("DesignRunConfig", "epsilon-design")
DiffTestConfig = _config_class("DiffTestConfig", "differential-test")
AnyConfig = SingleSweepConfig | MultiSweepConfig | DesignRunConfig | DiffTestConfig
_CONFIG_CLASSES = {
    cls.experiment: cls for cls in (SingleSweepConfig, MultiSweepConfig, DesignRunConfig, DiffTestConfig)
}


def parse_config_text(text: str) -> AnyConfig:
    """Parse and validate a flat key=value config; collect every problem."""
    problems: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            problems.append(f"line {lineno}: empty key or value")
            continue
        if key in raw:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value

    experiment = raw.pop("experiment", None)
    if experiment is None:
        problems.append("missing required key 'experiment'")
        raise ConfigError(problems)
    if experiment not in SCHEMAS:
        problems.append(f"unknown experiment {experiment!r}; expected one of {sorted(SCHEMAS)}")
        raise ConfigError(problems)

    schema = SCHEMAS[experiment]
    values: dict = {}
    fields_ok = True
    for key, (parser, required, default, _help) in schema.items():
        if key in raw:
            try:
                values[key] = parser(raw.pop(key))
            except ValueError as exc:
                problems.append(f"key {key!r}: {exc}")
                fields_ok = False
        elif required:
            problems.append(f"missing required key {key!r}")
            fields_ok = False
        else:
            values[key] = default
    for key in sorted(raw):
        problems.append(f"unknown key {key!r} for experiment {experiment!r}")

    if fields_ok:
        problems.extend(_semantic_problems(experiment, values))
    if problems:
        raise ConfigError(problems)
    return _CONFIG_CLASSES[experiment](**values)


def _semantic_problems(experiment: str, v: dict) -> list[str]:
    """The CLI's own rules, then the run's construction: what passes here builds every planned sweep cell."""
    out: list[str] = []
    if v["seed"] < 0:
        out.append(f"seed must be non-negative, got {v['seed']}")
    if experiment == "differential-test":
        if v["n_paths"] < 1:
            out.append("n_paths must be at least 1")
        if v["path_length"] < 2:
            out.append("path_length must be at least 2")
        return out

    rules = ((GeometricPrior, v["rho"]), (_check_alphas, v["alphas"]), (_check_censor_cap, v["censor_cap"]))
    for check, value in rules:
        try:
            check(value)
        except ValueError as exc:
            out.append(str(exc))
    if v["n_runs"] < 2:
        out.append("n_runs must be at least 2")
    if v["horizon"] is not None and v["horizon"] < 1:
        out.append("horizon must be a positive slot count or auto")
    if "noise_sigma" in v and v["noise_sigma"] <= 0:
        out.append("noise_sigma must be positive")

    if experiment == "single-sweep":
        interval_ok = v["lambda_low"] < v["lambda_high"]
        if not interval_ok:
            out.append("need lambda_low < lambda_high")
        if len(set(v["variants"])) != len(v["variants"]):
            out.append(f"variants must not repeat, got {', '.join(v['variants'])}")
        if interval_ok and not (v["lambda_low"] <= v["lambda_true"] <= v["lambda_high"]):
            out.append("lambda_true must lie in [lambda_low, lambda_high]")
        for gi, grid in enumerate(v["grids"], start=1):
            if list(grid) != sorted(set(grid)):
                out.append(f"grid {gi} must be strictly increasing")
            if v["pre_param"] in grid:
                out.append(f"grid {gi} contains pre_param {v['pre_param']!r}, which no chart can tell from no change")
    elif experiment == "multisource-sweep":
        n = len(v["pre_params"])
        if len(v["lambda_true"]) != n or len(v["source_grids"]) != n:
            out.append("pre_params, lambda_true and source_grids must agree on the source count")
        if any(t <= 0 for t in v["lambda_true"]):
            out.append("lambda_true must be positive scales")
        for gi, (pre, grid) in enumerate(zip(v["pre_params"], v["source_grids"]), start=1):
            if pre in grid:
                out.append(
                    f"source grid {gi} contains its pre_params scale {pre!r}, which no chart can tell from no change"
                )
    elif experiment == "epsilon-design":
        if v["lambda_low"] >= v["lambda_high"]:
            out.append("need lambda_low < lambda_high")
        elif v["lambda_low"] <= v["pre_param"] <= v["lambda_high"]:
            out.append(
                f"pre_param {v['pre_param']!r} lies in [lambda_low, lambda_high], "
                "so the design interval holds a change no chart can tell from no change"
            )
        if v["mesh_points"] < 2:
            out.append("mesh_points must be at least 2")
        if v["grid_cap"] < 1:
            out.append("grid_cap must be at least 1")
        if v["eval_lambdas"] is not None:
            lo, hi = v["lambda_low"], v["lambda_high"]
            if any(not (lo <= e <= hi) for e in v["eval_lambdas"]):
                out.append("eval_lambdas must lie inside the design interval")
    if out:
        return out
    try:
        plan, _derived = _sweep_plan(_CONFIG_CLASSES[experiment](**v))
    except CapacityError:  # the run reports it and writes the capacity manifest
        plan = []
    except ValueError as exc:
        return [str(exc)]
    problems: dict[str, str] = {}  # one line per template label, at however many parameters it runs
    for templates, lam_true in plan:
        for template in templates:
            try:
                for alpha in v["alphas"]:
                    _sweep_cell(template, lam_true, alpha, v["n_runs"], v["horizon"], v["censor_cap"])
            except ValueError as exc:
                problems.setdefault(template.label, f"{template.label}: {exc}")
    return list(problems.values())


def config_to_text(cfg: AnyConfig) -> str:
    """Render a config back to the flat key=value format, with unit comments."""
    schema = SCHEMAS[cfg.experiment]
    lines = [f"experiment = {cfg.experiment}"]
    for key, (_parser, _req, _default, help_text) in schema.items():
        value = getattr(cfg, key)
        lines.append(f"{key} = {_render_value(value)}  # {help_text}")
    return "\n".join(lines) + "\n"


def _render_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return " | ".join(",".join(repr(float(x)) for x in g) for g in value)
    if isinstance(value, tuple):
        if all(isinstance(x, str) for x in value):
            return ",".join(value)
        return ",".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# experiment execution


@contextmanager
def _blamed_on(keys: str):
    """Re-raise a ValueError under the config keys that caused it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{keys}: {exc}") from None


def _sweep_plan(cfg: AnyConfig) -> tuple[list[tuple[list[Template], object]], dict]:
    """The sweeps a config runs, in run order, and the manifest's derived values.

    Each sweep is (templates, true parameter).  A design designs and verifies
    its grid, then runs its one template once per eval parameter.  A
    ValueError names the config keys it came from; a CapacityError from the
    design is left to the caller.
    """
    prior = GeometricPrior(cfg.rho)
    if isinstance(cfg, MultiSweepConfig):
        with _blamed_on("pre_params, source_grids"):
            families = tuple(
                GaussianVarianceShift(
                    pre_sigma=p,
                    post_params=Interval(min(*g, t) * 0.5, max(*g, t) * 2.0),
                )
                for p, g, t in zip(cfg.pre_params, cfg.source_grids, cfg.lambda_true)
            )
            window = cfg.window
            if window is None:
                slowest = prior.slot_cost + sum(
                    min(f.kl_post_vs_pre(g) for g in grid) for f, grid in zip(families, cfg.source_grids)
                )
                window = window_length_for(min(cfg.alphas), slowest)
        template = WindowTemplate("windowed-max", families, prior, cfg.source_grids, window)
        return [([template], cfg.lambda_true)], {"window": window}
    interval = Interval(cfg.lambda_low, cfg.lambda_high)
    if isinstance(cfg, SingleSweepConfig):
        with _blamed_on("pre_param, lambda_low"):
            family = _FAMILIES[cfg.family](cfg.pre_param, cfg.noise_sigma, interval)
        templates = [
            BankTemplate(f"{variant_name}-grid{gi}", family, prior, grid, ChartVariant(variant_name))
            for variant_name in cfg.variants
            for gi, grid in enumerate(cfg.grids, start=1)
        ]
        return [(templates, cfg.lambda_true)], {}

    family = _FAMILIES["gaussian-mean-shift"](cfg.pre_param, cfg.noise_sigma, interval)
    k = default_lipschitz_constant(family, interval) if cfg.construction == "uniform" else None
    spec = DesignSpec(family=family, interval=interval, epsilon=cfg.epsilon, prior=prior, lipschitz_k=k)
    with _blamed_on(f"[lambda_low, lambda_high] = [{cfg.lambda_low!r}, {cfg.lambda_high!r}]"):
        grid = design_grid(spec, mesh_points=cfg.mesh_points, max_candidates=cfg.grid_cap)
    evals = cfg.eval_lambdas
    if evals is None:
        mids = [(a + b) / 2.0 for a, b in zip(grid[:-1], grid[1:])]
        evals = tuple(sorted(set(float(g) for g in grid) | set(mids)))
    template = BankTemplate("sr-designed", family, prior, tuple(float(g) for g in grid), ChartVariant.SR)
    derived = {
        "designed_grid": [float(g) for g in grid],
        "criterion_max_ratio": verify_grid(spec, grid, mesh_points=cfg.mesh_points),
        "eval_lambdas": [float(e) for e in evals],
        "construction": cfg.construction,
    }
    return [([template], lam) for lam in evals], derived


# ---------------------------------------------------------------------------
# output files


def write_outputs(out_dir: Path, cfg: AnyConfig, rows: list[SweepRow], derived: dict) -> tuple[Path, bool]:
    """Write results.csv, manifest.json and config.txt; returns (csv path, all valid)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        **_manifest_head(cfg),
        "derived": derived,
        "cells": [
            {
                "detector": r.detector,
                "alpha": r.alpha,
                "lambda_true": list(r.lam_true),
                "horizon": r.horizon,
                "censored": r.censored,
                "valid": r.valid,
            }
            for r in rows
        ],
        "csv_columns": CSV_COLUMNS,
    }
    digest = hashlib.sha256(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    manifest["manifest_sha256"] = digest

    lines = [f"# manifest_sha256={digest}", ",".join(CSV_COLUMNS)]
    lines.extend(",".join(cell(r) for _, cell in _CSV_TABLE) for r in rows)
    csv_path = out_dir / "results.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    (out_dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    (out_dir / "config.txt").write_text(
        config_to_text(cfg) + f"\n# manifest_sha256={digest}\n"
    )
    return csv_path, all(r.valid for r in rows)


def _manifest_head(cfg: AnyConfig) -> dict:
    """The manifest entries naming the tool and the resolved config."""
    return {"tool": "chartbank", "version": __version__, "experiment": cfg.experiment, "config": asdict(cfg)}


def execute_config(cfg: AnyConfig, out_dir: Path) -> int:
    if isinstance(cfg, DiffTestConfig):
        ok = run_selftest(n_paths=cfg.n_paths, path_length=cfg.path_length, seed=cfg.seed)
        return EXIT_OK if ok else 1
    try:
        plan, derived = _sweep_plan(cfg)
        rows = [
            row
            for templates, lam_true in plan
            for row in add_vs_alpha_sweep(
                templates, lam_true, cfg.alphas, cfg.n_runs, cfg.seed, horizon=cfg.horizon, censor_cap=cfg.censor_cap
            )
        ]
    except CapacityError as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(
            json.dumps({**_manifest_head(cfg), "error": f"capacity: {exc}"}, sort_keys=True, indent=2) + "\n"
        )
        print(f"capacity failure: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    csv_path, all_valid = write_outputs(out_dir, cfg, rows, derived)
    print(f"wrote {csv_path}")
    if not all_valid:
        print("some cells exceeded the censoring cap; results are flagged in the manifest", file=sys.stderr)
        return EXIT_VALIDITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# presets


# each preset states only what differs from the schema defaults
PRESETS = {
    "fig4": """
experiment = single-sweep
family = gaussian-mean-shift
pre_param = 0.0
lambda_low = 0.4
lambda_high = 2.8
lambda_true = 1.0
variants = sr, max
grids = 0.4,1.6,2.8 | 0.4,1.0,1.6,2.2,2.8
rho = 0.01
alphas = 1e-1, 1e-2, 1e-3, 1e-4
""",
    "fig5": """
experiment = multisource-sweep
pre_params = 1.0, 1.0, 1.0
lambda_true = 1.7, 2.0, 2.2
source_grids = 1.5,1.6,1.7,2.0,2.1,2.2,2.3 | 1.5,1.6,1.7,2.0,2.1,2.2,2.3 | 1.5,1.6,1.7,2.0,2.1,2.2,2.3
window = 200
rho = 0.01
alphas = 1e-1, 1e-2, 1e-3
""",
    "example1": """
experiment = epsilon-design
pre_param = 0.0
lambda_low = 0.37
lambda_high = 2.63
epsilon = 0.2
rho = 0.01
alphas = 1e-3
""",
}


def preset_config(name: str, seed: int | None = None, runs: int | None = None) -> AnyConfig:
    """The named preset's config, parsed and checked as a config file with these overrides would be."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    text = PRESETS[name]
    if seed is not None:
        text += f"seed = {seed}\n"
    if runs is not None:
        text += f"n_runs = {runs}\n"
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# selftest


def run_selftest(n_paths: int = 50, path_length: int = 80, seed: int = 0) -> bool:
    """Differential and identity checks; prints one line per check."""
    checks = [
        _check_recursion_vs_direct,
        _check_geometric_series,
        _check_ordering,
        _check_posterior_roundtrip,
        _check_window_decomposition,
    ]
    all_ok = True
    for check in checks:
        try:
            detail = check(n_paths, path_length, seed)
        except Exception as exc:  # a selftest must never crash the process
            print(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}")
            all_ok = False
            continue
        print(f"ok {check.__name__}{': ' + detail if detail else ''}")
    return all_ok


def _selftest_family() -> GaussianMeanShift:
    return GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))


def _check_recursion_vs_direct(n_paths: int, path_length: int, seed: int) -> str:
    family = _selftest_family()
    prior = GeometricPrior(0.05)
    grid = (0.5, 1.0, 2.0)
    rng = np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(min(n_paths, 50)):
        path = rng.normal(rng.uniform(0.0, 1.5), 1.0, size=min(path_length, 200))
        for variant in ChartVariant:
            bank = ChartBank(family, prior, grid, np.inf, variant)
            trace = np.empty((path.size, len(grid)))
            for i, x in enumerate(path):
                bank.step(float(x))
                trace[i] = bank.log_stats
            direct = direct_stat_oracle(family, prior, variant, path, grid)
            worst = max(worst, float(np.abs(trace - direct).max()))
    if worst > 1e-9:
        raise AssertionError(f"recursion and direct evaluation diverge by {worst:.3e}")
    return f"max abs gap {worst:.2e}"


def _check_geometric_series(n_paths: int, path_length: int, seed: int) -> str:
    # constant x = 0.5 makes the lone chart's llr vanish, so the statistic is
    # a pure geometric sum with a closed form
    family = _selftest_family()
    prior = GeometricPrior(0.01)
    bank = ChartBank(family, prior, (1.0,), math.log(5.0), ChartVariant.SR)
    growth = 1.0 / (1.0 - prior.rho)
    report = None
    expected_stop = None
    for n in range(1, 200):
        report = bank.step(0.5)
        direct = math.log(growth * (growth**n - 1.0) / (growth - 1.0))
        if abs(float(bank.log_stats[0]) - direct) > 1e-9:
            raise AssertionError(f"slot {n}: recursion {bank.log_stats[0]!r} vs closed form {direct!r}")
        if expected_stop is None and direct >= math.log(5.0):
            expected_stop = n
        if report is not None:
            break
    if report is None or report.stopped_at != expected_stop:
        raise AssertionError(f"stopped at {report and report.stopped_at}, closed form says {expected_stop}")
    return f"stopped on slot {report.stopped_at} as the closed form predicts"


def _check_ordering(n_paths: int, path_length: int, seed: int) -> str:
    family = _selftest_family()
    prior = GeometricPrior(0.02)
    grid = (0.5, 1.0, 2.0)
    rng = np.random.default_rng([seed, 2])
    for _ in range(min(n_paths, 30)):
        path = rng.normal(0.5, 1.2, size=min(path_length, 120))
        banks = {v: ChartBank(family, prior, grid, np.inf, v) for v in ChartVariant}
        for x in path:
            for bank in banks.values():
                bank.step(float(x))
            s_sum = banks[ChartVariant.SUM].log_stats
            s_max = banks[ChartVariant.MAX].log_stats
            s_sr = banks[ChartVariant.SR].log_stats
            if not (np.all(s_sum <= s_max) and np.all(s_max <= s_sr)):
                raise AssertionError("statistic ordering violated")
    return "sum <= max <= sr on every slot"


def _check_posterior_roundtrip(n_paths: int, path_length: int, seed: int) -> str:
    rho = 0.01
    worst = 0.0
    for z in np.linspace(-27.0, 27.0, 61):
        log_r = z - math.log(rho)
        p = posterior_from_stat(log_r, rho)
        pc = posterior_complement_from_stat(log_r, rho)
        back = stat_from_posterior(p, rho, complement=pc)
        worst = max(worst, abs(back - log_r))
    if worst > 1e-9:
        raise AssertionError(f"posterior round trip off by {worst:.3e}")
    return f"max abs gap {worst:.2e}"


def _check_window_decomposition(n_paths: int, path_length: int, seed: int) -> str:
    prior = GeometricPrior(0.01)
    families = [GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.1, 3.0)) for _ in range(3)]
    grids = [(1.3, 1.7, 2.1, 2.5)] * 3
    window = 10
    rng = np.random.default_rng([seed, 3])
    worst = 0.0
    for _ in range(min(n_paths, 8)):
        length = min(path_length, 50)
        scale = np.where(np.arange(length) < length // 2, 1.0, 2.0)
        block = rng.standard_normal((3, length)) * scale[None, :]
        engine = WindowEngine(families, prior, grids, window, math.inf)
        trace = np.empty(length)
        for s in range(length):
            engine.step(block[:, s])
            trace[s] = engine.statistic()
        direct = direct_window_stat_oracle(families, prior, grids, window, block)
        worst = max(worst, float(np.abs(trace - direct).max()))
    if worst > 1e-9:
        raise AssertionError(f"windowed engine and product-set oracle diverge by {worst:.3e}")
    return f"max abs gap {worst:.2e}"


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="chartbank", description="chart-bank change detection experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("chartbank-out"))

    p_preset = sub.add_parser("preset", help="run a built-in experiment")
    p_preset.add_argument("name", choices=list(PRESETS))
    p_preset.add_argument("--out", type=Path, required=True)
    p_preset.add_argument("--seed", type=int, default=None)
    p_preset.add_argument("--runs", type=int, default=None)

    sub.add_parser("selftest", help="fast differential and identity checks")

    args = parser.parse_args(argv)

    if args.command == "selftest":
        return EXIT_OK if run_selftest() else 1

    try:
        if args.command == "preset":
            cfg = preset_config(args.name, seed=args.seed, runs=args.runs)
        else:
            cfg = parse_config_text(args.config.read_text())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print("config problems:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_CONFIG
    return execute_config(cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
