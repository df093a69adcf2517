"""The package root's public names: every module's ``__all__``, and nothing else."""

import importlib

import chartbank

MODULES = ("design", "detectors", "errors", "families", "simulate", "windowed")
ROOT_NAMES = [
    "AlreadyStoppedError",
    "BankSpec",
    "BankTemplate",
    "CapacityError",
    "ChartBank",
    "ChartVariant",
    "DesignSpec",
    "GaussianMeanShift",
    "GaussianVarianceShift",
    "GeometricPrior",
    "Interval",
    "McSummary",
    "ObservationFamily",
    "RunArrays",
    "StopReport",
    "SweepRow",
    "WindowEngine",
    "WindowSpec",
    "WindowTemplate",
    "add_lower_bound",
    "add_vs_alpha_sweep",
    "advance_log_stats",
    "best_drift",
    "composite_kl",
    "default_horizon",
    "default_lipschitz_constant",
    "design_grid",
    "direct_stat_oracle",
    "direct_window_stat_oracle",
    "efficiency",
    "estimate",
    "initial_log_stats",
    "posterior_complement_from_stat",
    "posterior_from_stat",
    "sample_path",
    "sample_path_multi",
    "simulate_runs",
    "stat_from_posterior",
    "summarize",
    "threshold_for",
    "verify_grid",
    "window_length_for",
]


def test_root_exports_the_pinned_names_once():
    assert sorted(chartbank.__all__) == ROOT_NAMES
    assert len(set(chartbank.__all__)) == len(chartbank.__all__)


def test_star_import_binds_exactly_the_root_names():
    namespace: dict = {}
    exec("from chartbank import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == ROOT_NAMES


def test_the_module_lists_are_the_root_list():
    modules = [importlib.import_module(f"chartbank.{name}") for name in MODULES]
    assert sorted(name for module in modules for name in module.__all__) == ROOT_NAMES
    for module in modules:
        for name in module.__all__:
            assert getattr(chartbank, name) is getattr(module, name)
