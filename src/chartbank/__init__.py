"""Banks of likelihood-ratio charts for quickest change-point detection.

The post-change regime is only known to lie in a set of candidate
parameters, so one chart per candidate is run in parallel and the bank
stops when any chart crosses its threshold.  The package covers the
single-sequence bank (`ChartBank`), a window-limited engine for several
independent sources (`WindowEngine`), offline design of candidate grids
and thresholds (`design`), and a Monte Carlo harness for delay and
false-alarm estimates (`simulate`).
"""

__version__ = "0.1.0"

from .design import (
    DesignSpec,
    add_lower_bound,
    default_lipschitz_constant,
    design_grid,
    efficiency,
    threshold_for,
    verify_grid,
)
from .detectors import (
    ChartBank,
    ChartVariant,
    StopReport,
    advance_log_stats,
    initial_log_stats,
    posterior_complement_from_stat,
    posterior_from_stat,
    stat_from_posterior,
)
from .errors import AlreadyStoppedError, CapacityError
from .families import (
    FiniteSet,
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    ObservationFamily,
    sample_path,
    sample_path_multi,
)
from .simulate import (
    BankSpec,
    RunArrays,
    BankTemplate,
    McSummary,
    SweepRow,
    WindowSpec,
    WindowTemplate,
    add_vs_alpha_sweep,
    best_drift,
    default_horizon,
    direct_stat_oracle,
    direct_window_stat_oracle,
    estimate,
    simulate_runs,
    summarize,
)
from .windowed import WindowEngine, composite_kl, window_length_for

__all__ = [
    "AlreadyStoppedError",
    "BankSpec",
    "BankTemplate",
    "CapacityError",
    "ChartBank",
    "ChartVariant",
    "DesignSpec",
    "FiniteSet",
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
