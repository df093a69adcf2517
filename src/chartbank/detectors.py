"""Chart banks for a single monitored sequence.

A bank runs one likelihood-ratio chart per candidate post-change parameter
and raises an alarm the first time any chart reaches its threshold.  Three
recursions are supported, all in the log domain (the linear statistics
overflow float64 within a few hundred post-change slots):

* ``SR``: sums the prior-weighted likelihood ratios over all possible change
  slots.  log R_n = softplus(log R_{n-1}) + slot_cost + llr(x_n), with
  log R_0 = -inf.
* ``MAX``: keeps only the best change slot, a CUSUM-like variant.
  log C_n = max(log C_{n-1}, 0) + slot_cost + llr(x_n), log C_0 = -inf.
* ``SUM``: pins the change slot at 1 and accumulates.
  S_n = S_{n-1} + slot_cost + llr(x_n), S_0 = 0.

For every path and every chart, SUM <= MAX <= SR holds exactly (the same
floating-point additions are applied to ordered states), so alarm times at a
shared threshold are ordered SR first, MAX second, SUM last.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyStoppedError
from .families import GeometricPrior, ObservationFamily

__all__ = [
    "ChartVariant",
    "StopReport",
    "ChartBank",
    "BankBatch",
    "check_charts",
    "advance_log_stats",
    "initial_log_stats",
    "posterior_from_stat",
    "posterior_complement_from_stat",
    "stat_from_posterior",
]


class ChartVariant(enum.Enum):
    SR = "sr"
    MAX = "max"
    SUM = "sum"


@dataclass(frozen=True)
class StopReport:
    """First threshold crossing of a bank.

    ``stopped_at`` is the 1-indexed slot of the alarm, ``firing_chart`` the
    lowest chart index at or above its threshold on that slot, and
    ``firing_value`` that chart's log statistic.  Window-based engines also
    report the winning window start and the per-source rows behind the
    composite chart index.
    """

    stopped_at: int
    firing_chart: int
    firing_value: float
    window_start: int | None = None
    source_rows: tuple[int, ...] | None = None


def initial_log_stats(variant: ChartVariant, n_charts: int) -> np.ndarray:
    if n_charts < 1:
        raise ValueError("need at least one chart")
    fill = 0.0 if variant is ChartVariant.SUM else -np.inf
    return np.full(n_charts, fill, dtype=float)


def advance_log_stats(
    variant: ChartVariant, log_stats: np.ndarray, slot_cost: float, llr: np.ndarray
) -> np.ndarray:
    """One recursion step, broadcasting over any leading batch dimensions."""
    if variant is ChartVariant.SR:
        base = np.logaddexp(log_stats, 0.0)
    elif variant is ChartVariant.MAX:
        base = np.maximum(log_stats, 0.0)
    else:
        base = log_stats
    return base + slot_cost + llr


def check_charts(family: ObservationFamily, grid, log_thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Grid and one log threshold per chart, checked: the one check behind
    ``ChartBank``, ``BankSpec`` and, per source, ``WindowEngine`` and
    ``WindowSpec``, so stepped detectors and the slot loop refuse alike.
    """
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise ValueError("grid must be a nonempty 1-d array of candidates")
    if not np.all(np.diff(grid_arr) > 0):
        raise ValueError("grid candidates must be strictly increasing")
    if not family.post_params.contains(grid_arr):
        raise ValueError("grid candidates must lie in the family's admissible set")
    kl = np.atleast_1d(np.asarray(family.kl_post_vs_pre(grid_arr), dtype=float))
    if np.any(kl <= 0):
        bad = grid_arr[kl <= 0]
        raise ValueError(f"candidates {bad.tolist()} are indistinguishable from the pre-change density")
    thr = np.asarray(log_thresholds, dtype=float)
    if thr.size == 1:
        thr = np.full(grid_arr.shape, thr.item())
    if thr.shape != grid_arr.shape:
        raise ValueError("log_thresholds must be one value or one per chart")
    if np.isnan(thr).any():
        raise ValueError("log_thresholds must not be NaN")
    return grid_arr, thr


class BankBatch:
    """The bank's per-slot step over a batch of runs, one row of charts each.

    ``rows`` holds the block row of each state row.  ``ChartBank`` is a
    batch of one.  Grid and thresholds must have passed ``check_charts``;
    thresholds may be one value for every chart.
    """

    def __init__(
        self,
        family: ObservationFamily,
        prior: GeometricPrior,
        grid,
        log_thresholds,
        variant: ChartVariant,
        rows: np.ndarray,
    ) -> None:
        self.family = family
        self.variant = variant
        self.cost = prior.slot_cost
        self.grid = np.asarray(grid, dtype=float)[None, :]
        self.log_thresholds = np.asarray(log_thresholds, dtype=float)
        self.rows = rows
        n_charts = self.grid.size
        self.log_stats = np.broadcast_to(initial_log_stats(variant, n_charts), (rows.size, n_charts)).copy()

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance each row by its observation x[row]; return the rows that crossed and each one's firing chart."""
        llr = self.family._llr(self.grid, x[:, None])
        self.log_stats = advance_log_stats(self.variant, self.log_stats, self.cost, llr)
        hits = np.flatnonzero(self.log_stats >= self.log_thresholds)
        if hits.size == 0:
            return hits, hits
        # row-major order: a row's first hit is its lowest crossing chart, which wins ties
        rows, charts = np.divmod(hits, self.grid.size)
        first = np.ones(hits.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        return rows[first], charts[first]

    def retire(self, rows: np.ndarray) -> int:
        """Drop the given rows at once; return how many rows still run."""
        keep = np.ones(self.rows.size, dtype=bool)
        keep[rows] = False
        self.rows, self.log_stats = self.rows[keep], self.log_stats[keep]
        return self.rows.size


class ChartBank:
    """Bank of charts over a candidate grid, stepped one observation at a time."""

    def __init__(
        self,
        family: ObservationFamily,
        prior: GeometricPrior,
        grid,
        log_thresholds,
        variant: ChartVariant = ChartVariant.SR,
    ) -> None:
        grid_arr, thr = check_charts(family, grid, log_thresholds)
        self.family = family
        self.prior = prior
        self.variant = variant
        self._batch = BankBatch(family, prior, grid_arr, thr, variant, rows=np.zeros(1, dtype=np.int64))
        self._x = np.empty(1)  # the observation, reused by every step
        self._n = 0
        self._report: StopReport | None = None

    @property
    def grid(self) -> np.ndarray:
        return self._batch.grid[0].copy()

    @property
    def log_thresholds(self) -> np.ndarray:
        return self._batch.log_thresholds.copy()

    @property
    def log_stats(self) -> np.ndarray:
        return self._batch.log_stats[0].copy()

    @property
    def time(self) -> int:
        return self._n

    @property
    def stopped(self) -> StopReport | None:
        return self._report

    def step(self, x: float) -> StopReport | None:
        """Advance one slot; return a report on the first crossing, else None."""
        if self._report is not None:
            raise AlreadyStoppedError(
                f"bank already stopped at slot {self._report.stopped_at}; build a fresh bank"
            )
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        self._x[0] = x
        crossed, charts = self._batch.step(self._x)
        self._n += 1
        if crossed.size:
            chart = int(charts[0])
            self._report = StopReport(self._n, chart, float(self._batch.log_stats[0, chart]))
            return self._report
        return None

    def run_to_stop(self, path) -> StopReport | None:
        """Feed observations until the first alarm; None if the path runs out."""
        path_arr = np.asarray(path, dtype=float)
        if path_arr.ndim != 1 or path_arr.size == 0:
            raise ValueError("path must be a nonempty 1-d array")
        for x in path_arr:
            report = self.step(float(x))
            if report is not None:
                return report
        return None


def posterior_from_stat(log_r: float, rho: float) -> float:
    """Posterior probability that the change has occurred, from an SR log statistic.

    Uses the identity log odds = log rho + log R_n, evaluated without forming
    the linear-domain statistic.
    """
    GeometricPrior(rho)  # validates rho
    z = math.log(rho) + log_r
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def posterior_complement_from_stat(log_r: float, rho: float) -> float:
    """1 - posterior, computed on its own well-conditioned side.

    The complement is the quantity bounded by false-alarm constraints; deriving
    it as ``1 - posterior_from_stat(...)`` loses all precision once the
    posterior rounds to 1.
    """
    GeometricPrior(rho)  # validates rho
    z = -(math.log(rho) + log_r)
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def stat_from_posterior(posterior: float, rho: float, complement: float | None = None) -> float:
    """Invert the posterior identity back to the SR log statistic.

    Pass the matching ``complement`` (from ``posterior_complement_from_stat``)
    to recover the statistic at full precision when the posterior is near 1;
    otherwise the complement is formed by subtraction and precision degrades
    as 1 - posterior underflows.
    """
    GeometricPrior(rho)  # validates rho
    if not (0.0 <= posterior <= 1.0):
        raise ValueError(f"posterior must lie in [0, 1], got {posterior}")
    if posterior == 0.0:
        return -math.inf
    if complement is None:
        log_odds = math.log(posterior) - math.log1p(-posterior) if posterior < 1.0 else math.inf
    else:
        if complement <= 0.0:
            return math.inf
        log_odds = math.log(posterior) - math.log(complement)
    return log_odds - math.log(rho)
