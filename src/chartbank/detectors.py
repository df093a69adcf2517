"""Chart banks for a single monitored sequence.

A bank runs one likelihood-ratio chart per candidate post-change parameter
and raises an alarm the first time any chart reaches its threshold.  Three
recursions are supported, all in the log domain (the linear statistics
overflow float64 within a few hundred post-change slots):

* ``SR``: sums the prior-weighted likelihood ratios over all possible change
  slots.  log R_n = softplus(log R_{n-1}) + slot_cost + llr(x_n), with
  log R_0 = -inf and softplus(a) = max(a, 0) + log1p(exp(-|a|)).
* ``MAX``: keeps only the best change slot, a CUSUM-like variant.
  log C_n = max(log C_{n-1}, 0) + slot_cost + llr(x_n), log C_0 = -inf.
* ``SUM``: pins the change slot at 1 and accumulates.
  S_n = S_{n-1} + slot_cost + llr(x_n), S_0 = 0.

For every path and every chart, SUM <= MAX <= SR holds exactly (the same
floating-point additions are applied to ordered states, and the softplus adds
a term >= 0 to max(a, 0)), so alarm times at a shared threshold are ordered SR
first, MAX second, SUM last.

The softplus runs on numpy's SIMD exp and log1p, several times faster than
``np.logaddexp``'s scalar libm calls.  It is the same formula, and its bits
differ from ``np.logaddexp(a, 0)`` only in the last place, on a few percent
of values.  A value's result does not depend on the length of its array, its
position there or the stride of its view (the test suite checks this), so a
chart advanced alone, in a batch or as a column slice of a wider state gets
the same bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyStoppedError
from .families import GeometricPrior, ObservationFamily, _check_count

__all__ = [
    "ChartVariant",
    "StopReport",
    "ChartBank",
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
    _check_count("n_charts", n_charts)
    fill = 0.0 if variant is ChartVariant.SUM else -np.inf
    return np.full(n_charts, fill, dtype=float)


def advance_log_stats(
    variant: ChartVariant,
    log_stats: np.ndarray,
    slot_cost: float,
    llr: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One recursion step, broadcasting over any leading batch dimensions.

    ``out`` receives the new statistics and may be ``log_stats`` itself; an
    SR step takes ``work``, a buffer of ``log_stats``' shape, for its softplus
    term.  Either is allocated when not given.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(log_stats), np.shape(llr)))
    if variant is ChartVariant.SR:
        tail = np.abs(log_stats, out=work)  # log1p(exp(-|a|)), taken before out overwrites a
        np.negative(tail, out=tail)
        np.exp(tail, out=tail)
        np.log1p(tail, out=tail)
        np.maximum(log_stats, 0.0, out=out)
        out += tail
        out += slot_cost
    elif variant is ChartVariant.MAX:
        np.maximum(log_stats, 0.0, out=out)
        out += slot_cost
    else:
        np.add(log_stats, slot_cost, out=out)
    out += llr
    return out


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
    kl = family.kl_post_vs_pre(grid_arr)
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


_NONE = np.zeros(0, dtype=np.int64)  # no rows
_NONE.flags.writeable = False


class BankBatch:
    """The per-slot step of one or more banks over a batch of runs, one row per run.

    ``banks`` holds (grid, log_thresholds, variant) per template; the
    templates share the family and prior and read the same observation per
    row, as a sweep's bank templates do on a shared path block.  The state is
    one [rows, templates, charts] array per variant present, SR first, then
    MAX, then SUM, so each variant advances in one in-place call on a
    contiguous array; a template with fewer charts than the widest of its
    variant is padded with charts whose threshold is +inf.  Each state row
    has its own thresholds, ``thresholds`` [rows, templates, charts] per
    variant, so one batch may hold runs of several alpha cells; a template's
    ``log_thresholds`` broadcast against [rows, charts].  The llr is
    evaluated once per slot on the union of the grids and gathered into
    chart order; it is elementwise, so each chart's value is bitwise the one
    its own grid gives.  A template reports a row once, on the first slot one
    of its charts crosses, and a row is done once every template has crossed.
    ``rows`` holds the block row of each state row.  ``ChartBank`` is a
    one-template batch of one.  Grids and thresholds must have passed
    ``check_charts``.
    """

    def __init__(self, family: ObservationFamily, prior: GeometricPrior, banks, rows: np.ndarray) -> None:
        self.family = family
        self.cost = prior.slot_cost
        self.rows = rows
        grids = [np.asarray(grid, dtype=float) for grid, _, _ in banks]
        union = np.unique(np.concatenate(grids))
        self.union = union[None, :]
        self.order = []  # the template of each column of ``done``: the variants' templates, block by block
        self.blocks = []  # per variant present: variant, its first column of done, llr gather
        self.log_stats = []  # per variant present: [rows, templates, charts]
        self.thresholds = []  # per variant present: [rows, templates, charts]
        for variant in ChartVariant:
            ts = [t for t, (_, _, v) in enumerate(banks) if v is variant]
            if not ts:
                continue
            width = max(grids[t].size for t in ts)
            gather = np.zeros((len(ts), width), dtype=np.int64)
            thr = np.full((rows.size, len(ts), width), np.inf)
            for k, t in enumerate(ts):
                gather[k, : grids[t].size] = np.searchsorted(union, grids[t])
                thr[:, k, : grids[t].size] = banks[t][1]
            if len(ts) == 1 and width == union.size:
                gather = None  # the union in its own order: the llr needs no gather
            self.blocks.append((variant, len(self.order), gather))
            self.thresholds.append(thr)
            self.order += ts
            init = initial_log_stats(variant, width)
            self.log_stats.append(np.broadcast_to(init, (rows.size, len(ts), width)).copy())
        self.order = np.array(self.order)
        self.done = np.zeros((rows.size, len(banks)), dtype=bool)
        # per-slot buffers, sliced to the rows still running; SR's softplus buffer fits the first block
        self._llr = [np.empty(stats.shape) for stats in self.log_stats]
        self._hit = [np.empty(stats.shape, dtype=bool) for stats in self.log_stats]
        self._work = np.empty(self.log_stats[0].shape)

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance each row by its observation x[row].

        Returns the (row, template) pairs that crossed for the first time,
        each one's firing chart, and the rows now done with every template.
        """
        n = self.rows.size
        n_templates = self.order.size
        done = self.done.reshape(-1)  # (row, column) at row * templates + column
        llr_union = self.family._llr(self.union, x[:, None])
        found = []
        for (variant, offset, gather), stats, thr, llr, hit in zip(
            self.blocks, self.log_stats, self.thresholds, self._llr, self._hit
        ):
            if gather is None:
                llr = llr_union[:, None, :]
            else:
                llr = np.take(llr_union, gather, axis=1, out=llr[:n], mode="clip")
            advance_log_stats(variant, stats, self.cost, llr, out=stats, work=self._work[:n])
            hits = np.flatnonzero(np.greater_equal(stats, thr, out=hit[:n]))
            if hits.size:
                # row-major order: a (row, template)'s first hit is its lowest crossing chart, which wins ties
                keys, charts = np.divmod(hits, thr.shape[2])
                first = np.ones(hits.size, dtype=bool)
                np.not_equal(keys[1:], keys[:-1], out=first[1:])
                rows, k = np.divmod(keys[first], thr.shape[1])
                cells = rows * n_templates + offset + k
                new = ~done[cells]
                done[cells[new]] = True
                found.append((cells[new], charts[first][new]))
        if not found:
            return _NONE, _NONE, _NONE, _NONE
        cells, charts = (np.concatenate(part) for part in zip(*found))
        rows, cols = np.divmod(cells, n_templates)
        return rows, self.order[cols], charts, rows[self.done[rows].all(axis=1)]

    def retire(self, rows: np.ndarray) -> int:
        """Drop the given rows at once; return how many rows still run."""
        keep = np.ones(self.rows.size, dtype=bool)
        keep[rows] = False
        idx = np.flatnonzero(keep)  # take, not a boolean mask: several times faster on 2-d arrays
        self.rows, self.done = self.rows[idx], self.done.take(idx, axis=0)
        self.log_stats = [stats.take(idx, axis=0) for stats in self.log_stats]
        self.thresholds = [thr.take(idx, axis=0) for thr in self.thresholds]
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
        self._grid, self._thr = grid_arr, thr
        self._batch = BankBatch(family, prior, [(grid_arr, thr, variant)], rows=np.zeros(1, dtype=np.int64))
        self._x = np.empty(1)  # the observation, reused by every step
        self._n = 0
        self._report: StopReport | None = None

    @property
    def grid(self) -> np.ndarray:
        return self._grid.copy()

    @property
    def log_thresholds(self) -> np.ndarray:
        return self._thr.copy()

    @property
    def log_stats(self) -> np.ndarray:
        return self._batch.log_stats[0][0, 0].copy()

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
        crossed, _, charts, _ = self._batch.step(self._x)
        self._n += 1
        if crossed.size:
            chart = int(charts[0])
            self._report = StopReport(self._n, chart, float(self._batch.log_stats[0][0, 0, chart]))
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
    the linear-domain statistic.  ``log_r`` may be -inf or +inf (posterior 0
    or 1), not NaN.
    """
    GeometricPrior(rho)  # validates rho
    return _logistic(math.log(rho) + _check_log_r(log_r))


def posterior_complement_from_stat(log_r: float, rho: float) -> float:
    """1 - posterior, computed on its own well-conditioned side.

    The complement is the quantity bounded by false-alarm constraints; deriving
    it as ``1 - posterior_from_stat(...)`` loses all precision once the
    posterior rounds to 1.  ``log_r`` may be -inf or +inf, not NaN.
    """
    GeometricPrior(rho)  # validates rho
    return _logistic(-(math.log(rho) + _check_log_r(log_r)))


def _check_log_r(log_r: float) -> float:
    """An SR log statistic as a float: any value but NaN, which no statistic takes."""
    log_r = float(log_r)
    if math.isnan(log_r):
        raise ValueError("log_r must not be NaN")
    return log_r


def _logistic(z: float) -> float:
    """1 / (1 + exp(-z)), with exp taken only of a non-positive number so it cannot overflow."""
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
