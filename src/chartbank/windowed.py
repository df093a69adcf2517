"""Window-limited joint monitoring of several independent sources.

Each of L sources carries its own candidate grid of I_l post-change
parameters.  The joint detector conceptually runs one MAX-variant chart per
composite candidate (one parameter choice per source), which would cost
prod_l I_l charts.  Restricting the change slot to a trailing window of
m_alpha slots makes the composite maximum separable: for a fixed start slot
k the best composite candidate is just the per-source best segment sum, so
the statistic is

    max over k in window of [ (n-k+1) * slot_cost
                              + sum_l max_i (llr sum of source l, row i, slots k..n) ]

and the per-step work drops to sum_l I_l * (m_alpha + 1) table updates.

Per-source tables are rings indexed by start slot modulo (m_alpha + 1): the
slot freed by the expired oldest start is exactly the slot the newest start
needs, so a step is zero-one-column, add-the-new-llr-everywhere, then take
per-column maxima.  No data moves.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .errors import AlreadyStoppedError
from .families import GeometricPrior, ObservationFamily
from .detectors import StopReport

__all__ = [
    "SourceUnit",
    "WindowEngine",
    "window_length_for",
    "composite_kl",
    "ring_advance",
    "window_offsets",
]


def ring_advance(table: np.ndarray, llr, slot_new: int) -> np.ndarray:
    """Advance a ring table one slot in place; return per-column best rows.

    ``table`` has shape [..., I, W]; ``llr`` broadcasts against [..., I].
    The column at ``slot_new`` is recycled for the newest start, then every
    column absorbs the new observation's llr.
    """
    table[..., slot_new] = 0.0
    table += np.asarray(llr, dtype=float)[..., None]
    return table.max(axis=-2)


def window_offsets(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Valid start slots at time n for a ring of the given width.

    Returns (starts, slots) with starts ascending, so an argmax over combined
    values resolves ties toward the oldest in-window start.
    """
    w = min(n, width)
    starts = np.arange(n - w + 1, n + 1)
    return starts, starts % width


class SourceUnit:
    """Per-source llr table over in-window start slots."""

    def __init__(self, family: ObservationFamily, grid, window_len: int) -> None:
        grid_arr = np.asarray(grid, dtype=float)
        if grid_arr.ndim != 1 or grid_arr.size == 0:
            raise ValueError("grid must be a nonempty 1-d array of candidates")
        if not np.all(np.diff(grid_arr) > 0):
            raise ValueError("grid candidates must be strictly increasing")
        if not family.post_params.contains(grid_arr):
            raise ValueError("grid candidates must lie in the family's admissible set")
        kl = np.atleast_1d(np.asarray(family.kl_post_vs_pre(grid_arr), dtype=float))
        if np.any(kl <= 0):
            raise ValueError("every candidate must be distinguishable from the pre-change density")
        if window_len < 1:
            raise ValueError(f"window_len must be at least 1, got {window_len}")
        self.family = family
        self._grid = grid_arr
        self.width = window_len + 1
        self._table = np.zeros((grid_arr.size, self.width))
        self._best_rows = np.full(self.width, -np.inf)
        self._n = 0

    @property
    def grid(self) -> np.ndarray:
        return self._grid.copy()

    @property
    def n_charts(self) -> int:
        return self._grid.size

    @property
    def best_rows(self) -> np.ndarray:
        """Per-column maxima over candidate rows (the max-value container)."""
        return self._best_rows.copy()

    def column_for_start(self, k: int) -> np.ndarray:
        """Accumulated llr sums for the window start k, one entry per candidate."""
        starts, slots = window_offsets(self._n, self.width)
        pos = np.nonzero(starts == k)[0]
        if pos.size == 0:
            raise ValueError(f"start {k} is not inside the window at slot {self._n}")
        return self._table[:, slots[pos[0]]].copy()

    def update(self, x: float) -> None:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("x must be finite")
        self._n += 1
        # the grid was validated once, in __init__
        llr = self.family._llr(self._grid, np.asarray(x))
        self._best_rows = ring_advance(self._table, llr, self._n % self.width)


class WindowEngine:
    """Joint detector over several sources with a shared trailing window."""

    def __init__(
        self,
        families: Sequence[ObservationFamily],
        prior: GeometricPrior,
        grids: Sequence,
        window_len: int,
        log_threshold: float,
    ) -> None:
        if len(families) == 0:
            raise ValueError("need at least one source")
        if len(families) != len(grids):
            raise ValueError(f"{len(families)} families but {len(grids)} grids")
        if math.isnan(log_threshold):
            raise ValueError("log_threshold must not be NaN")
        self.prior = prior
        self.window_len = window_len
        self.log_threshold = float(log_threshold)
        self.units = [SourceUnit(f, g, window_len) for f, g in zip(families, grids)]
        self.width = window_len + 1
        # weight for start k at slot n depends only on the span n - k + 1
        self._span_weights = (np.arange(1, self.width + 1)) * prior.slot_cost
        self._n = 0
        self._report: StopReport | None = None
        self.work = {"cell_adds": 0, "max_scans": 0, "combines": 0}

    @property
    def n_sources(self) -> int:
        return len(self.units)

    @property
    def time(self) -> int:
        return self._n

    @property
    def stopped(self) -> StopReport | None:
        return self._report

    def statistic(self) -> float:
        """Current joint statistic; -inf before the first observation."""
        if self._n == 0:
            return -math.inf
        total, _, _ = self._combined()
        return float(total.max())

    def _combined(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts, slots = window_offsets(self._n, self.width)
        spans = self._n - starts + 1
        total = self._span_weights[spans - 1].astype(float)
        for unit in self.units:
            total = total + unit._best_rows[slots]
        return total, starts, slots

    def step(self, x_vec) -> StopReport | None:
        """Feed one observation per source; report on the first crossing."""
        if self._report is not None:
            raise AlreadyStoppedError(
                f"engine already stopped at slot {self._report.stopped_at}; build a fresh engine"
            )
        xs = np.asarray(x_vec, dtype=float)
        if xs.shape != (len(self.units),):
            raise ValueError(f"expected {len(self.units)} observations, got shape {xs.shape}")
        if not np.isfinite(xs).all():  # before any unit moves, so a bad vector changes nothing
            raise ValueError("x must be finite")
        for unit, x in zip(self.units, xs):
            unit.update(float(x))
            self.work["cell_adds"] += unit.n_charts * self.width
            self.work["max_scans"] += self.width
        self._n += 1
        total, starts, slots = self._combined()
        self.work["combines"] += total.size
        best = int(np.argmax(total))  # first max: lowest start wins ties
        value = float(total[best])
        if value >= self.log_threshold:
            k_star = int(starts[best])
            slot = int(slots[best])
            rows = tuple(int(np.argmax(u._table[:, slot])) for u in self.units)
            self._report = StopReport(
                stopped_at=self._n,
                firing_chart=self._composite_index(rows),
                firing_value=value,
                window_start=k_star,
                source_rows=rows,
            )
            return self._report
        return None

    def _composite_index(self, rows: tuple[int, ...]) -> int:
        # mixed-radix flattening of per-source rows, first source slowest
        u = 0
        for row, unit in zip(rows, self.units):
            u = u * unit.n_charts + row
        return u

    def run_to_stop(self, paths) -> StopReport | None:
        """Feed a [n_sources, length] observation block until the first alarm."""
        block = np.asarray(paths, dtype=float)
        if block.ndim != 2 or block.shape[0] != len(self.units) or block.shape[1] == 0:
            raise ValueError(f"expected a [{len(self.units)}, length] block, got {block.shape}")
        for s in range(block.shape[1]):
            report = self.step(block[:, s])
            if report is not None:
                return report
        return None


def window_length_for(alpha: float, rho: float, d_min: float, slack: float = 1.5) -> int:
    """Window length meeting the delay-coverage condition with room to spare.

    Returns ceil(slack * |log alpha| / d_min) where d_min is the slowest
    composite post-change drift (divergence sum plus slot cost) the window
    must accommodate.  ``slack`` must exceed 1; the asymptotic requirement is
    only that the window grow faster than |log alpha| / d_min.

    Warns when log(window) is not small against |log alpha|, since the
    false-alarm threshold analysis treats that ratio as negligible.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if d_min <= 0:
        raise ValueError(f"d_min must be positive, got {d_min}")
    if slack <= 1.0:
        raise ValueError(f"slack must exceed 1, got {slack}")
    m = int(math.ceil(slack * abs(math.log(alpha)) / d_min))
    if math.log(m) > 0.5 * abs(math.log(alpha)):
        warnings.warn(
            f"window length {m} has log({m}) = {math.log(m):.2f}, not small against "
            f"|log alpha| = {abs(math.log(alpha)):.2f}; threshold guarantees degrade",
            stacklevel=2,
        )
    return m


def composite_kl(
    families: Sequence[ObservationFamily], lams: Sequence[float], prior: GeometricPrior
) -> float:
    """Joint post-change drift: summed per-source divergences plus slot cost."""
    if len(families) != len(lams):
        raise ValueError(f"{len(families)} families but {len(lams)} parameters")
    if len(families) == 0:
        raise ValueError("need at least one source")
    total = sum(float(f.kl_post_vs_pre(float(lam))) for f, lam in zip(families, lams))
    return total + prior.slot_cost
