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
per-column maxima; no column moves.  ``RingBatch`` runs many runs at once,
one row each, and is the only implementation of the step and its stop rule.
Its ``retire`` compacts its rings in place once fewer than COMPACT_BELOW of
the rows still run; ``WindowEngine`` is an unbounded batch of one that
keeps the tables and evaluates the exact joint statistic on every step, so
its work counters count the work it does.

A bounded batch, the one the Monte Carlo slot loop runs, keeps no tables.
It keeps each slot's llrs in a history ring [rows, width, sum_l I_l], the
same bytes as the tables, and per source a bound ring: a one-candidate ring
table [rows, 1, width] that ``ring_advance`` feeds the slot's largest llr.
Rounded addition is monotone, so a bound never falls below the table's
per-column maximum, and the bound's joint statistic, built with the very
additions of the exact one, never falls below the exact statistic.  Rows
whose bound joint stays under the threshold cannot cross.  For the others,
``tighten`` replays from the history the sums of every start from the
oldest one whose bound joint reaches the threshold; each sum starts at 0.0
and adds the llrs in slot order, the additions ``ring_advance`` makes, so it
is bitwise the table's, signed zeros included.  Older starts read -inf: their
exact joint is below the threshold, so they can neither cross nor win the
oldest-first argmax.  Stop slots and firing charts therefore stay bitwise
those of the exact step, at a table update cost of sum_l (m_alpha + 1) per
row and slot instead of sum_l I_l * (m_alpha + 1).
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .errors import AlreadyStoppedError
from .detectors import StopReport, check_charts
from .families import GeometricPrior, ObservationFamily, _check_count, _lams

__all__ = [
    "RingBatch",
    "WindowEngine",
    "check_window",
    "window_length_for",
    "composite_kl",
    "ring_advance",
    "ring_maxima",
    "window_offsets",
]


# A bounded batch moves its ring tables' running rows down once fewer than
# this share of its rows still runs: often enough to keep the per-slot work
# near the live count, rarely enough that the row copies stay cheap.
COMPACT_BELOW = 0.75


def ring_advance(table: np.ndarray, llr, slot_new: int) -> None:
    """Advance a ring table one slot in place.

    ``table`` has shape [..., I, W]; ``llr`` broadcasts against [..., I].
    The column at ``slot_new`` is recycled for the newest start, then every
    column absorbs the new observation's llr.
    """
    table[..., slot_new] = 0.0
    table += np.asarray(llr, dtype=float)[..., None]


def ring_maxima(table: np.ndarray) -> np.ndarray:
    """Per-column best of a ring table [..., I, W]: the maximum over its I candidates."""
    return table.max(axis=-2)


def window_offsets(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Valid start slots at time n for a ring of the given width.

    Returns (starts, slots) with starts ascending, so an argmax over combined
    values resolves ties toward the oldest in-window start.
    """
    w = min(n, width)
    starts = np.arange(n - w + 1, n + 1)
    return starts, starts % width


def check_window(
    families: Sequence[ObservationFamily], grids: Sequence, window_len: int, log_threshold
) -> list[np.ndarray]:
    """Validated per-source grids of a window detector; ``check_charts`` checks each grid and the threshold."""
    if len(families) == 0:
        raise ValueError("need at least one source")
    if len(families) != len(grids):
        raise ValueError(f"{len(families)} families but {len(grids)} grids")
    _check_count("window_len", window_len)
    return [check_charts(fam, grid, log_threshold)[0] for fam, grid in zip(families, grids)]


class RingBatch:
    """The window engine's per-slot step over a batch of runs.

    Unbounded, source l keeps a ring table [rows, I_l, width] of llr sums
    per run, candidate and start slot, and ``total`` holds every row's exact
    joint statistic.  Bounded, the batch keeps no tables: one llr history
    ring [rows, width, sum_l I_l] holds the last ``width`` slots' llrs of
    every candidate, source after source, and source l's bound ring is a
    one-candidate ring table [rows, 1, width] that is never below the
    per-column maximum of the table it replaces.  ``tighten`` replays exact
    sums from the history for the rows and starts the bounds cannot rule
    out.  ``rows``
    holds the block row of each state row.  ``WindowEngine`` is an unbounded
    batch of one; grids come from ``check_window``.
    """

    def __init__(
        self,
        families: Sequence[ObservationFamily],
        prior: GeometricPrior,
        grids: Sequence,
        window_len: int,
        log_threshold: float,
        rows: np.ndarray,
        bounded: bool = False,
    ) -> None:
        self.families = tuple(families)
        self.grids = [np.asarray(grid, dtype=float)[None, :] for grid in grids]
        self.log_threshold = log_threshold
        self.width = window_len + 1
        self.rows = rows
        self.running = np.ones(rows.size, dtype=bool)
        if bounded:
            # source l's candidates are columns edges[l]:edges[l + 1] of the history
            self.edges = np.cumsum([0] + [grid.size for grid in self.grids]).tolist()
            self.history = np.zeros((rows.size, self.width, self.edges[-1]))
            self.bounds = [np.zeros((rows.size, 1, self.width)) for _ in self.grids]
        else:
            self.tables = [np.zeros((rows.size, grid.size, self.width)) for grid in self.grids]
            self.bounds = None
            self.total = np.full((rows.size, 1), -np.inf)
        # weight for start k at slot n depends only on the span n - k + 1
        self.weights = np.arange(1, self.width + 1) * prior.slot_cost
        self.n = 0
        self.starts = self.slots = np.zeros(0, dtype=np.int64)  # in-window starts and their ring slots

    def advance(self, x: np.ndarray) -> None:
        """Advance each row's tables, or its history and bound rings, by x[row]."""
        self.n += 1
        slot_new = self.n % self.width
        for l, (fam, grid) in enumerate(zip(self.families, self.grids)):
            llr = fam._llr(grid, x[:, l, None])
            if self.bounds is None:
                ring_advance(self.tables[l], llr, slot_new)
            else:
                self.history[:, slot_new, self.edges[l] : self.edges[l + 1]] = llr
                ring_advance(self.bounds[l], llr.max(axis=1, keepdims=True), slot_new)
        self.starts, self.slots = window_offsets(self.n, self.width)

    def maxima(self) -> list[np.ndarray]:
        """Each source's exact per-column maxima [rows, width] of an unbounded batch."""
        return [ring_maxima(table) for table in self.tables]

    def joint(self, bests: Sequence[np.ndarray]) -> np.ndarray:
        """Joint statistic [rows, starts] from per-source per-column values, exact maxima or bounds."""
        # sum over the whole ring, then one gather of the in-window columns, not one per source
        return self.weights[self.n - self.starts][None, :] + sum(bests)[:, self.slots]

    def tighten(self, rows: np.ndarray) -> np.ndarray:
        """Exact joint statistic [rows, starts] of the given rows of a bounded batch; -inf at starts that cannot cross.

        k0 is the oldest start at which any given row's bound joint reaches
        the threshold.  The sums of starts k0..n are replayed from the
        history and the bounds of those columns are reset to the exact
        maxima; older starts read -inf, since their exact joint is below
        the threshold.  Each replayed sum starts at 0.0 and adds l_k, ...,
        l_n in slot order, the additions of ``ring_advance``, so it is
        bitwise the eager table's.
        """
        total = self.joint([bound[rows, 0] for bound in self.bounds])
        reach = np.flatnonzero((total >= self.log_threshold).any(axis=0))
        first = reach[0] if reach.size else self.starts.size
        total[:, :first] = -np.inf
        slots = self.slots[first:]
        # start-major, so each slot's add is one contiguous block
        llrs = self.history[rows[None, :], slots[:, None]]  # [starts, rows, candidates]
        sums = np.zeros(llrs.shape)
        for j in range(slots.size):
            sums[: j + 1] += llrs[j]
        exact = [sums[..., lo:hi].max(axis=2) for lo, hi in zip(self.edges, self.edges[1:])]
        for bound, best in zip(self.bounds, exact):
            bound[rows[None, :], 0, slots[:, None]] = best
        total[:, first:] = (self.weights[self.n - self.starts[first:]][:, None] + sum(exact)).T
        self.replayed = rows, first, sums
        return total

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance each row by x[row].

        Returns the running rows that crossed, their template (0: a ring
        batch is one template), each one's composite firing chart, and the
        rows now done, which are the rows that crossed.

        An unbounded batch keeps every row's exact joint statistic [rows, starts] in ``total``.
        A bounded one tightens only running rows whose bound statistic
        reaches the threshold (suspects): the bound is never below the
        exact statistic, so no other row can cross.
        """
        self.advance(x)
        if self.bounds is None:
            self.total = self.joint(self.maxima())
            rows = np.flatnonzero(self.running & (self.total.max(axis=1) >= self.log_threshold))
            total = self.total[rows]
        else:
            bounds = [bound[:, 0] for bound in self.bounds]
            rows = np.flatnonzero(self.running & (self.joint(bounds).max(axis=1) >= self.log_threshold))
            if rows.size == 0:
                return rows, rows, rows, rows
            total = self.tighten(rows)
            crossed = total.max(axis=1) >= self.log_threshold
            rows, total = rows[crossed], total[crossed]
        if rows.size == 0:
            return rows, rows, rows, rows
        return rows, np.zeros_like(rows), self.decode(rows, total)[2], rows

    def decode(self, rows: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
        """Per given row of a joint statistic [rows, starts]: the position in ``starts`` of its oldest
        best start, each source's lowest best candidate there, and their composite chart.

        A bounded batch reads the candidates' sums from its last ``tighten``, whose rows must hold the given ones.
        """
        best = np.argmax(total, axis=1)  # first max: the oldest start wins ties
        if self.bounds is None:
            columns = [table[rows, :, self.slots[best]] for table in self.tables]
        else:
            replayed, first, sums = self.replayed
            at = sums[best - first, np.searchsorted(replayed, rows)]  # both row lists ascend
            columns = [at[:, lo:hi] for lo, hi in zip(self.edges, self.edges[1:])]
        picks = [np.argmax(column, axis=1) for column in columns]
        # mixed radix, first source slowest
        return best, picks, np.ravel_multi_index(picks, [grid.size for grid in self.grids])

    def retire(self, rows: np.ndarray) -> int:
        """Stop the given rows, compacting once fewer than COMPACT_BELOW still run; return how many run."""
        self.running[rows] = False
        n_running = int(np.count_nonzero(self.running))
        if 0 < n_running < COMPACT_BELOW * self.rows.size:
            self.compact(np.flatnonzero(self.running))
        return n_running

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the rows ``keep`` (ascending), moved down in place: no ring is copied whole."""
        moves = [(dst, src) for dst, src in enumerate(keep.tolist()) if dst != src]

        def kept(ring: np.ndarray) -> np.ndarray:
            for dst, src in moves:
                ring[dst] = ring[src]
            return ring[: keep.size]

        if self.bounds is None:
            self.tables = [kept(table) for table in self.tables]
        else:
            self.history = kept(self.history)
            self.bounds = [kept(bound) for bound in self.bounds]
        self.rows, self.running = self.rows[keep], self.running[keep]


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
        grid_arrs = check_window(families, grids, window_len, log_threshold)
        self.prior = prior
        self.window_len = window_len
        self.log_threshold = float(log_threshold)
        self.width = window_len + 1
        self._rings = RingBatch(families, prior, grid_arrs, window_len, self.log_threshold, np.zeros(1, dtype=np.int64))
        self._cells = sum(grid.size for grid in grid_arrs) * self.width
        self._report: StopReport | None = None
        self.work = {"cell_adds": 0, "max_scans": 0, "combines": 0}

    @property
    def n_sources(self) -> int:
        return len(self._rings.tables)

    @property
    def time(self) -> int:
        return self._rings.n

    @property
    def stopped(self) -> StopReport | None:
        return self._report

    def statistic(self) -> float:
        """Current joint statistic; -inf before the first observation."""
        return float(self._rings.total.max())

    def column_for_start(self, source: int, k: int) -> np.ndarray:
        """Accumulated llr sums of one source for the window start k, one entry per candidate."""
        starts, slots = window_offsets(self.time, self.width)
        pos = np.nonzero(starts == k)[0]
        if pos.size == 0:
            raise ValueError(f"start {k} is not inside the window at slot {self.time}")
        return self._rings.tables[source][0, :, slots[pos[0]]].copy()

    def step(self, x_vec) -> StopReport | None:
        """Feed one observation per source; report on the first crossing."""
        if self._report is not None:
            raise AlreadyStoppedError(
                f"engine already stopped at slot {self._report.stopped_at}; build a fresh engine"
            )
        xs = np.asarray(x_vec, dtype=float)
        if xs.shape != (self.n_sources,):
            raise ValueError(f"expected {self.n_sources} observations, got shape {xs.shape}")
        if not np.isfinite(xs).all():  # before any source moves, so a bad vector changes nothing
            raise ValueError("x must be finite")
        crossed, _, charts, _ = self._rings.step(xs[None, :])
        total = self._rings.total[0]
        self.work["cell_adds"] += self._cells
        self.work["max_scans"] += self.n_sources * self.width
        self.work["combines"] += total.size
        if crossed.size:
            best, picks, _ = self._rings.decode(crossed, total[None, :])
            self._report = StopReport(
                stopped_at=self.time,
                firing_chart=int(charts[0]),
                firing_value=float(total[best[0]]),
                window_start=int(self._rings.starts[best[0]]),
                source_rows=tuple(int(pick[0]) for pick in picks),
            )
            return self._report
        return None

    def run_to_stop(self, paths) -> StopReport | None:
        """Feed a [n_sources, length] observation block until the first alarm."""
        block = np.asarray(paths, dtype=float)
        if block.ndim != 2 or block.shape[0] != self.n_sources or block.shape[1] == 0:
            raise ValueError(f"expected a [{self.n_sources}, length] block, got {block.shape}")
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
    GeometricPrior(rho)  # validates rho
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
    if len(families) == 0:
        raise ValueError("need at least one source")
    total = sum(float(f.kl_post_vs_pre(lam)) for f, lam in zip(families, _lams(families, lams)))
    return total + prior.slot_cost
