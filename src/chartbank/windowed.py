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
Each row has its own threshold, so one batch may hold runs of several alpha
cells.  It retires stopped rows by the policy a bank batch uses too
(``detectors._RetiringBatch``).  ``WindowEngine`` is an unbounded batch of
one that keeps the tables and evaluates the exact joint statistic on every
step, so its work counters count the work it does.  Its stop guard and
``run_to_stop`` are the stepped shell it shares with ``ChartBank``.

A bounded batch, the one the Monte Carlo slot loop runs, keeps no tables
and no llrs.  It bounds every row's statistic by one prefix sum, and reads
back the observations of the path block it is stepped through for the few
rows and slots it must replay.  With m_t = slot_cost + sum_l max_i
llr_{l,i}(t), the largest per-source sum is at most the sum of the per-slot
largest llrs, so start k's joint is at most P_n - P_{k-1} with
P_n = m_1 + ... + m_n, and the row's joint at most
P_n - min_{j in [n-w, n-1]} P_j, w = m_alpha + 1.  The minimum slides in
lockstep over all rows (van Herk / Gil-Werman): prefixes are kept in a ring
of w, P_j at column j mod w, so a block of w prefixes fills the ring in
order; when one completes, its suffix minima are taken once, and the
window's minimum is min(the previous block's suffix minimum from column
n mod w, the running minimum of the current block).  A row's bound costs
O(1) per slot, whatever the window.  ``ring_advance`` feeds source l's
largest llr to a one-column running sum, and P_n is those L sums plus the
weight of the slots since the block began.

Consecutive sources whose families compare equal and whose grids have one
size form a run of like sources, and a bounded batch steps each run at
once: one broadcast llr call gives [g, I, rows] for the run's g sources,
then one ``ring_advance`` of the run's g running sums and one reduction
each for the largest llr and the largest |llr| of every source.  The
values are those of one call per source, bitwise; a lone source is a run
of one.  It pays: with one call per source, fig5 preset sweeps took
0.808-0.862 s (fastest per process, 2 vCPU) against 0.757-0.781 s.

The bound and the exact statistic associate their additions differently,
so the bound carries an allowance for rounding.  With u the unit roundoff
and gamma_k = k u / (1 - k u) the bound on k rounded operations, let G be a
row's llr mass over the current and the previous block: the sum over their
slots of |slot_cost| + sum_l max_i |llr_{l,i}(t)|.  An exact sum runs at
most w recursive additions, and the weight and the sum over sources L + 1
more, so the exact statistic is within gamma_{w+L+1} G of its real value.
A prefix is at most w additions per source, the weight and L additions
after its block began, so it too is within gamma_{w+L+1} G of its real
value.  When a block completes, its running sums restart at 0.0 and every
stored prefix is rebased on the block's last one, one subtraction, so no
prefix carries more than two blocks of mass: the allowance scales with the
window, not the slot count.  A bound P_n - P_{k-1} + allowance thus adds
three prefix errors (P_n, P_{k-1} and its base) to the exact statistic's,
and three roundings (the rebase, the subtraction and the allowance's
addition), all under gamma_{3(w+L+2)} G; the allowance is twice that, the
factor 2 covering the rounding of G and of the allowance itself.  G is a
sum of non-negative terms, each run's terms summed before they join the
row's running mass, and in any order a sum of N such terms is at least
(1 - gamma_N) G.  N is at most 2w(L+1), far below 1 / (5u), so gamma_N is
under 1/4: the computed G is at least three quarters of the real one, and
twice that covers it with room for the allowance's own roundings.

Rows whose bound stays under their threshold cannot cross.  For the
others, ``tighten`` replays the sums of every start from the oldest one
whose bound P_n - P_{k-1} + allowance reaches a row's threshold.  It reads
those slots' observations from the block and recomputes their llrs with
the call ``advance`` makes; the llr is elementwise, so they are the bits
``advance`` saw.  The replay runs along diagonals, S passes for S starts:
every sum starts at 0.0, and pass d adds the llrs of slot k + d to every
start k that has one, so each start adds exactly its own llrs in slot
order, the additions ``ring_advance`` makes, and is bitwise the table's.
Older starts are skipped: their exact joint is below the threshold of every
row in the replay, so they can neither cross nor win its oldest-first
argmax.  ``step`` decodes a crossing from the replay's sums at its best
start, so stop slots and firing charts stay bitwise those of the exact step.
The bound costs O(L) per row and slot, plus O(w) per row once per w slots
for a block's suffix minima.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from .detectors import StopReport, _RetiringBatch, _SteppedDetector, check_charts
from .families import (
    GeometricPrior,
    ObservationFamily,
    _as_float_array,
    _check_alpha,
    _check_count,
    _check_positive,
    _lams,
)

__all__ = ["WindowEngine", "window_length_for", "composite_kl"]


def ring_advance(table: np.ndarray, llr, slot_new: int | None) -> None:
    """Advance a ring table one slot in place.

    ``table`` has shape [..., I, W]; ``llr`` broadcasts against [..., I].
    The column at ``slot_new`` is recycled for the newest start, then every
    column absorbs the new observation's llr.  With ``slot_new=None`` no
    column is recycled: each column is a running sum of every llr fed so far.
    """
    if slot_new is not None:
        table[..., slot_new] = 0.0
    table += np.asarray(llr, dtype=float)[..., None]


def window_offsets(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Valid start slots at time n for a ring of the given width.

    Returns (starts, slots) with starts ascending, so an argmax over combined
    values resolves ties toward the oldest in-window start.
    """
    w = min(n, width)
    starts = np.arange(n - w + 1, n + 1)
    return starts, starts % width


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u the unit roundoff: the relative error bound of k rounded operations."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


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


class RingBatch(_RetiringBatch):
    """The window engine's per-slot step over a batch of runs.

    Unbounded, source l keeps a ring table [rows, I_l, width] of llr sums
    per run, candidate and start slot, and ``total`` holds every row's exact
    joint statistic.  Bounded, the batch keeps no tables and no llrs: it
    reads ``block`` [block rows, L, slots], the observations it is stepped
    with, whenever it replays.  Its bound is a prefix sum P of the per-slot
    bound m_t (see the module docstring), kept rows last:
    ``peaks`` [L, rows, 1, 1] holds each source's running sum of its largest
    llrs since the current block of ``width`` slots began, one one-column
    ring table per source, advanced a run of like sources at a time
    (``source_runs``, see the module docstring); ``prefix`` [rows] is P_n,
    ``prefixes`` [width, rows] the ring of the last ``width`` prefixes,
    ``suffix`` [width, rows] the previous block's suffix minima, ``low``
    [rows] the current block's running minimum and ``mass`` [2, rows] the
    previous and current block's llr mass, which scales the rounding
    allowance.  ``bound`` and ``start_bounds`` are never below the exact
    statistic; ``tighten`` replays exact sums from the block for the rows
    and starts they cannot rule out, one diagonal pass per start over all
    of them, for ``step`` to decode.  ``thresholds`` holds each state row's
    log threshold (``log_thresholds`` is one value or one per row); it
    moves with the rows when they compact, and ``step`` reports running
    rows only.  ``WindowEngine`` is an unbounded batch of one; grids come
    from ``check_window``.
    """

    def __init__(
        self,
        families: Sequence[ObservationFamily],
        prior: GeometricPrior,
        grids: Sequence,
        window_len: int,
        log_thresholds,
        rows: np.ndarray,
        block: np.ndarray | None = None,
    ) -> None:
        self.families = tuple(families)
        self.grids = [np.asarray(grid, dtype=float)[None, :] for grid in grids]
        self.thresholds = np.broadcast_to(np.asarray(log_thresholds, dtype=float), rows.shape).copy()
        self.width = window_len + 1
        super().__init__(rows)
        self.block = block
        self.bounded = block is not None
        # weight for start k at slot n depends only on the span n - k + 1
        self.weights = np.arange(1, self.width + 1) * prior.slot_cost
        n_sources = len(self.grids)
        # source l's candidates are columns edges[l]:edges[l + 1] of a replay or of decode's sums
        self.edges = np.cumsum([0] + [grid.size for grid in self.grids]).tolist()
        # runs of like sources: consecutive sources whose families compare equal and whose grids have
        # one size share each per-slot call, as (family, first source, end, grids [g, I, 1]); candidates
        # come before rows, so an llr [g, I, rows] reduces over its candidates one contiguous row at a time
        self.source_runs = []
        lo = 0
        for hi in range(1, n_sources + 1):
            like = hi < n_sources and self.grids[hi].size == self.grids[lo].size
            if like and self.families[hi] == self.families[lo]:
                continue
            self.source_runs.append((self.families[lo], lo, hi, np.stack(self.grids[lo:hi]).transpose(0, 2, 1)))
            lo = hi
        if self.bounded:
            # the bound's state keeps rows last, so each per-slot operation runs over contiguous rows
            self.peaks = np.zeros((n_sources, rows.size, 1, 1))
            self.steps = 0  # slots since the current block began, the same for every row
            self.prefix = np.zeros(rows.size)  # P_0
            self.prefixes = np.zeros((self.width, rows.size))
            self.suffix = np.full((self.width, rows.size), np.inf)  # no previous block yet
            self.low = np.full(rows.size, np.inf)
            self.mass = np.zeros((2, rows.size))
            self.slot_mass = abs(prior.slot_cost)
            self.slack = 2 * _gamma(3 * (self.width + n_sources + 2))
        else:
            self.tables = [np.zeros((rows.size, grid.size, self.width)) for grid in self.grids]
            self.total = np.full((rows.size, 1), -np.inf)
        self.n = 0
        self.starts = self.slots = np.zeros(0, dtype=np.int64)  # in-window starts and their ring slots

    def advance(self, x: np.ndarray) -> None:
        """Advance each row's tables, or its prefix sum, by x[row]."""
        self.n += 1
        if not self.bounded:
            slot_new = self.n % self.width
            for l, (fam, grid) in enumerate(zip(self.families, self.grids)):
                ring_advance(self.tables[l], fam._llr(grid, x[:, l, None]), slot_new)
        else:
            # move P_{n-1} into the prefix ring; once that completes a block, take its suffix minima and
            # rebase: subtract the block's last prefix from every stored one and restart the running sums
            column = (self.n - 1) % self.width
            self.prefixes[column] = self.prefix
            np.minimum(self.low, self.prefix, out=self.low)
            if column == self.width - 1:
                self.prefixes -= self.prefix
                self.suffix = np.minimum.accumulate(self.prefixes[::-1], axis=0)[::-1]
                self.low[:] = np.inf
                self.peaks[:] = 0.0
                self.steps = 0
                self.mass[0] = self.mass[1]
                self.mass[1] = 0.0
            xs = x.T[:, None, :]  # [L, 1, rows]
            for fam, lo, hi, lams in self.source_runs:
                llr = fam._llr(lams, xs[lo:hi])  # [g, I, rows], the tables' values transposed
                ring_advance(self.peaks[lo:hi], llr.max(axis=1)[..., None], None)
                self.mass[1] += np.abs(llr, out=llr).max(axis=1).sum(axis=0)
            self.steps += 1
            self.prefix = self.weights[self.steps - 1] + self.peaks.sum(axis=0).ravel()
            self.mass[1] += self.slot_mass
        self.starts, self.slots = window_offsets(self.n, self.width)

    def allowance(self, rows=slice(None)) -> np.ndarray:
        """The rows' rounding allowances [rows]: twice gamma_{3(w+L+2)} times each one's llr mass over two blocks."""
        return self.slack * (self.mass[0, rows] + self.mass[1, rows])

    def bound(self) -> np.ndarray:
        """Each row's bound [rows] on its joint statistic: P_n minus the least in-window prefix, plus the allowance."""
        low = np.minimum(self.suffix[self.n % self.width], self.low)
        return (self.prefix - low) + self.allowance()

    def start_bounds(self, rows: np.ndarray) -> np.ndarray:
        """The given rows' bounds [rows, starts] at every in-window start k: P_n - P_{k-1} plus the allowance.

        A row's ``bound`` is the largest of these, bitwise: rounded subtraction is monotone.
        """
        before = self.prefixes[((self.slots - 1) % self.width)[:, None], rows].T
        return (self.prefix[rows, None] - before) + self.allowance(rows)[:, None]

    def joint(self) -> np.ndarray:
        """Exact joint statistic [rows, starts] of an unbounded batch."""
        # per-column maxima summed over the whole ring in source order, then one gather of the in-window columns
        best = sum(table.max(axis=1) for table in self.tables)
        return self.weights[self.n - self.starts][None, :] + best[:, self.slots]

    def tighten(self, rows: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Replay the given rows of a bounded batch: (first, exact, sums).

        ``first`` is the position in ``starts`` of k0, the oldest start at
        which any given row's ``start_bounds`` reach its threshold; older
        starts' joint is below every given row's threshold.  ``exact`` [rows,
        span] is the joint of starts k0..n and ``sums`` [span, rows,
        candidates] their candidates' sums.  Their llrs l_k0, ..., l_n are
        recomputed from the block by the call ``advance`` makes, which is
        elementwise and so gives the same bits.  Each sum starts at 0.0 and
        adds l_k, ..., l_n in slot order, the additions of ``ring_advance``,
        so it is bitwise the eager table's: pass d of the diagonal replay
        adds l_{k+d} to every start k <= n - d at once.
        """
        reach = np.flatnonzero((self.start_bounds(rows) >= self.thresholds[rows, None]).any(axis=0))
        first = reach[0] if reach.size else self.starts.size
        span = self.starts.size - first
        # slot k is block column k - 1; start-major, so each pass is one contiguous add over every start
        xs = self.block[self.rows[rows][None, :], :, self.starts[first:, None] - 1]  # [slots, rows, L]
        llrs = np.empty((span, rows.size, self.edges[-1]))  # [slots, rows, candidates]
        for fam, lo, hi, lams in self.source_runs:
            llr = fam._llr(lams, xs[..., lo:hi].reshape(-1, hi - lo).T[:, None, :])  # [g, I, slots x rows]
            c0, c1 = self.edges[lo], self.edges[hi]
            llrs[:, :, c0:c1] = llr.reshape(c1 - c0, span, rows.size).transpose(1, 2, 0)
        sums = np.zeros_like(llrs)
        for d in range(span):
            sums[: span - d] += llrs[d:]
        # a run's maxima take one elementwise pass per candidate over all its sources (numpy's reduction over a
        # short innermost axis costs about three times as much), then the joint adds them in source order, as
        # ``joint`` does
        maxima = []
        for _, lo, hi, lams in self.source_runs:
            run = sums[..., self.edges[lo] : self.edges[hi]].reshape(span, rows.size, *lams.shape[:2])
            best = run[..., 0].copy()
            for i in range(1, run.shape[3]):
                np.maximum(best, run[..., i], out=best)
            maxima.extend(best[..., l] for l in range(hi - lo))
        exact = (self.weights[self.n - self.starts[first:]][:, None] + sum(maxima)).T
        return first, exact, sums

    def step(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance each row by x[row].

        Returns the running rows that crossed, their template (0: a ring
        batch is one template), each one's composite firing chart, and the
        rows now done, which are the rows that crossed.

        An unbounded batch keeps every row's exact joint statistic [rows, starts] in ``total``.
        A bounded one tightens only running rows whose bound statistic reaches the threshold
        (suspects): the bound is never below the exact statistic, so no other row can cross.
        Both decode a crossed row's chart from its candidates' sums at its oldest best start.
        """
        self.advance(x)
        if not self.bounded:
            self.total = self.joint()
            rows = np.flatnonzero(self.running & (self.total.max(axis=1) >= self.thresholds))
            if rows.size == 0:
                return rows, rows, rows, rows
            best = np.argmax(self.total[rows], axis=1)  # first max: the oldest start wins ties
            at = np.concatenate([table[rows, :, self.slots[best]] for table in self.tables], axis=1)
        else:
            rows = np.flatnonzero(self.running & (self.bound() >= self.thresholds))
            if rows.size == 0:
                return rows, rows, rows, rows
            _, exact, sums = self.tighten(rows)
            crossed = np.flatnonzero(exact.max(axis=1) >= self.thresholds[rows])
            rows, best = rows[crossed], np.argmax(exact[crossed], axis=1)  # the oldest start wins ties
            at = sums[best, crossed]
        return rows, np.zeros_like(rows), self.decode(at)[1], rows

    def decode(self, at: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Per row of candidates' sums [rows, candidates] at its best start: each source's lowest best
        candidate, and their composite chart."""
        picks = []  # one argmax per run of like sources, first max: the lowest candidate wins ties
        for _, lo, hi, lams in self.source_runs:
            run = at[:, self.edges[lo] : self.edges[hi]].reshape(at.shape[0], hi - lo, lams.shape[1])
            picks.extend(np.argmax(run, axis=2).T)
        # mixed radix, first source slowest
        return picks, np.ravel_multi_index(picks, [grid.size for grid in self.grids])

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the rows ``keep`` (ascending)."""
        if not self.bounded:
            self.tables = [table[keep] for table in self.tables]
        else:
            self.peaks = self.peaks[:, keep]
            self.prefix, self.prefixes, self.suffix, self.low, self.mass = (
                state[..., keep] for state in (self.prefix, self.prefixes, self.suffix, self.low, self.mass)
            )
        self.rows, self.running, self.thresholds = self.rows[keep], self.running[keep], self.thresholds[keep]


class WindowEngine(_SteppedDetector):
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
        self._slot_shape = (len(grid_arrs),)
        self.work = {"cell_adds": 0, "max_scans": 0, "combines": 0}

    @property
    def n_sources(self) -> int:
        return self._slot_shape[0]

    @property
    def time(self) -> int:
        return self._rings.n

    def statistic(self) -> float:
        """Current joint statistic; -inf before the first observation."""
        return float(self._rings.total.max())

    def column_for_start(self, source: int, k: int) -> np.ndarray:
        """Accumulated llr sums of one source for the window start k, one entry per candidate."""
        pos = np.nonzero(self._rings.starts == k)[0]
        if pos.size == 0:
            raise ValueError(f"start {k} is not inside the window at slot {self.time}")
        return self._rings.tables[source][0, :, self._rings.slots[pos[0]]].copy()

    def step(self, x_vec) -> StopReport | None:
        """Feed one observation per source; report on the first crossing."""
        self._check_running()
        xs = _as_float_array(x_vec, "x")  # before any source moves, so a bad vector changes nothing
        if xs.shape != (self.n_sources,):
            raise ValueError(f"expected {self.n_sources} observations, got shape {xs.shape}")
        crossed, _, charts, _ = self._rings.step(xs[None, :])
        total = self._rings.total[0]
        self.work["cell_adds"] += self._cells
        self.work["max_scans"] += self.n_sources * self.width
        self.work["combines"] += total.size
        if crossed.size:
            best = np.argmax(total)  # first max: the oldest start wins ties, as in the step
            picks = np.unravel_index(charts[0], [grid.size for grid in self._rings.grids])
            self._report = StopReport(
                stopped_at=self.time,
                firing_chart=int(charts[0]),
                firing_value=float(total[best]),
                window_start=int(self._rings.starts[best]),
                source_rows=tuple(int(pick) for pick in picks),
            )
            return self._report
        return None


# How far the window exceeds |log alpha| / d_min: the asymptotic requirement
# is only that the window grow faster than that, so any constant above 1 meets it.
WINDOW_SLACK = 1.5


def window_length_for(alpha: float, d_min: float) -> int:
    """Window length meeting the delay-coverage condition with room to spare.

    Returns ceil(WINDOW_SLACK * |log alpha| / d_min) where d_min is the
    slowest composite post-change drift (divergence sum plus slot cost) the
    window must accommodate.

    Warns when log(window) is not small against |log alpha|, since the
    false-alarm threshold analysis treats that ratio as negligible.
    """
    _check_alpha(alpha)
    _check_positive("d_min", d_min)
    span = WINDOW_SLACK * abs(math.log(alpha)) / d_min
    if not span < 2.0**62:
        raise ValueError(f"window length {span} is past the int64 range (d_min={d_min})")
    m = max(1, math.ceil(span))
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
    total = sum(f.kl_post_vs_pre(lam) for f, lam in zip(families, _lams(families, lams)))
    return total + prior.slot_cost
