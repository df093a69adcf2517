"""Monte Carlo estimation of detection delay and false-alarm rate.

Each run draws a change time from the prior, builds an observation path and
drives a fresh detector over it.  Runs are seeded individually from
(base seed, run index), so results are bitwise reproducible under any batch
size, compaction schedule or sharing of paths between templates, and two
estimates that share a base seed see identical change times and pre-change
observations.  A block of runs is seeded in one vectorised pass of numpy's
SeedSequence hashing over all its runs, which hands each run's PCG64 the
state words that ``np.random.PCG64(seed + [run])`` would compute for itself;
so each run's stream is bitwise the one ``default_rng(seed + [run])`` gives,
whatever block the run is drawn in.

One slot loop runs a detector's own per-slot step (``BankBatch`` or
``RingBatch``) over many runs at once: each slot it reads the running rows'
observations, records each (row, template) that crossed, and retires the
rows the step reports done, by the batch's own policy (a bank drops them at
once, a ring batch compacts once enough have stopped).  A bank batch may hold
several templates that share family and prior; a row is done once every
template has crossed.  A ring batch is one template.  Both take one
threshold per row, so a batch may hold runs of several alpha cells of one
model.  ``simulate_runs`` is the one place that draws paths: it walks the
runs of its cells in blocks of ``batch_size``, draws each block and runs it
through the loop.  A sweep makes one ``simulate_runs`` call per model group,
with one cell per alpha: the bank templates on one family and prior step
together to the longest of their horizons, and each is then censored at
its own (a run's slots up to a horizon do not depend on how far it runs
on); a window template is a group of its own, and its rows stop, censored,
at their cell's horizon.

Delay accounting is unconditional: a false alarm contributes 0, a run whose
change never arrived inside the horizon contributes 0, and a censored run
whose change did arrive contributes the truncated delay (horizon - t).
Censored runs are counted and the summary is flagged invalid when their
share exceeds the configured cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .design import add_lower_bound, efficiency, threshold_for
from .detectors import BankBatch, ChartVariant, check_charts
from .errors import CapacityError
from .families import (
    GeometricPrior,
    ObservationFamily,
    _as_float_array,
    _bit_generators,
    _check_alpha,
    _check_count,
    _check_positive,
    _lams,
    _map_std,
    sample_path_multi,
)
from .windowed import RingBatch, check_window, composite_kl

__all__ = [
    "RunArrays",
    "McSummary",
    "BankSpec",
    "WindowSpec",
    "simulate_runs",
    "estimate",
    "direct_stat_oracle",
    "direct_window_stat_oracle",
    "BankTemplate",
    "WindowTemplate",
    "SweepRow",
    "add_vs_alpha_sweep",
    "default_horizon",
    "best_drift",
    "summarize",
]

ORACLE_CAP = 500


@dataclass(frozen=True)
class RunArrays:
    """Vectorized run outcomes; stop_time 0 encodes a censored run."""

    change_point: np.ndarray
    stop_time: np.ndarray
    firing_chart: np.ndarray
    false_alarm: np.ndarray
    delay: np.ndarray

    def __len__(self) -> int:
        return self.change_point.size


@dataclass(frozen=True)
class McSummary:
    n_runs: int
    add_hat: float
    add_se: float
    pfa_hat: float
    pfa_se: float
    censored: int
    censor_cap: float
    valid: bool


@dataclass(frozen=True)
class BankSpec:
    """Single-sequence chart bank ready to run: grid plus log thresholds.

    Validated by ``check_charts`` as ``ChartBank`` is, so the slot loop needs
    no check of its own.
    """

    family: ObservationFamily
    prior: GeometricPrior
    grid: tuple[float, ...]
    log_thresholds: tuple[float, ...]
    variant: ChartVariant = ChartVariant.SR

    def __post_init__(self) -> None:
        check_charts(self.family, self.grid, self.log_thresholds)


@dataclass(frozen=True)
class WindowSpec:
    """Window-limited multi-source detector ready to run, validated as ``WindowEngine`` is."""

    families: tuple[ObservationFamily, ...]
    prior: GeometricPrior
    grids: tuple[tuple[float, ...], ...]
    window_len: int
    log_threshold: float

    def __post_init__(self) -> None:
        check_window(self.families, self.grids, self.window_len, self.log_threshold)


DetectorSpec = BankSpec | WindowSpec


def _sources(d) -> tuple[tuple, tuple]:
    """(families, grids) of a spec or template, one entry per source; a bank is one source."""
    if isinstance(d, (BankSpec, BankTemplate)):
        return (d.family,), (d.grid,)
    return d.families, d.grids


# Runs per path block, and so per slot-loop call.
BATCH_SIZE = 2048

# A lazy block draws its rows this many slots at a time: a fig4 run stops
# after about 120 slots on average, against a horizon near a thousand.
CHUNK_SLOTS = 128

# The longest horizon default_horizon sizes, reached at rho near 1e-5: a bank
# batch steps each slot until its last run stops (about 10 us a slot), and a
# window block holds BATCH_SIZE x sources x horizon float64s (16 KB a slot per source).
MAX_AUTO_HORIZON = 1_000_000


class PathBlock:
    """Change times and observation paths of consecutive runs, one row per run.

    The paths are [runs, horizon] for a bank and [runs, n_sources, horizon]
    for the window engine.  Every drawn observation is checked for
    finiteness once, so the batch steps can call the families' unchecked llr.
    ``draw_paths`` seeds every run of a block in one pass; row r's bit
    generator is bitwise ``np.random.PCG64(seed + [run])``.  ``ends`` holds
    each row's own horizon, at most the block's (by default the block's):
    the slot loop censors a row there, and reads none of its slots past it.

    Given only ``observations``, a block is whole.  Given a longer
    ``horizon`` and the ``streams`` (family, true parameter, one bit generator
    per row) that continue them, it is a lazy bank block: row r holds its
    first ``drawn[r]`` slots, and ``draw_to`` extends rows a chunk of the
    head's width at a time, continuing each run's one long draw bitwise.  A
    chunk fills only the rows that reach it, so deep chunks stay small, and
    ``observations`` refuses a block that is not drawn to the end.
    """

    def __init__(
        self,
        change_points: np.ndarray,
        observations: np.ndarray,
        horizon: int | None = None,
        streams: tuple[ObservationFamily, float, list[np.random.PCG64]] | None = None,
        ends: np.ndarray | None = None,
    ) -> None:
        if observations.shape[0] != change_points.size:
            raise ValueError("need one observation row per change point")
        _as_float_array(observations, "x")
        self.change_points = change_points
        self._width = observations.shape[-1]
        self.horizon = self._width if horizon is None else horizon
        self.ends = np.full(change_points.size, self.horizon) if ends is None else ends
        self.drawn = np.full(change_points.size, self._width, dtype=np.int64)
        self._chunks = [observations]  # chunk k holds slots [k * width, (k + 1) * width)
        self._streams = streams

    @property
    def observations(self) -> np.ndarray:
        if self.drawn.min(initial=self.horizon) < self.horizon:
            raise ValueError("block is drawn only in part; draw_to(rows, horizon) draws the rest")
        return self._chunks[0] if len(self._chunks) == 1 else np.concatenate(self._chunks, axis=-1)

    def chunk(self, s: int) -> tuple[np.ndarray, int]:
        """The chunk holding slot s (0-indexed) and its first slot; valid for rows drawn past s."""
        k = s // self._width
        return self._chunks[k], k * self._width

    def draw_to(self, rows: np.ndarray, upto: int) -> int:
        """Draw each of the given rows to at least ``upto`` slots (at most the horizon).

        Returns the fewest slots any of those rows now holds, so a loop
        reading them needs no call before that slot.
        """
        drawn, upto = self.drawn, min(upto, self.horizon)
        while True:
            short = rows[drawn[rows] < upto]
            if short.size == 0:
                return int(drawn[rows].min(initial=self.horizon))
            lo = int(drawn[short].min())
            self._extend(short[drawn[short] == lo], lo)

    def _extend(self, rows: np.ndarray, lo: int) -> None:
        """Draw the next chunk of rows that all hold exactly ``lo`` slots."""
        family, lam, bitgens = self._streams
        k, hi = lo // self._width, min(lo + self._width, self.horizon)
        if k == len(self._chunks):
            self._chunks.append(np.empty((self.change_points.size, hi - lo)))
        x = self._chunks[k]
        for r in rows.tolist():
            np.random.Generator(bitgens[r]).standard_normal(out=x[r])
        # one pre/post mapping for all rows: row by row measured 1.5x slower (1000 rows x 3 chunks)
        z = x[rows][:, None]
        _map_std((family,), (lam,), self.change_points[rows], z, lo)
        _as_float_array(z, "x")
        x[rows] = z[:, 0]
        self.drawn[rows] = hi


def draw_paths(spec: DetectorSpec, lam_true, runs, horizon: int | None = None, seed=None) -> PathBlock:
    """Draw the change times and paths of the given runs into one block.

    Run r draws on its own generator, bitwise ``np.random.PCG64(seed + [r])``
    (``default_rng``'s), as ``sample_path_multi(..., seed + [r])`` would;
    ``lam_true`` holds one parameter per source.  ``runs`` is a range of run
    ids drawn on ``seed`` to ``horizon``, or a list of parts (runs, horizon,
    seed) whose rows the block stacks in order, each part drawn as its own
    call would draw it; the block is as long as its longest part, and a row's
    ``ends`` entry is its part's horizon.  Each part is seeded in one
    vectorised pass and drawn by one block call of ``sample_path_multi``, a
    bank as its one-source case.  A window part is drawn whole at its own
    horizon: a multi-source draw is row-major, so no prefix of a longer one;
    the block holds 0.0 past it.  A bank block is lazy from a head of
    min(horizon, CHUNK_SLOTS) slots, and a row's first h slots equal its row
    of the block drawn at horizon h bitwise.
    """
    parts = [(runs, horizon, seed)] if isinstance(runs, range) else runs
    families = _sources(spec)[0]
    lams = _lams(families, lam_true)
    bank = isinstance(spec, BankSpec)
    ends = np.repeat([h for _, h, _ in parts], [len(r) for r, _, _ in parts])
    horizon = int(ends.max())
    width = min(horizon, CHUNK_SLOTS) if bank else horizon
    xs = np.zeros((ends.size, len(families), width))
    ts = np.empty(ends.size, dtype=np.int64)
    bitgens = []
    lo = 0
    for part_runs, part_horizon, part_seed in parts:
        hi = lo + len(part_runs)
        part = _bit_generators(part_seed, part_runs)  # a Generator holds three times the memory of its bit generator
        whole = bank or part_horizon == width
        out = xs[lo:hi] if whole else np.empty((hi - lo, len(families), part_horizon))
        ts[lo:hi], _ = sample_path_multi(families, spec.prior, lams, out.shape[-1], part, out=out)
        if not whole:
            xs[lo:hi, :, :part_horizon] = out
        bitgens += part
        lo = hi
    if not bank:
        return PathBlock(ts, xs, ends=ends)
    return PathBlock(ts, xs[:, 0], horizon, (families[0], lams[0], bitgens), ends)


def _run_batch(specs: tuple[DetectorSpec, ...], paths: PathBlock, horizon: int, thresholds=None):
    """Stop slot (0 if censored) and firing chart per spec and block row, each [specs, rows].

    Several specs must be banks that share family and prior: they step
    together in one bank batch, and a row runs until every spec has crossed.
    ``thresholds`` holds each row's log thresholds, one entry per spec:
    [rows, charts] for a bank, [rows] for a window; by default every row
    takes the specs' own.  A row is censored at its own horizon,
    ``paths.ends``.  Running rows are drawn one chunk at a time, as they
    reach it.
    """
    live = np.arange(paths.change_points.size)
    spec = specs[0]
    if thresholds is None:
        thresholds = [_log_thresholds(s) for s in specs]
    if isinstance(spec, BankSpec):
        det = BankBatch(spec.family, spec.prior, [(s.grid, t, s.variant) for s, t in zip(specs, thresholds)], live)
    else:
        det = RingBatch(
            spec.families, spec.prior, spec.grids, spec.window_len, thresholds[0], live, block=paths.observations
        )
    stop = np.zeros((len(specs), live.size), dtype=np.int64)
    firing = np.full(stop.shape, -1, dtype=np.int64)
    cuts = iter(np.unique(paths.ends[paths.ends < horizon]).tolist())  # slots where some rows' horizons end
    cut = next(cuts, None)
    ready = 0  # every running row holds the slots of xs below this
    for s in range(horizon):
        if s == ready:
            drawn = paths.draw_to(det.rows, s + 1)
            xs, base = paths.chunk(s)
            ready = min(drawn, base + xs.shape[-1])
        crossed, templates, charts, finished = det.step(xs[det.rows, ..., s - base])
        if crossed.size:
            runs = det.rows[crossed]
            stop[templates, runs], firing[templates, runs] = s + 1, charts
            if finished.size and det.retire(finished) == 0:
                break
        if s + 1 == cut:
            cut = next(cuts, None)
            if det.retire(np.flatnonzero(paths.ends[det.rows] == s + 1)) == 0:
                break
    return stop, firing


def _run_arrays(change_points: np.ndarray, stop: np.ndarray, firing: np.ndarray, horizon) -> RunArrays:
    stopped = stop > 0
    false_alarm = stopped & (stop < change_points)
    delay = np.where(stopped, np.maximum(stop - change_points, 0), np.maximum(horizon - change_points, 0))
    return RunArrays(
        change_point=change_points,
        stop_time=stop,
        firing_chart=firing,
        false_alarm=false_alarm,
        delay=delay.astype(float),
    )


def _model(spec: DetectorSpec) -> tuple:
    """Everything of a spec but its thresholds."""
    if isinstance(spec, BankSpec):
        return spec.family, spec.prior, spec.grid, spec.variant
    return spec.families, spec.prior, spec.grids, spec.window_len


def _log_thresholds(spec: DetectorSpec) -> np.ndarray:
    """A spec's log thresholds: one per chart for a bank, one value for a window."""
    if isinstance(spec, BankSpec):
        return np.broadcast_to(spec.log_thresholds, len(spec.grid))
    return np.asarray(spec.log_threshold)


def simulate_runs(
    spec: DetectorSpec | tuple[BankSpec, ...],
    lam_true,
    n_runs: int,
    horizon: int,
    seed,
    batch_size: int = BATCH_SIZE,
    cells=None,
) -> RunArrays:
    """Run n_runs independent paths through fresh detector state.

    ``lam_true`` holds one true parameter per source; a bank also takes a
    float.  Per-run seeds are (seed, run index) and runs never interact, so the
    result is bitwise the same under any batch size, and how the detector's
    batch retires stopped rows does not change it either.  Runs are drawn
    and stepped ``batch_size`` at a time.

    ``spec`` may also be a tuple of bank specs that share family and prior,
    as a sweep's bank templates do: they step through each path together,
    in one batch, each run gives the same stop slot and firing chart as that
    spec alone, and the per-run arrays of the result gain a leading axis,
    one row per spec.

    ``cells`` runs several cells of one model in one call, as a sweep's
    alpha cells do: a list of (spec, horizon), each spec given as ``spec``
    is and equal to it but for its thresholds, each horizon at most
    ``horizon``.  Cell c runs n_runs runs on seed + [c], and its runs are
    bitwise those of ``simulate_runs(spec_c, lam_true, n_runs, horizon_c,
    seed + [c])``; the result's arrays gain a leading axis, one row per
    cell.  A batch holds runs of every cell, each with its cell's
    thresholds.  Bank rows run to ``horizon`` and are then censored at
    their cell's; window rows stop, censored, at their cell's horizon.
    """
    specs = spec if isinstance(spec, tuple) else (spec,)
    if not specs:
        raise ValueError("spec must be a detector spec or a nonempty tuple of bank specs")
    if len(specs) > 1 and any(
        not isinstance(s, BankSpec) or (s.family, s.prior) != (specs[0].family, specs[0].prior) for s in specs
    ):
        raise ValueError("several specs must be banks that share family and prior")
    _check_count("n_runs", n_runs)
    _check_count("horizon", horizon)
    _check_count("batch_size", batch_size)
    lams = _lams(_sources(specs[0])[0], lam_true)
    if cells is None:
        plan = [(specs, horizon, seed)]
    else:
        base = list(seed) if isinstance(seed, (list, tuple, np.ndarray)) else [seed]
        plan = [(s if isinstance(s, tuple) else (s,), h, base + [c]) for c, (s, h) in enumerate(cells)]
        if not plan:
            raise ValueError("cells must hold at least one (spec, horizon) cell")
        for cell_specs, cell_horizon, _ in plan:
            if tuple(map(_model, cell_specs)) != tuple(map(_model, specs)):
                raise ValueError("every cell's specs must equal spec but for their thresholds")
            _check_count("a cell's horizon", cell_horizon)
            if cell_horizon > horizon:
                raise ValueError(f"a cell's horizon {cell_horizon} exceeds horizon {horizon}")
    bank = isinstance(specs[0], BankSpec)
    # each spec's log thresholds in every cell: [cells, charts] for a bank, [cells] for a window
    cell_thresholds = [np.array([_log_thresholds(c[0][k]) for c in plan]) for k in range(len(specs))]
    total = len(plan) * n_runs
    ts = np.empty(total, dtype=np.int64)
    stop = np.empty((len(specs), total), dtype=np.int64)
    firing = np.empty_like(stop)
    for lo in range(0, total, batch_size):
        hi = min(lo + batch_size, total)
        parts = []
        for c in range(lo // n_runs, (hi - 1) // n_runs + 1):
            _, cell_horizon, cell_seed = plan[c]
            runs = range(max(lo - c * n_runs, 0), min(hi - c * n_runs, n_runs))
            parts.append((runs, horizon if bank else cell_horizon, cell_seed))
        block = draw_paths(specs[0], lams, parts)
        ts[lo:hi] = block.change_points
        row_cells = np.arange(lo, hi) // n_runs
        stop[:, lo:hi], firing[:, lo:hi] = _run_batch(specs, block, horizon, [t[row_cells] for t in cell_thresholds])
        del block  # free this batch's paths before the next are drawn
    ends = np.repeat([h for _, h, _ in plan], n_runs)
    late = stop > ends  # bank rows ran to horizon; each cell is censored at its own
    stop[late], firing[late] = 0, -1
    if not isinstance(spec, tuple):
        stop, firing = stop[0], firing[0]
    runs = _run_arrays(ts, stop, firing, ends)
    if cells is None:
        return runs
    # [..., cells x runs] -> [cells, ..., runs]
    fields = (runs.change_point, runs.stop_time, runs.firing_chart, runs.false_alarm, runs.delay)
    return RunArrays(*(np.moveaxis(a.reshape(*a.shape[:-1], len(plan), n_runs), -2, 0) for a in fields))


def estimate(
    spec: DetectorSpec,
    lam_true,
    n_runs: int,
    horizon: int,
    seed,
    censor_cap: float = 1e-3,
    batch_size: int = BATCH_SIZE,
) -> McSummary:
    """Monte Carlo delay and false-alarm summary for one detector config."""
    _check_censor_cap(censor_cap)  # before the runs, not after them
    runs = simulate_runs(spec, lam_true, n_runs, horizon, seed, batch_size=batch_size)
    return summarize(runs, censor_cap=censor_cap)


def summarize(runs: RunArrays, censor_cap: float = 1e-3) -> McSummary:
    """Delay and false-alarm summary of one detector's runs, not of a grouped [specs, runs] result."""
    if runs.stop_time.ndim != 1:
        raise ValueError(f"runs must be one detector's, got stop times of shape {runs.stop_time.shape}")
    _check_censor_cap(censor_cap)
    n = len(runs)
    censored = int((runs.stop_time == 0).sum())
    add_hat = float(runs.delay.mean())
    add_se = float(runs.delay.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    pfa_hat = float(runs.false_alarm.mean())
    pfa_se = float(math.sqrt(pfa_hat * (1.0 - pfa_hat) / n))
    return McSummary(
        n_runs=n,
        add_hat=add_hat,
        add_se=add_se,
        pfa_hat=pfa_hat,
        pfa_se=pfa_se,
        censored=censored,
        censor_cap=censor_cap,
        valid=censored <= censor_cap * n,
    )


def direct_stat_oracle(
    family: ObservationFamily,
    prior: GeometricPrior,
    variant: ChartVariant,
    path,
    grid,
) -> np.ndarray:
    """Statistic trace from the non-recursive definitions, for differential tests.

    Evaluates, for every slot n and chart i, the defining sum/max/single-term
    expression over all candidate change slots k <= n, without reusing any
    recursion.  Cost is quadratic in the path length, capped to keep misuse
    obvious.  Returns an [n, n_charts] array of log statistics.
    """
    path_arr = np.asarray(path, dtype=float)
    if path_arr.ndim != 1 or path_arr.size == 0:
        raise ValueError("path must be a nonempty 1-d array")
    n = path_arr.size
    if n > ORACLE_CAP:
        raise CapacityError(f"direct evaluation is O(n^2); path length {n} exceeds cap {ORACLE_CAP}")
    grid_arr = np.atleast_1d(np.asarray(grid, dtype=float))
    cost = prior.slot_cost
    llr = np.asarray(family.llr(grid_arr[None, :], path_arr[:, None]), dtype=float)  # [n, I]
    cums = np.vstack([np.zeros(grid_arr.size), np.cumsum(llr, axis=0)])  # [n+1, I]
    out = np.empty((n, grid_arr.size))
    for idx in range(1, n + 1):
        ks = np.arange(1, idx + 1)
        spans = (idx - ks + 1) * cost  # prior weight for each candidate change slot
        terms = spans[:, None] + cums[idx][None, :] - cums[ks - 1]
        if variant is ChartVariant.SR:
            m = terms.max(axis=0)
            out[idx - 1] = m + np.log(np.exp(terms - m[None, :]).sum(axis=0))
        elif variant is ChartVariant.MAX:
            out[idx - 1] = terms.max(axis=0)
        else:
            out[idx - 1] = terms[0]
    return out


def direct_window_stat_oracle(
    families: Sequence[ObservationFamily],
    prior: GeometricPrior,
    grids: Sequence,
    window_len: int,
    paths,
) -> np.ndarray:
    """Joint windowed statistic by brute force over the composite product set.

    For every slot and every in-window start, enumerates every combination of
    one candidate per source (no per-source separability shortcut), sums the
    segment llrs and takes the overall maximum.  Returns a length-n trace.
    """
    block = np.asarray(paths, dtype=float)
    if block.ndim != 2 or block.shape[0] != len(families):
        raise ValueError(f"expected a [{len(families)}, length] block, got {block.shape}")
    n = block.shape[1]
    if n == 0:
        raise ValueError("paths must contain at least one slot")
    if n > ORACLE_CAP:
        raise CapacityError(f"exhaustive evaluation capped at path length {ORACLE_CAP}, got {n}")
    grid_arrs = [np.atleast_1d(np.asarray(g, dtype=float)) for g in grids]
    cost = prior.slot_cost
    cums = []
    for fam, grid_arr, row in zip(families, grid_arrs, block):
        llr = np.asarray(fam.llr(grid_arr[None, :], row[:, None]), dtype=float)
        cums.append(np.vstack([np.zeros(grid_arr.size), np.cumsum(llr, axis=0)]))
    out = np.empty(n)
    for idx in range(1, n + 1):
        k_lo = max(1, idx - window_len)
        ks = np.arange(k_lo, idx + 1)
        total = ((idx - ks + 1) * cost)[None, :]  # shape grows one axis per source
        for cum in cums:
            seg = cum[idx][:, None] - cum[ks - 1].T  # [I_l, w]
            total = total[..., None, :] + seg
        out[idx - 1] = total.max()
    return out


@dataclass(frozen=True)
class BankTemplate:
    """Sweep template: a bank whose threshold is set per alpha."""

    label: str
    family: ObservationFamily
    prior: GeometricPrior
    grid: tuple[float, ...]
    variant: ChartVariant = ChartVariant.SR


@dataclass(frozen=True)
class WindowTemplate:
    label: str
    families: tuple[ObservationFamily, ...]
    prior: GeometricPrior
    grids: tuple[tuple[float, ...], ...]
    window_len: int


Template = BankTemplate | WindowTemplate


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    detector: str
    lam_true: tuple[float, ...]
    add_hat: float
    add_se: float
    pfa_hat: float
    pfa_se: float
    lower_bound: float
    efficiency: float
    censored: int
    n_runs: int
    seed: int
    horizon: int
    valid: bool


def best_drift(template: Template, lam_true) -> float:
    """Fastest post-change growth rate among the template's charts, in nats per slot.

    slot_cost plus, per source, max_i [D(f_lam, g) - D(f_lam, f_cand_i)]; a
    bank is one source.  ``lam_true`` holds one true parameter per source.
    Must be positive for the detector to catch the change at all.
    """
    families, grids = _sources(template)
    rate = template.prior.slot_cost
    for fam, grid, lam in zip(families, grids, _lams(families, lam_true)):
        rate += fam.kl_post_vs_pre(lam) - float(np.min(fam.kl_post_vs_post(lam, grid)))
    if rate <= 0:
        raise ValueError(
            f"no chart grows under lam_true={lam_true!r}; the change is undetectable for this grid"
        )
    return rate


def default_horizon(
    alpha: float, prior: GeometricPrior, drift: float, censor_cap: float = 1e-3, n_runs: int | None = None
) -> int:
    """Horizon covering the prior's tail plus a generous detection allowance.

    The change time itself must land inside the horizon for all but a sliver
    of runs an order below the censoring cap, hence the prior-quantile term;
    the 8x delay multiple then leaves the post-change climb far from the edge.
    When ``n_runs`` is given and the cap allows no censored run at all
    (``censor_cap * n_runs < 1``), the tail is sized so that a change past
    the horizon happens in about one sweep of n_runs runs in a thousand.
    A horizon past MAX_AUTO_HORIZON is refused: such a sweep must set its own,
    and so is a ``censor_cap`` outside [0, 1).
    """
    _check_censor_cap(censor_cap)
    _check_positive("drift", drift)
    _check_alpha(alpha)
    if n_runs is not None:
        _check_count("n_runs", n_runs)
    tail = censor_cap / 10.0
    if n_runs is not None and censor_cap * n_runs < 1:
        tail = min(tail, 1e-3 / n_runs)  # never a shorter horizon than the cap alone asks for
    tail = max(tail, 1e-12)
    prior_allowance = int(math.ceil(-math.log(tail) / prior.slot_cost))
    horizon = int(math.ceil(8.0 * abs(math.log(alpha)) / drift)) + prior_allowance
    if horizon > MAX_AUTO_HORIZON:
        raise ValueError(f"rho = {prior.rho!r} asks for an auto horizon of {horizon} slots; set horizon")
    return horizon


@dataclass
class _Cell:
    """One (alpha, template) cell of a sweep and, once run, its runs."""

    template: Template
    spec: DetectorSpec
    lam_vec: tuple[float, ...]
    d_total: float
    horizon: int
    runs: RunArrays | None = None


def _check_alphas(alphas) -> list[float]:
    """The sweep's alpha grid as floats: nonempty, inside (0, 1) and strictly decreasing."""
    alphas = [float(a) for a in alphas]
    for alpha in alphas:
        _check_alpha(alpha)
    if not alphas or sorted(set(alphas), reverse=True) != alphas:
        raise ValueError("alphas must be nonempty and strictly decreasing")
    return alphas


def _check_censor_cap(censor_cap: float) -> None:
    """The sweep's censoring cap: the largest tolerated censored fraction, in [0, 1)."""
    if not (0.0 <= censor_cap < 1.0):
        raise ValueError(f"censor_cap must lie in [0, 1), got {censor_cap}")


def _sweep_cell(
    template: Template, lam_true, alpha: float, n_runs: int, horizon: int | None, censor_cap: float
) -> _Cell:
    """The (alpha, template) cell a sweep runs; ValueError for a cell that cannot run at any horizon."""
    families, grids = _sources(template)
    lam_vec = _lams(families, lam_true)
    log_b = threshold_for(alpha, template.prior.rho, math.prod(len(g) for g in grids))
    if isinstance(template, BankTemplate):
        spec: DetectorSpec = BankSpec(
            family=template.family,
            prior=template.prior,
            grid=template.grid,
            log_thresholds=(log_b,),
            variant=template.variant,
        )
    else:
        spec = WindowSpec(
            families=template.families,
            prior=template.prior,
            grids=template.grids,
            window_len=template.window_len,
            log_threshold=log_b,
        )
    d_total = composite_kl(families, lam_vec, template.prior)
    drift = best_drift(template, lam_true)  # refuses a template none of whose charts grows
    horizon = default_horizon(alpha, template.prior, drift, censor_cap, n_runs) if horizon is None else horizon
    return _Cell(template, spec, lam_vec, d_total, horizon)


def add_vs_alpha_sweep(
    templates: Sequence[Template],
    lam_true,
    alphas: Sequence[float],
    n_runs: int,
    seed: int,
    horizon: int | None = None,
    censor_cap: float = 1e-3,
) -> list[SweepRow]:
    """Estimate delay and false-alarm rate over an alpha grid for each template.

    Thresholds follow the union-bound rule per alpha.  Runs are paired across
    templates at each alpha (same per-run seeds, [seed, alpha index] + [run]),
    so pathwise dominance between chart variants carries over to the
    estimates exactly.  Each model group runs in one ``simulate_runs`` call
    over every alpha, one cell per alpha: the bank templates on one family
    and prior form a group, run to the longest of their horizons, so each
    path is drawn once and they step through it together; a window template
    is a group of its own.

    ``templates`` must be nonempty, ``alphas`` strictly decreasing, so a
    repeated value is refused, ``n_runs`` an integer of at least 1 and
    ``censor_cap`` in [0, 1); a template none of whose charts grows under
    ``lam_true`` is refused at any horizon.  A cell whose runs all have zero
    delay has efficiency inf.
    """
    _check_count("n_runs", n_runs)
    _check_censor_cap(censor_cap)
    alphas = _check_alphas(alphas)
    if not templates:
        raise ValueError("templates must hold at least one template")
    grid = [[_sweep_cell(template, lam_true, alpha, n_runs, horizon, censor_cap) for template in templates]
            for alpha in alphas]

    groups: dict[object, list[int]] = {}
    for t, template in enumerate(templates):  # a window template is a group of its own: a ring batch is one template
        key = (template.family, template.prior) if isinstance(template, BankTemplate) else t
        groups.setdefault(key, []).append(t)
    for members in groups.values():
        bank = isinstance(templates[members[0]], BankTemplate)
        cells = []  # one per alpha, run on seed [seed, alpha index], to the longest horizon of its templates
        for row in grid:
            specs = tuple(row[t].spec for t in members)
            cells.append((specs if bank else specs[0], max(row[t].horizon for t in members)))
        longest = max(cell_horizon for _, cell_horizon in cells)
        lam_vec = grid[0][members[0]].lam_vec
        runs = simulate_runs(cells[0][0], lam_vec, n_runs, longest, [seed], batch_size=BATCH_SIZE, cells=cells)
        # [alphas, members, runs]; a window group's result has no member axis
        stops = runs.stop_time if bank else runs.stop_time[:, None]
        firings = runs.firing_chart if bank else runs.firing_chart[:, None]
        for row, change_points, stop_row, firing_row in zip(grid, runs.change_point, stops, firings):
            for t, stop, firing in zip(members, stop_row, firing_row):  # each censored at its own horizon
                cell = row[t]
                late = stop > cell.horizon
                stop, firing = np.where(late, 0, stop), np.where(late, -1, firing)
                cell.runs = _run_arrays(change_points, stop, firing, cell.horizon)

    rows: list[SweepRow] = []
    for alpha, row in zip(alphas, grid):
        for cell in row:
            summary = summarize(cell.runs, censor_cap=censor_cap)
            rows.append(
                SweepRow(
                    alpha=alpha,
                    detector=cell.template.label,
                    lam_true=cell.lam_vec,
                    add_hat=summary.add_hat,
                    add_se=summary.add_se,
                    pfa_hat=summary.pfa_hat,
                    pfa_se=summary.pfa_se,
                    lower_bound=add_lower_bound(alpha, cell.d_total),
                    efficiency=efficiency(summary.add_hat, alpha, cell.d_total) if summary.add_hat > 0 else math.inf,
                    censored=summary.censored,
                    n_runs=n_runs,
                    seed=seed,
                    horizon=cell.horizon,
                    valid=summary.valid,
                )
            )
    return rows
