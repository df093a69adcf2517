"""Monte Carlo estimation of detection delay and false-alarm rate.

Each run draws a change time from the prior, builds an observation path and
drives a fresh detector over it.  Runs are seeded individually from
(base seed, run index), so results are bitwise reproducible under any batch
size, compaction schedule or sharing of paths between templates, and two
estimates that share a base seed see identical paths wherever the
observation model allows pairing.

The batch kernels step only runs that are still going: the bank kernel drops
a row as soon as it stops, the window kernel compacts its ring tables once
enough rows have stopped.  A sweep draws each block of paths once per alpha
and runs every template with the same observation model on it.

Delay accounting is unconditional: a false alarm contributes 0, a run whose
change never arrived inside the horizon contributes 0, and a censored run
whose change did arrive contributes the truncated delay (horizon - t).
Censored runs are counted and the summary is flagged invalid when their
share exceeds the configured cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .detectors import ChartVariant, advance_log_stats, initial_log_stats
from .errors import CapacityError
from .families import GeometricPrior, ObservationFamily, sample_path, sample_path_multi
from .windowed import ring_advance, window_offsets, composite_kl

__all__ = [
    "RunRecord",
    "RunArrays",
    "McSummary",
    "BankSpec",
    "WindowSpec",
    "PathBlock",
    "draw_paths",
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
]

ORACLE_CAP = 500


@dataclass(frozen=True)
class RunRecord:
    """Outcome of a single simulated run."""

    change_point: int
    stop_time: int | None
    firing_chart: int | None
    false_alarm: bool
    delay: float


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

    def to_records(self) -> list[RunRecord]:
        out = []
        for t, tau, chart, fa, d in zip(
            self.change_point, self.stop_time, self.firing_chart, self.false_alarm, self.delay
        ):
            out.append(
                RunRecord(
                    change_point=int(t),
                    stop_time=int(tau) if tau > 0 else None,
                    firing_chart=int(chart) if tau > 0 else None,
                    false_alarm=bool(fa),
                    delay=float(d),
                )
            )
        return out


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
    """Single-sequence chart bank ready to run: grid plus log thresholds."""

    family: ObservationFamily
    prior: GeometricPrior
    grid: tuple[float, ...]
    log_thresholds: tuple[float, ...]
    variant: ChartVariant = ChartVariant.SR

    def __post_init__(self) -> None:
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if len(self.log_thresholds) not in (1, len(self.grid)):
            raise ValueError("log_thresholds must have length 1 or match the grid")


@dataclass(frozen=True)
class WindowSpec:
    """Window-limited multi-source detector ready to run."""

    families: tuple[ObservationFamily, ...]
    prior: GeometricPrior
    grids: tuple[tuple[float, ...], ...]
    window_len: int
    log_threshold: float

    def __post_init__(self) -> None:
        if len(self.families) == 0 or len(self.families) != len(self.grids):
            raise ValueError("need one grid per source")
        if self.window_len < 1:
            raise ValueError("window_len must be at least 1")


DetectorSpec = BankSpec | WindowSpec


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


# Rows per kernel call, and per path block a sweep draws.
BATCH_SIZE = 2048

# The window kernel moves its ring tables' running rows down once fewer than
# this share of the rows still runs: often enough to keep the per-slot work
# near the live count, rarely enough that the row copies stay cheap.
COMPACT_BELOW = 0.75


@dataclass(frozen=True)
class PathBlock:
    """Change times and observation paths of consecutive runs, one row per run.

    ``observations`` is [runs, horizon] for a bank and [runs, n_sources,
    horizon] for the window engine.  Every observation is checked for
    finiteness here, once per block, so the kernels can call the families'
    unchecked llr.
    """

    change_points: np.ndarray
    observations: np.ndarray

    def __post_init__(self) -> None:
        if self.observations.shape[0] != self.change_points.size:
            raise ValueError("need one observation row per change point")
        if not np.isfinite(self.observations).all():
            raise ValueError("x must be finite")

    @property
    def horizon(self) -> int:
        return self.observations.shape[-1]


def draw_paths(spec: DetectorSpec, lam_true, runs: range, horizon: int, seed) -> PathBlock:
    """Draw the change times and paths of the given runs, row by row into one block.

    Run r is seeded from (seed, r).  For a bank whose family has a
    standard-normal representation, the first h slots of a block equal the
    block drawn at horizon h bitwise, so one block serves banks of any
    shorter horizon.
    """
    seed_base = _seed_list(seed)
    ts = np.empty(len(runs), dtype=np.int64)
    if isinstance(spec, BankSpec):
        xs = np.empty((len(runs), horizon))
        for j, rid in enumerate(runs):
            ts[j], _ = sample_path(spec.family, spec.prior, float(lam_true), horizon, seed_base + [rid], out=xs[j])
    else:
        xs = np.empty((len(runs), len(spec.families), horizon))
        for j, rid in enumerate(runs):
            ts[j], _ = sample_path_multi(spec.families, spec.prior, lam_true, horizon, seed_base + [rid], out=xs[j])
    return PathBlock(ts, xs)


def _bank_batch(spec: BankSpec, xs: np.ndarray):
    """Stop slot (0 if censored) and firing chart per row of xs, stepping only running rows."""
    grid = spec.family._check_lam(np.asarray(spec.grid, dtype=float))[None, :]
    thr = np.asarray(spec.log_thresholds, dtype=float)
    batch, horizon = xs.shape
    state = np.broadcast_to(initial_log_stats(spec.variant, grid.size), (batch, grid.size)).copy()
    live = np.arange(batch)  # batch row of each state row
    stop = np.zeros(batch, dtype=np.int64)
    firing = np.full(batch, -1, dtype=np.int64)
    cost = spec.prior.slot_cost
    for s in range(horizon):
        llr = spec.family._llr(grid, xs[live, s][:, None])
        state = advance_log_stats(spec.variant, state, cost, llr)
        crossed = state >= thr
        hit = crossed.any(axis=1)
        if hit.any():
            stop[live[hit]] = s + 1
            firing[live[hit]] = np.argmax(crossed[hit], axis=1)
            keep = ~hit
            live = live[keep]
            if live.size == 0:
                break
            state = state[keep]
    return stop, firing


def _window_batch(spec: WindowSpec, xs: np.ndarray):
    """Stop slot (0 if censored) and composite firing chart per row of xs.

    Rows that stopped stay in the ring tables until fewer than COMPACT_BELOW
    of them still run; then the running rows move down in place and the
    tables shrink to a leading view, so no table is ever copied whole.
    """
    families = spec.families
    grids = [fam._check_lam(np.asarray(g, dtype=float))[None, :] for fam, g in zip(families, spec.grids)]
    batch, n_sources, horizon = xs.shape
    width = spec.window_len + 1
    tables = [np.zeros((batch, g.size, width)) for g in grids]
    weights = np.arange(1, width + 1) * spec.prior.slot_cost
    stop = np.zeros(batch, dtype=np.int64)
    firing = np.full(batch, -1, dtype=np.int64)
    rows = np.arange(batch)  # batch row of each table row
    running = np.ones(batch, dtype=bool)  # per table row
    n_running = batch
    for s in range(horizon):
        n = s + 1
        slot_new = n % width
        x = xs[rows, :, s]
        bests = [
            ring_advance(table, fam._llr(grid, x[:, l, None]), slot_new)
            for l, (fam, grid, table) in enumerate(zip(families, grids, tables))
        ]
        starts, slots = window_offsets(n, width)
        total = weights[(n - starts)][None, :] + sum(b[:, slots] for b in bests)
        newly = running & (total.max(axis=1) >= spec.log_threshold)
        if newly.any():
            for r in np.flatnonzero(newly).tolist():
                slot = int(slots[np.argmax(total[r])])
                u = 0
                for grid, table in zip(grids, tables):
                    u = u * grid.size + int(np.argmax(table[r, :, slot]))
                firing[rows[r]] = u
            stop[rows[newly]] = n
            running &= ~newly
            n_running = int(running.sum())
            if n_running == 0:
                break
            if n_running < COMPACT_BELOW * rows.size:
                keep = np.flatnonzero(running)
                for table in tables:
                    for dst, src in enumerate(keep.tolist()):
                        if dst != src:
                            table[dst] = table[src]
                tables = [table[:n_running] for table in tables]
                rows = rows[keep]
                running = running[keep]
    return stop, firing


def simulate_runs(
    spec: DetectorSpec,
    lam_true,
    n_runs: int,
    horizon: int,
    seed,
    batch_size: int = BATCH_SIZE,
    paths: PathBlock | None = None,
) -> RunArrays:
    """Run n_runs independent paths through fresh detector state.

    Per-run seeds are (seed, run index) and runs never interact, so the
    result is bitwise the same under any batch size, and the kernels' dropping
    of stopped rows does not change it either.  ``paths`` passes a block from
    ``draw_paths`` holding exactly these runs at ``horizon`` slots or more, so
    that several detectors share one draw; nothing is drawn then.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if paths is not None and (paths.change_points.size != n_runs or paths.horizon < horizon):
        raise ValueError(f"paths must hold {n_runs} runs of at least {horizon} slots")
    kernel = _bank_batch if isinstance(spec, BankSpec) else _window_batch
    ts = np.empty(n_runs, dtype=np.int64)
    stop = np.empty(n_runs, dtype=np.int64)
    firing = np.empty(n_runs, dtype=np.int64)
    for lo in range(0, n_runs, batch_size):
        hi = min(lo + batch_size, n_runs)
        if paths is None:
            block, rows = draw_paths(spec, lam_true, range(lo, hi), horizon, seed), slice(None)
        else:
            block, rows = paths, slice(lo, hi)
        ts[lo:hi] = block.change_points[rows]
        stop[lo:hi], firing[lo:hi] = kernel(spec, block.observations[rows, ..., :horizon])
        del block  # free this batch's paths before the next are drawn

    stopped = stop > 0
    false_alarm = stopped & (stop < ts)
    delay = np.where(stopped, np.maximum(stop - ts, 0), np.maximum(horizon - ts, 0)).astype(float)
    return RunArrays(
        change_point=ts,
        stop_time=stop,
        firing_chart=firing,
        false_alarm=false_alarm,
        delay=delay,
    )


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
    runs = simulate_runs(spec, lam_true, n_runs, horizon, seed, batch_size=batch_size)
    return summarize(runs, censor_cap=censor_cap)


def summarize(runs: RunArrays, censor_cap: float = 1e-3) -> McSummary:
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
    cap: int = ORACLE_CAP,
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
    if n > cap:
        raise CapacityError(f"direct evaluation is O(n^2); path length {n} exceeds cap {cap}")
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
    cap: int = ORACLE_CAP,
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
    if n > cap:
        raise CapacityError(f"exhaustive evaluation capped at path length {cap}, got {n}")
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

    For a bank this is max_i [D(f_lam, g) - D(f_lam, f_cand_i)] + slot_cost;
    for the windowed engine the per-source best rates add.  Must be positive
    for the detector to catch the change at all.
    """
    if isinstance(template, BankTemplate):
        lam = float(np.atleast_1d(np.asarray(lam_true, dtype=float))[0])
        d_pre = float(template.family.kl_post_vs_pre(lam))
        d_cands = np.atleast_1d(
            np.asarray(template.family.kl_post_vs_post(lam, np.asarray(template.grid)), dtype=float)
        )
        rate = d_pre - float(d_cands.min()) + template.prior.slot_cost
    else:
        lams = np.atleast_1d(np.asarray(lam_true, dtype=float))
        rate = template.prior.slot_cost
        for fam, grid, lam in zip(template.families, template.grids, lams):
            d_pre = float(fam.kl_post_vs_pre(float(lam)))
            d_cands = np.atleast_1d(np.asarray(fam.kl_post_vs_post(float(lam), np.asarray(grid)), dtype=float))
            rate += d_pre - float(d_cands.min())
    if rate <= 0:
        raise ValueError(
            f"no chart grows under lam_true={lam_true!r}; the change is undetectable for this grid"
        )
    return rate


def default_horizon(alpha: float, prior: GeometricPrior, drift: float, censor_cap: float = 1e-3) -> int:
    """Horizon covering the prior's tail plus a generous detection allowance.

    The change time itself must land inside the horizon for all but a sliver
    of runs an order below the censoring cap, hence the prior-quantile term;
    the 8x delay multiple then leaves the post-change climb far from the edge.
    """
    if drift <= 0:
        raise ValueError("drift must be positive")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    tail = max(censor_cap / 10.0, 1e-12)
    prior_allowance = int(math.ceil(-math.log(tail) / prior.slot_cost))
    return int(math.ceil(8.0 * abs(math.log(alpha)) / drift)) + prior_allowance


def _threshold(alpha: float, rho: float, n_charts: int) -> float:
    # local import keeps design importable from simulate without a cycle
    from .design import threshold_for

    return threshold_for(alpha, rho, n_charts)


def _shared_paths_key(spec: DetectorSpec, horizon: int) -> tuple:
    """Cells with equal keys at one alpha can run on one block from ``draw_paths``."""
    if isinstance(spec, BankSpec):
        # one standard-normal draw per run: a shorter horizon reads a prefix
        prefix = spec.family.supports_paired_sampling
        return (BankSpec, spec.family, spec.prior, None if prefix else horizon)
    # an [n_sources, horizon] draw is no prefix of a longer one, row 1 onwards
    return (WindowSpec, spec.families, spec.prior, horizon)


@dataclass
class _Cell:
    """One (alpha, template) cell of a sweep and its runs, one RunArrays per block."""

    template: Template
    spec: DetectorSpec
    lam: object  # as simulate_runs takes it for this spec
    lam_vec: tuple[float, ...]
    d_total: float
    horizon: int
    runs: list[RunArrays] = field(default_factory=list)


def _concat_runs(parts: list[RunArrays]) -> RunArrays:
    return RunArrays(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(RunArrays)))


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
    templates at each alpha (same per-run seeds), so pathwise dominance
    between chart variants carries over to the estimates exactly.  Templates
    that share an observation model draw each path once per alpha, in blocks
    of BATCH_SIZE runs at the longest of their horizons.
    """
    from .design import add_lower_bound, efficiency

    alphas = [float(a) for a in alphas]
    if len(alphas) == 0:
        raise ValueError("alphas must be nonempty")
    if any(not (0.0 < a < 1.0) for a in alphas):
        raise ValueError("every alpha must lie in (0, 1)")
    if sorted(alphas, reverse=True) != alphas:
        raise ValueError("alphas must be strictly decreasing")
    rows: list[SweepRow] = []
    for a_idx, alpha in enumerate(alphas):
        cells = []
        for template in templates:
            rho = template.prior.rho
            if isinstance(template, BankTemplate):
                n_charts = len(template.grid)
                log_b = _threshold(alpha, rho, n_charts)
                spec: DetectorSpec = BankSpec(
                    family=template.family,
                    prior=template.prior,
                    grid=template.grid,
                    log_thresholds=(log_b,),
                    variant=template.variant,
                )
                lam_vec = (float(np.atleast_1d(np.asarray(lam_true, dtype=float))[0]),)
                d_total = float(template.family.kl_post_vs_pre(lam_vec[0])) + template.prior.slot_cost
            else:
                n_charts = int(np.prod([len(g) for g in template.grids]))
                log_b = _threshold(alpha, rho, n_charts)
                spec = WindowSpec(
                    families=template.families,
                    prior=template.prior,
                    grids=template.grids,
                    window_len=template.window_len,
                    log_threshold=log_b,
                )
                lam_vec = tuple(float(v) for v in np.atleast_1d(np.asarray(lam_true, dtype=float)))
                d_total = composite_kl(list(template.families), lam_vec, template.prior)
            cell_horizon = horizon
            if cell_horizon is None:
                cell_horizon = default_horizon(alpha, template.prior, best_drift(template, lam_true), censor_cap)
            lam = lam_vec[0] if isinstance(spec, BankSpec) else lam_true
            cells.append(_Cell(template, spec, lam, lam_vec, d_total, cell_horizon))

        groups: dict[tuple, list[_Cell]] = {}
        for cell in cells:
            groups.setdefault(_shared_paths_key(cell.spec, cell.horizon), []).append(cell)
        for group in groups.values():
            longest = max(cell.horizon for cell in group)
            for lo in range(0, n_runs, BATCH_SIZE):
                runs = range(lo, min(lo + BATCH_SIZE, n_runs))
                block = draw_paths(group[0].spec, group[0].lam, runs, longest, [seed, a_idx])
                for cell in group:
                    cell.runs.append(simulate_runs(cell.spec, cell.lam, len(runs), cell.horizon, [seed, a_idx], paths=block))
                del block  # free this block before the next is drawn

        for cell in cells:
            summary = summarize(_concat_runs(cell.runs), censor_cap=censor_cap)
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
                    efficiency=efficiency(summary.add_hat, alpha, cell.d_total),
                    censored=summary.censored,
                    n_runs=n_runs,
                    seed=seed,
                    horizon=cell.horizon,
                    valid=summary.valid,
                )
            )
    return rows
