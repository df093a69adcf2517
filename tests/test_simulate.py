import contextlib
import inspect
import math
import os
import re
import signal
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartbank import (
    BankSpec,
    BankTemplate,
    CapacityError,
    ChartBank,
    ChartVariant,
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    RunArrays,
    WindowEngine,
    WindowSpec,
    WindowTemplate,
    add_vs_alpha_sweep,
    best_drift,
    default_horizon,
    direct_stat_oracle,
    direct_window_stat_oracle,
    estimate,
    sample_path,
    sample_path_multi,
    simulate_runs,
    summarize,
    threshold_for,
)
from chartbank import cli, detectors, simulate
from chartbank.detectors import BankBatch
from chartbank.families import _first_uniforms, _run_words
from chartbank.simulate import PathBlock, draw_paths
from chartbank.windowed import RingBatch

FAMILY = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.05, 5.0))
PRIOR = GeometricPrior(0.02)
GRID = (0.5, 1.0, 2.0)


def bank_spec(variant=ChartVariant.SR, threshold=None):
    if threshold is None:
        threshold = threshold_for(0.05, PRIOR.rho, len(GRID))
    return BankSpec(
        family=FAMILY, prior=PRIOR, grid=GRID, log_thresholds=(threshold,), variant=variant
    )


def window_spec(threshold=6.0):
    fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))
    return WindowSpec(
        families=(fam, fam),
        prior=PRIOR,
        grids=((1.4, 1.8), (1.5, 2.2)),
        window_len=15,
        log_threshold=threshold,
    )


def runs_in_blocks(batch_size, *args, **kwargs):
    """``simulate_runs`` stepping ``batch_size`` runs a block, set through ``simulate.BATCH_SIZE``."""
    with mock.patch.object(simulate, "BATCH_SIZE", batch_size):
        return simulate_runs(*args, **kwargs)


class TestBatchReplaysPublicApi:
    def test_bank_batch_matches_stepped_bank(self):
        spec = bank_spec()
        horizon = 300
        runs = runs_in_blocks(16, spec, 1.0, n_runs=40, horizon=horizon, seed=21)
        for rid in range(40):
            t, x = sample_path(FAMILY, PRIOR, 1.0, horizon, [21, rid])
            bank = ChartBank(FAMILY, PRIOR, GRID, spec.log_thresholds[0], spec.variant)
            report = bank.run_to_stop(x)
            assert runs.change_point[rid] == t
            if report is None:
                assert runs.stop_time[rid] == 0
            else:
                assert runs.stop_time[rid] == report.stopped_at
                assert runs.firing_chart[rid] == report.firing_chart
            # derived fields recomputed from first principles
            if report is not None:
                assert runs.false_alarm[rid] == (report.stopped_at < t)
                assert runs.delay[rid] == max(report.stopped_at - t, 0)
            else:
                assert not runs.false_alarm[rid]
                assert runs.delay[rid] == max(horizon - t, 0)

    def test_window_batch_matches_stepped_engine(self):
        spec = window_spec()
        horizon = 250
        lam = (1.8, 2.2)
        runs = runs_in_blocks(9, spec, lam, n_runs=25, horizon=horizon, seed=33)
        for rid in range(25):
            t, block = sample_path_multi(list(spec.families), PRIOR, lam, horizon, [33, rid])
            engine = WindowEngine(
                list(spec.families), PRIOR, list(spec.grids), spec.window_len, spec.log_threshold
            )
            report = engine.run_to_stop(block)
            assert runs.change_point[rid] == t
            if report is None:
                assert runs.stop_time[rid] == 0
            else:
                assert runs.stop_time[rid] == report.stopped_at
                assert runs.firing_chart[rid] == report.firing_chart


# (family, grid, log threshold, window length) that every detector must refuse
SCALE_FAMILY = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(0.9, 3.5))
CENTERED_FAMILY = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-1.0, 3.0))
INVALID_DETECTORS = {
    "nan-threshold": (FAMILY, GRID, math.nan, 5),
    "unsorted-grid": (FAMILY, (1.0, 0.5), 3.0, 5),
    "zero-divergence-mean": (CENTERED_FAMILY, (0.0, 1.0), 3.0, 5),
    "zero-divergence-variance": (SCALE_FAMILY, (1.0, 2.0), 3.0, 5),
    "empty-grid": (FAMILY, (), 3.0, 5),
    "outside-admissible-set": (SCALE_FAMILY, (1.2, 9.0), 3.0, 5),
    "window-0": (SCALE_FAMILY, (1.2, 2.0), 3.0, 0),
}


@pytest.mark.parametrize("case", list(INVALID_DETECTORS))
def test_stepped_and_batch_detectors_reject_alike(case):
    family, grid, threshold, window_len = INVALID_DETECTORS[case]
    if window_len >= 1:  # a bank has no window
        with pytest.raises(ValueError):
            ChartBank(family, PRIOR, grid, threshold)
        with pytest.raises(ValueError):
            BankSpec(family=family, prior=PRIOR, grid=grid, log_thresholds=(threshold,))
    # a valid first source: the bad one must be caught wherever it sits
    families, grids = (FAMILY, family), (GRID, grid)
    with pytest.raises(ValueError):
        WindowEngine(families, PRIOR, grids, window_len, threshold)
    with pytest.raises(ValueError):
        WindowSpec(families=families, prior=PRIOR, grids=grids, window_len=window_len, log_threshold=threshold)


class TestPairingInvariants:
    def test_false_alarms_identical_across_true_parameters(self):
        # pre-change draws are bitwise shared, so which runs false-alarm
        # cannot depend on the simulated post-change parameter
        spec = bank_spec()
        a = simulate_runs(spec, 0.6, n_runs=400, horizon=250, seed=5)
        b = simulate_runs(spec, 2.4, n_runs=400, horizon=250, seed=5)
        assert np.array_equal(a.change_point, b.change_point)
        assert np.array_equal(a.false_alarm, b.false_alarm)
        fa = a.false_alarm
        assert fa.any()  # the comparison must actually exercise alarms
        assert np.array_equal(a.stop_time[fa], b.stop_time[fa])

    def test_stop_time_dominance_across_variants(self):
        # at a shared threshold the SR bank fires no later than MAX, and MAX
        # no later than SUM, on every single path
        thr = 5.0
        runs = {
            v: simulate_runs(bank_spec(v, thr), 1.0, n_runs=300, horizon=400, seed=8)
            for v in ChartVariant
        }
        as_inf = {
            v: np.where(r.stop_time > 0, r.stop_time, np.iinfo(np.int64).max)
            for v, r in runs.items()
        }
        assert np.all(as_inf[ChartVariant.SR] <= as_inf[ChartVariant.MAX])
        assert np.all(as_inf[ChartVariant.MAX] <= as_inf[ChartVariant.SUM])


# Low thresholds on a short horizon: some runs stop on slot 1, the rest at
# scattered slots, and some are censored, so the slot loop retires rows mid-batch.
SCATTER_RUNS = 60
SCATTER_SEED = 4


def scattered_cases():
    cases = [(bank_spec(v, 2.0), 1.0, 20) for v in ChartVariant]
    cases.append((window_spec(1.5), (1.8, 2.2), 40))
    return cases


def count_draws():
    """Patch that counts the path blocks drawn, each still drawn by ``draw_paths``."""
    return mock.patch.object(simulate, "draw_paths", wraps=simulate.draw_paths)


def draw(spec, lam, runs, horizon, seed):
    """The block ``simulate_runs`` draws for the given runs of one cell: one part, seeded by ``_run_words``."""
    return draw_paths(spec, lam, [(_run_words(seed, runs), horizon)])


def collect_chunks(block):
    """A block's rows [rows, sources, horizon] from slot 0 to its horizon, drawn chunk by chunk: it holds one."""
    rows = np.arange(block.change_points.size)
    xs, first = block.chunk()
    held = [xs.copy()]
    while first + xs.shape[-1] < block.horizon:
        block.draw_to(rows, first + xs.shape[-1] + 1)
        xs, first = block.chunk()
        held.append(xs.copy())
    return np.concatenate(held, axis=-1)


def assert_same_runs(a, b):
    for field in ("change_point", "stop_time", "firing_chart", "false_alarm", "delay"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestCompactionInvariance:
    @pytest.mark.parametrize("case", range(len(scattered_cases())))
    def test_reference_config_scatters_stops(self, case):
        spec, lam, horizon = scattered_cases()[case]
        stop = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED).stop_time
        assert (stop == 1).any()
        assert (stop == 0).any()
        assert np.unique(stop).size >= 10

    @settings(max_examples=30, deadline=None)
    @given(case=st.integers(0, len(scattered_cases()) - 1), batch_size=st.integers(1, SCATTER_RUNS))
    def test_batch_size_does_not_change_runs(self, case, batch_size):
        spec, lam, horizon = scattered_cases()[case]
        whole = runs_in_blocks(SCATTER_RUNS, spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        split = runs_in_blocks(batch_size, spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert_same_runs(whole, split)

    def test_shorter_bank_draw_is_a_prefix(self):
        # 120 fits in the first chunk, 200 does not: both blocks are drawn to
        # their ends here, chunk by chunk as the slot loop draws them, and then compared
        long_block = draw(bank_spec(), 1.0, range(3, 9), 300, [6, 1])
        long = collect_chunks(long_block)
        assert long.shape == (6, 1, 300)
        for short_horizon in (120, 200):
            short = draw(bank_spec(), 1.0, range(3, 9), short_horizon, [6, 1])
            assert np.array_equal(long[..., :short_horizon], collect_chunks(short))
            assert np.array_equal(long_block.change_points, short.change_points)

    def test_draw_to_stops_at_the_horizon(self):
        block = draw(bank_spec(), 1.0, range(6), 300, [6, 1])
        block.draw_to(np.arange(6), 1000)
        xs, first = block.chunk()
        assert (first, xs.shape) == (256, (6, 1, 44))

    @pytest.mark.parametrize("horizon", [1, 127, 128, 300])
    def test_bank_block_is_the_one_source_window_block(self, horizon):
        # a bank block's chunk is [rows, 1, width], its head the one-source window block's first
        # slots; drawn to its end, the bank block is the whole block a one-source window draws
        runs = range(3, 40)
        bank = draw(bank_spec(), 1.0, runs, horizon, [6, 2])
        window = WindowSpec(families=(FAMILY,), prior=PRIOR, grids=(GRID,), window_len=15, log_threshold=6.0)
        whole = draw(window, (1.0,), runs, horizon, [6, 2])
        assert np.array_equal(bank.change_points, whole.change_points)
        (head, first), (block, _) = bank.chunk(), whole.chunk()
        width = min(horizon, simulate.CHUNK_SLOTS)
        assert (first, head.shape, block.shape) == (0, (len(runs), 1, width), (len(runs), 1, horizon))
        assert head.tobytes() == block[..., :width].tobytes()
        assert collect_chunks(bank).tobytes() == block.tobytes()

    def test_path_block_validation(self):
        block = draw(bank_spec(), 1.0, range(5), 50, 0)
        with pytest.raises(ValueError, match="one observation row per change point"):
            PathBlock(block.change_points[:4], block.chunk()[0], 50)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16), block_runs=st.sampled_from([7, 30, simulate.BATCH_SIZE]))
    def test_shared_paths_match_per_template_estimates(self, seed, block_runs):
        # two grids give two horizons on one family; a second family gets its
        # own paths; small blocks make the sweep join several per cell
        wide = GaussianMeanShift(pre_mean=0.0, sigma=1.5, post_params=Interval(0.05, 5.0))
        templates = [
            BankTemplate("sr-3", FAMILY, PRIOR, GRID, ChartVariant.SR),
            BankTemplate("max-1", FAMILY, PRIOR, (2.0,), ChartVariant.MAX),
            BankTemplate("sum-3", FAMILY, PRIOR, GRID, ChartVariant.SUM),
            BankTemplate("sr-wide", wide, PRIOR, GRID, ChartVariant.SR),
        ]
        alphas = (0.2, 0.05)
        with mock.patch.object(simulate, "BATCH_SIZE", block_runs), count_draws() as draws:
            rows = add_vs_alpha_sweep(templates, 1.0, alphas, n_runs=80, seed=seed, censor_cap=0.05)
        assert len({r.horizon for r in rows[:3]}) == 2
        assert draws.call_count == 2 * -(-len(alphas) * 80 // block_runs)  # one group per family, every alpha in it
        for a_idx, alpha in enumerate(alphas):
            for t_idx, template in enumerate(templates):
                row = rows[a_idx * len(templates) + t_idx]
                horizon = default_horizon(alpha, PRIOR, best_drift(template, 1.0), 0.05)
                spec = BankSpec(
                    family=template.family,
                    prior=PRIOR,
                    grid=template.grid,
                    log_thresholds=(threshold_for(alpha, PRIOR.rho, len(template.grid)),),
                    variant=template.variant,
                )
                alone = estimate(spec, 1.0, 80, horizon, [seed, a_idx], censor_cap=0.05)
                assert row.horizon == horizon
                assert (row.add_hat, row.add_se, row.pfa_hat, row.pfa_se, row.censored, row.valid) == (
                    alone.add_hat,
                    alone.add_se,
                    alone.pfa_hat,
                    alone.pfa_se,
                    alone.censored,
                    alone.valid,
                )

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**16), block_runs=st.sampled_from([7, 30, simulate.BATCH_SIZE]))
    def test_window_templates_on_one_model_match_per_template_estimates(self, seed, block_runs):
        # two window lengths on one model and horizon, each its own group
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))
        grids = ((1.4, 1.8), (1.5, 2.2))
        templates = [WindowTemplate(f"w-{w}", (fam, fam), PRIOR, grids, w) for w in (5, 15)]
        lam, alphas, n_runs = (1.8, 2.2), (0.2, 0.05), 40
        with mock.patch.object(simulate, "BATCH_SIZE", block_runs), count_draws() as draws:
            rows = add_vs_alpha_sweep(templates, lam, alphas, n_runs=n_runs, seed=seed, censor_cap=0.05)
        assert draws.call_count == len(templates) * -(-len(alphas) * n_runs // block_runs)
        for a_idx, alpha in enumerate(alphas):
            for t_idx, template in enumerate(templates):
                row = rows[a_idx * len(templates) + t_idx]
                threshold = threshold_for(alpha, PRIOR.rho, 4)
                spec = WindowSpec(template.families, PRIOR, grids, template.window_len, threshold)
                alone = estimate(spec, lam, n_runs, row.horizon, [seed, a_idx], censor_cap=0.05)
                assert row.horizon == default_horizon(alpha, PRIOR, best_drift(template, lam), 0.05)
                assert row.horizon == rows[a_idx * len(templates)].horizon  # one model, one horizon
                assert (row.add_hat, row.add_se, row.pfa_hat, row.pfa_se, row.censored, row.valid) == (
                    alone.add_hat,
                    alone.add_se,
                    alone.pfa_hat,
                    alone.pfa_se,
                    alone.censored,
                    alone.valid,
                )


# chunk sizes from one slot to past the horizon, against whole-path draws
CHUNK_CASES = (1, 3, 64, 300, 1000)
CHUNK_RUNS = 60


def chunked_cases():
    # stops spread past several chunks of every size above, some censored
    cases = [(bank_spec(v, 5.0), 1.0, 300) for v in ChartVariant]
    cases.append((window_spec(3.0), (1.8, 2.2), 120))
    return cases


class TestChunkInvariance:
    def test_reference_config_stops_late(self):
        for spec, lam, horizon in chunked_cases()[:3]:
            stop = simulate_runs(spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED).stop_time
            assert stop.max() > 128  # past the default first chunk

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.integers(0, len(chunked_cases()) - 1),
        chunk=st.sampled_from(CHUNK_CASES),
        batch_size=st.sampled_from([1, 7, 32, CHUNK_RUNS]),
    )
    def test_chunk_size_does_not_change_runs(self, case, chunk, batch_size):
        spec, lam, horizon = chunked_cases()[case]
        with mock.patch.object(simulate, "CHUNK_SLOTS", horizon):
            whole = runs_in_blocks(CHUNK_RUNS, spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED)
        with mock.patch.object(simulate, "CHUNK_SLOTS", chunk):
            split = runs_in_blocks(batch_size, spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED)
        assert_same_runs(whole, split)

    @settings(max_examples=8, deadline=None)
    @given(chunk=st.sampled_from(CHUNK_CASES + (10_000,)), block_runs=st.sampled_from([7, 30, simulate.BATCH_SIZE]))
    def test_chunk_size_does_not_change_sweep_rows(self, chunk, block_runs):
        # sr and max share blocks and read them to different depths
        templates = [
            BankTemplate("sr-3", FAMILY, PRIOR, GRID, ChartVariant.SR),
            BankTemplate("max-1", FAMILY, PRIOR, (2.0,), ChartVariant.MAX),
            BankTemplate("sum-3", FAMILY, PRIOR, GRID, ChartVariant.SUM),
        ]
        args = (templates, 1.0, (0.2, 0.01))
        with mock.patch.object(simulate, "CHUNK_SLOTS", 10_000):
            whole = add_vs_alpha_sweep(*args, n_runs=80, seed=2, censor_cap=0.05)
        with mock.patch.object(simulate, "CHUNK_SLOTS", chunk), mock.patch.object(simulate, "BATCH_SIZE", block_runs):
            with count_draws() as draws:
                split = add_vs_alpha_sweep(*args, n_runs=80, seed=2, censor_cap=0.05)
        assert split == whole
        assert draws.call_count == -(-2 * 80 // block_runs)  # one group, both alphas in it

    def test_undrawn_slots_are_never_read(self):
        # after every draw, the rows left out of the held chunk turn NaN; a NaN
        # read by a running row would stay in its statistic and censor the run.
        # A stopped row the batch still holds reads the poison and never reports
        draw_to = PathBlock.draw_to

        def draw_then_poison(block, rows, upto):
            draw_to(block, rows, upto)
            left_out = np.ones(block.change_points.size, dtype=bool)
            left_out[rows] = False
            block.chunk()[0][left_out] = np.nan

        step = BankBatch.step
        stale = []

        def read_drawn(batch, x):
            assert not np.isnan(x[batch.running]).any()
            stale.append(np.isnan(x).any())
            return step(batch, x)

        spec, lam, horizon = chunked_cases()[1]
        with mock.patch.object(simulate, "CHUNK_SLOTS", 16):
            block = draw(spec, lam, range(CHUNK_RUNS), horizon, SCATTER_SEED)
            with (
                mock.patch.object(PathBlock, "draw_to", draw_then_poison),
                mock.patch.object(BankBatch, "step", autospec=True, side_effect=read_drawn) as steps,
            ):
                stop, firing = simulate._run_batch((spec,), block, [simulate._log_thresholds(spec)])
        assert steps.call_count > 16
        assert (stop > 16).sum() > CHUNK_RUNS // 2
        assert any(stale)  # the poison was laid, and held stopped rows read it
        with mock.patch.object(simulate, "CHUNK_SLOTS", horizon):
            whole = simulate_runs(spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED)
        assert np.array_equal(whole.stop_time, stop[0]) and np.array_equal(whole.firing_chart, firing[0])

    def test_slot_loop_draws_the_running_rows_only(self):
        # with the default COMPACT_BELOW the batch holds stopped rows, and no chunk is drawn for them
        events = []
        draw_to, step = PathBlock.draw_to, BankBatch.step

        def record_draw(block, rows, upto):
            events.append(("draw", rows.copy()))
            return draw_to(block, rows, upto)

        def record_step(batch, x):
            events.append(("step", batch.rows[batch.running], batch.rows.size))
            return step(batch, x)

        spec, lam, horizon = chunked_cases()[1]
        with (
            mock.patch.object(simulate, "CHUNK_SLOTS", 16),
            mock.patch.object(PathBlock, "draw_to", record_draw),
            mock.patch.object(BankBatch, "step", record_step),
        ):
            simulate_runs(spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED)
        draws = [(event[1], after) for event, after in zip(events, events[1:]) if event[0] == "draw"]
        assert len(draws) > 4
        for rows, (_, running, _) in draws:  # the slot's step reads the rows just drawn
            assert np.array_equal(rows, running)
        assert any(held > running.size for _, (_, running, held) in draws)

    def test_draw_to_refuses_a_row_left_out_of_the_last_chunk(self):
        rows, horizon = np.arange(6), 600
        block = draw(bank_spec(), 1.0, range(6), horizon, [6, 1])
        block.draw_to(rows[::2], 129)  # rows 1, 3 and 5 fall behind
        with pytest.raises(ValueError, match="left out"):
            block.draw_to(rows, 257)
        block.draw_to(rows[::4], 257)  # fewer rows may go on, each continuing its own draw
        xs, first = block.chunk()
        for row in rows[::4]:
            assert xs[row, 0].tobytes() == sample_path(FAMILY, PRIOR, 1.0, horizon, [6, 1, row])[1][first : first + 128].tobytes()
        with pytest.raises(ValueError, match="left out"):
            block.draw_to(rows[::2], 385)  # row 2 was left out of the chunk just drawn

    def test_bank_memory_does_not_grow_with_the_horizon(self):
        # a censored bank steps every row to its horizon; at 8x the horizon it still holds one chunk
        spec, n_runs, horizon = bank_spec(threshold=math.inf), 200, 300
        simulate_runs(spec, 1.0, n_runs, horizon, 3)  # first-call allocations out of the way
        peaks = []
        for h in (horizon, 8 * horizon):
            tracemalloc.start()
            try:
                simulate_runs(spec, 1.0, n_runs, h, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < n_runs * simulate.CHUNK_SLOTS * 8


@contextlib.contextmanager
def two_processes(split_rows=1):
    """Split every ``simulate_runs`` call of at least ``split_rows`` rows; yields the pids forked in this process."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with mock.patch.object(simulate, "SPLIT_ROWS", split_rows), mock.patch.object(os, "fork", counted):
        yield forked


@contextlib.contextmanager
def rows_stepped_here():
    """Spy on ``_run_batch``; yields the sizes of the blocks this process, not a forked child, steps."""
    parent, real, sizes = os.getpid(), simulate._run_batch, []

    def run_batch(specs, paths, thresholds):
        if os.getpid() == parent:
            sizes.append(paths.change_points.size)
        return real(specs, paths, thresholds)

    with mock.patch.object(simulate, "_run_batch", run_batch):
        yield sizes


def run_batch_failing(fail, in_child=True):
    """A ``_run_batch`` that first calls ``fail()`` in a forked child only, or in this process only."""
    parent, real = os.getpid(), simulate._run_batch

    def run_batch(*args):
        if (os.getpid() != parent) == in_child:
            fail()
        return real(*args)

    return run_batch


class SplitError(Exception):
    """An error that pickle cannot rebuild: ``extra`` is not among its args."""

    def __init__(self, message, extra):
        super().__init__(message)
        self.extra = extra


class TestTwoProcesses:
    """A call split between this process and one forked child returns, or raises, what one process does.

    Where the split succeeds, this process steps only its own half of the
    rows: a child that always failed would still give bitwise runs.
    """

    @pytest.fixture(autouse=True)
    def no_descriptor_left(self):
        """Fail a test that leaves a descriptor open, such as a pipe end; no check where /proc is absent."""
        fds = "/proc/self/fd"
        before = set(os.listdir(fds)) if os.path.isdir(fds) else None
        yield
        if before is not None:
            assert set(os.listdir(fds)) == before

    def grouped_cells(self):
        specs = [(bank_spec(ChartVariant.SR, t), bank_spec(ChartVariant.MAX, t)) for t in (2.0, 3.5)]
        return specs[0], [(specs[0], 20), (specs[1], 35)]

    @pytest.mark.parametrize("batch_size", [7, simulate.BATCH_SIZE])
    @pytest.mark.parametrize("case", range(len(scattered_cases())))
    def test_one_spec(self, case, batch_size):
        spec, lam, horizon = scattered_cases()[case]
        one = runs_in_blocks(batch_size, spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        with two_processes(SCATTER_RUNS) as forked, rows_stepped_here() as here:  # exactly SPLIT_ROWS rows split
            two = runs_in_blocks(batch_size, spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert len(forked) == 1 and sum(here) == (SCATTER_RUNS + 1) // 2
        assert_same_runs(one, two)

    @pytest.mark.parametrize("batch_size", [7, simulate.BATCH_SIZE])
    def test_grouped_banks_over_cells(self, batch_size):
        spec, cells = self.grouped_cells()
        one = runs_in_blocks(batch_size, spec, 1.0, 50, 35, [3], cells=cells)
        with two_processes() as forked, rows_stepped_here() as here:
            two = runs_in_blocks(batch_size, spec, 1.0, 50, 35, [3], cells=cells)
        assert len(forked) == 1 and sum(here) == 50
        assert two.stop_time.shape == (2, 2, 50)
        assert_same_runs(one, two)

    @pytest.mark.parametrize("batch_size", [7, simulate.BATCH_SIZE])
    def test_window_over_cells(self, batch_size):
        cells = [(window_spec(t), h) for t, h in ((1.5, 40), (3.0, 30), (4.5, 40))]
        one = runs_in_blocks(batch_size, cells[0][0], (1.8, 2.2), 30, 40, [5], cells=cells)
        with two_processes() as forked, rows_stepped_here() as here:
            two = runs_in_blocks(batch_size, cells[0][0], (1.8, 2.2), 30, 40, [5], cells=cells)
        assert len(forked) == 1 and sum(here) == 45
        assert_same_runs(one, two)

    def test_a_call_below_the_threshold_stays_in_one_process(self):
        spec, lam, horizon = scattered_cases()[0]
        with two_processes(SCATTER_RUNS + 1) as forked:
            simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert forked == []

    def test_a_failed_fork_steps_every_run_here(self):
        spec, cells = self.grouped_cells()
        one = runs_in_blocks(7, spec, 1.0, 50, 35, [3], cells=cells)
        with two_processes(), mock.patch.object(os, "fork", side_effect=BlockingIOError("no process to spare")):
            two = runs_in_blocks(7, spec, 1.0, 50, 35, [3], cells=cells)
        assert_same_runs(one, two)

    @pytest.mark.parametrize("failure", ["exit", "raise", "short"])
    def test_a_child_that_fails_has_its_runs_stepped_here(self, failure):
        spec, lam, horizon = scattered_cases()[0]
        one = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        answer = simulate._Child.answer
        fails = {
            "exit": mock.patch.object(simulate, "_run_batch", run_batch_failing(lambda: os._exit(3))),
            "raise": mock.patch.object(
                simulate, "_run_batch", run_batch_failing(mock.Mock(side_effect=SplitError("child only", extra=1)))
            ),
            "short": mock.patch.object(simulate._Child, "answer", lambda child: answer(child)[:-8]),
        }
        with two_processes() as forked, fails[failure], rows_stepped_here() as here:
            two = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert len(forked) == 1 and sum(here) == SCATTER_RUNS
        assert_same_runs(one, two)

    @staticmethod
    def raise_in_a_childs_run(error, error_type):
        """Make a run at an odd rank of the change-time order, which only the child
        steps, raise ``error(text)``; check that the split call raises it here with
        its own type and text, and return it."""
        spec, lam, horizon = scattered_cases()[0]
        ts = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED).change_point
        ranked = np.sort(ts)
        own = [t for t in ranked[1::2] if (ts == t).sum() == 1]  # a lone change time has one rank
        assert own
        real = simulate._run_batch

        def run_batch(specs, paths, thresholds):
            if (paths.change_points == own[0]).any():
                raise error(f"the run that changes at {own[0]}")
            return real(specs, paths, thresholds)

        with two_processes() as forked, mock.patch.object(simulate, "_run_batch", run_batch):
            with pytest.raises(error_type, match=rf"^the run that changes at {own[0]}$") as raised:
                simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert len(forked) == 1
        assert type(raised.value) is error_type
        return raised.value

    def test_a_childs_error_is_raised_here(self):
        self.raise_in_a_childs_run(ValueError, ValueError)

    def test_an_error_that_cannot_be_rebuilt_is_raised_by_its_text(self):
        # the caller steps the child's runs again, so the error keeps its own type
        # and text, though pickle cannot rebuild it
        error = self.raise_in_a_childs_run(lambda text: SplitError(text, extra=1), SplitError)
        assert error.extra == 1

    def test_an_error_here_kills_and_reaps_the_child(self):
        spec, lam, horizon = scattered_cases()[0]
        run_batch = run_batch_failing(mock.Mock(side_effect=KeyError("parent")), in_child=False)
        with two_processes() as forked, mock.patch.object(simulate, "_run_batch", run_batch), \
                mock.patch.object(os, "kill", wraps=os.kill) as kill:
            with pytest.raises(KeyError, match="parent"):
                simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED)
        assert len(forked) == 1
        kill.assert_called_once_with(forked[0], signal.SIGKILL)
        with pytest.raises(ChildProcessError):
            os.waitpid(forked[0], os.WNOHANG)

    def test_the_fig4_sweep_draws_its_first_path_here_before_it_forks(self, tmp_path):
        # a setup probe reads the first sampler call's return in this process
        # and stops the sweep there: no child may exist by then
        forks_at_return, real = [], simulate.sample_path_multi

        def sampler(*args, **kwargs):
            out = real(*args, **kwargs)
            forks_at_return.append(len(forked))
            return out

        with two_processes(simulate.SPLIT_ROWS) as forked, mock.patch.object(simulate, "sample_path_multi", sampler):
            assert cli.main(["preset", "fig4", "--out", str(tmp_path), "--seed", "0", "--runs", "2000"]) == 0
        assert forks_at_return[0] == 0
        assert len(forked) == 1  # 4 alphas x 2000 runs: the preset's one call splits


# Sources a pruned-window case draws from: family, candidates, true parameter.
WINDOW_SOURCES = {
    "variance": (GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5)), (1.2, 1.4, 1.7, 2.0, 2.4, 3.0), 2.0),
    "mean": (GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.1, 3.0)), (0.3, 0.6, 1.0, 1.5, 2.5), 1.0),
}
PRUNED_HORIZON = 30
PRUNED_RUNS = 24


@st.composite
def window_sources(draw):
    """One to three sources with pairwise unequal grid sizes."""
    n_sources = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=n_sources, max_size=n_sources, unique=True))
    families, grids, lams = [], [], []
    for size in sizes:
        family, candidates, lam = WINDOW_SOURCES[draw(st.sampled_from(sorted(WINDOW_SOURCES)))]
        grid = draw(st.lists(st.sampled_from(candidates), min_size=size, max_size=size, unique=True))
        families.append(family)
        grids.append(tuple(sorted(grid)))
        lams.append(lam)
    return tuple(families), tuple(grids), tuple(lams)


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def exact_statistics(spec, lam, n_runs, horizon, seed):
    """Every run's exact joint statistic at every slot, from a ring batch that never stops a row."""
    xs = draw(spec, lam, range(n_runs), horizon, seed).chunk()[0]  # a window block is whole
    rings = RingBatch(spec.families, spec.prior, spec.grids, spec.window_len, math.inf, np.arange(n_runs))
    stats = []
    for s in range(horizon):
        rings.step(xs[:, :, s])
        stats.append(rings.total.max(axis=1))
    return np.stack(stats, axis=1)


def eager_at(twin, rows, best):
    """Candidates' sums [rows, candidates] of an unbounded batch's rows at their starts' positions ``best``."""
    return np.concatenate([table[rows, :, twin.slots[best]] for table in twin.tables], axis=1)


class TestPrunedWindowKernel:
    """The slot loop's ring batch evaluates exact maxima only for rows whose bound reaches the threshold."""

    @settings(max_examples=50, deadline=None)
    @given(
        sources=window_sources(),
        window_len=st.integers(1, PRUNED_HORIZON + 10),
        rho=st.sampled_from([1e-4, 3e-4, 0.4, 0.5]),
        level=st.sampled_from([-math.inf, math.inf, 0.9, 1.0]),
        margin=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_exact_stepped_engine(self, sources, window_len, rho, level, margin, seed):
        families, grids, lam = sources
        prior = GeometricPrior(rho)
        threshold = level
        if math.isfinite(level):
            # a quantile of the statistic itself, or a little above it: rows come
            # near it, some reach it exactly, and above the maximum bounds reach
            # it where no run crosses
            probe = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=0.0)
            stats = exact_statistics(probe, lam, PRUNED_RUNS, PRUNED_HORIZON, seed)
            threshold = float(np.quantile(stats, level)) + margin
        spec = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=threshold)
        runs = {b: runs_in_blocks(b, spec, lam, PRUNED_RUNS, PRUNED_HORIZON, seed) for b in (1, 7, 60)}
        assert_same_runs(runs[1], runs[7])
        assert_same_runs(runs[1], runs[60])
        for rid in range(PRUNED_RUNS):
            _, x = sample_path_multi(list(families), prior, lam, PRUNED_HORIZON, [seed, rid])
            report = WindowEngine(list(families), prior, list(grids), window_len, threshold).run_to_stop(x)
            expected = (0, -1) if report is None else (report.stopped_at, report.firing_chart)
            assert (runs[1].stop_time[rid], runs[1].firing_chart[rid]) == expected

    def test_reference_config_prunes_and_tightens_rows_that_do_not_cross(self):
        spec, lam, horizon = window_spec(3.0), (1.8, 2.2), 120
        tightened = []
        tighten = RingBatch.tighten

        def counted(rings, rows):
            replay = tighten(rings, rows)
            tightened.append((rows.size, int((replay[1].max(axis=1) >= spec.log_threshold).sum())))
            return replay

        with mock.patch.object(RingBatch, "tighten", counted):
            runs = simulate_runs(spec, lam, CHUNK_RUNS, horizon, SCATTER_SEED)
        evaluated = sum(n for n, _ in tightened)
        crossed = sum(c for _, c in tightened)
        row_steps = int(np.where(runs.stop_time > 0, runs.stop_time, horizon).sum())
        assert crossed == (runs.stop_time > 0).sum()
        assert evaluated > crossed  # some suspects did not cross
        assert evaluated < row_steps // 2  # most running rows skip the exact maxima

    @settings(max_examples=25, deadline=None)
    @given(
        sources=window_sources(),
        window_len=st.integers(1, 12),
        rows=st.integers(1, 9),
        magnitude=st.sampled_from([1.0, 1e3, 1e6]),
        seed=st.integers(0, 2**16),
    )
    def test_bound_never_below_exact_maxima(self, sources, window_len, rows, magnitude, seed):
        # an unbounded twin stepped on the same inputs holds the exact tables; at a
        # threshold of -inf every in-window start of a tightened row is replayed.
        # Observation scales up to 1e6 and at least five blocks of width slots
        # make the rounding allowance and the per-block rebase matter.
        families, grids, _ = sources
        rng = np.random.default_rng(seed)
        args = (families, GeometricPrior(0.05), grids, window_len, -math.inf)
        block = np.zeros((rows, len(families), 5 * (window_len + 1) + 5))  # the observations the batch steps with
        rings = RingBatch(*args, np.arange(rows), block=block)
        twin = RingBatch(*args, np.arange(rows))

        def assert_bounded():
            exact = twin.joint()
            every = np.arange(rings.rows.size)
            starts = rings.start_bounds(every)
            assert starts.shape == exact.shape
            assert (starts >= exact).all()
            assert same_bits(rings.bound(), starts.max(axis=1))
            assert (rings.bound() >= exact.max(axis=1)).all()

        for _ in range(5 * (window_len + 1) + 5):
            n_rows = rings.rows.size
            scale = rng.uniform(0.5, 3.0) * magnitude ** rng.random()
            x = rng.standard_normal((n_rows, len(families))) * scale
            block[rings.rows, :, rings.n] = x
            rings.advance(x)
            twin.advance(x)
            assert_bounded()
            suspect = np.flatnonzero(rng.random(n_rows) < 0.3)
            first, exact, _ = rings.tighten(suspect)
            assert first == (0 if suspect.size else rings.starts.size)
            assert same_bits(exact, twin.joint()[suspect][:, first:])
            if n_rows > 1 and rng.random() < 0.3:
                keep = np.flatnonzero(rng.random(n_rows) < 0.7)
                rings.compact(keep)
                twin.compact(keep)
                assert_bounded()

    @settings(max_examples=60, deadline=None)
    @given(
        window_len=st.integers(1, 40),
        data=st.data(),
        rows=st.integers(1, 6),
        threshold=st.sampled_from([-math.inf, 0.0, 1.0, 3.0, math.inf]),
        seed=st.integers(0, 2**16),
    )
    def test_replayed_sums_are_the_eager_tables_bitwise(self, window_len, data, rows, threshold, seed):
        # horizons on both sides of the ring width; the mean source is sometimes fed
        # the midpoint of one of its candidates, whose llr is then 0.0 or -0.0, and
        # block row 0 always the midpoint of -1.0: that candidate's replayed spans are
        # -0.0 throughout and must sum to +0.0, as the eager table's 0.0 + -0.0 does
        horizon = data.draw(st.integers(1, 2 * (window_len + 1)), label="horizon")
        mean = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-3.0, 3.0))
        families = (mean, WINDOW_SOURCES["variance"][0])
        grids = ((-1.0, 0.5, 2.0), (1.4, 2.0))
        rng = np.random.default_rng(seed)
        args = (families, GeometricPrior(0.05), grids, window_len, threshold)
        block = np.zeros((rows, len(families), horizon))  # the observations the batch steps with
        rings = RingBatch(*args, np.arange(rows), block=block)
        twin = RingBatch(*args, np.arange(rows))
        edges = [0, 3, 5]
        for _ in range(horizon):
            n_rows = rings.rows.size
            x = rng.standard_normal((n_rows, 2)) * 2.0
            mid = rng.random(n_rows) < 0.4
            x[mid, 0] = rng.choice(grids[0], int(mid.sum())) / 2.0
            x[rings.rows == 0, 0] = -0.5
            block[rings.rows, :, rings.n] = x
            rings.advance(x)
            twin.advance(x)
            exact = twin.joint()
            suspect = np.flatnonzero(rng.random(n_rows) < 0.5)
            first, total, sums = rings.tighten(suspect)
            assert sums.shape[:2] == (rings.starts.size - first, suspect.size)
            assert np.isfinite(total).all()
            assert same_bits(total, exact[suspect][:, first:])
            assert (exact[suspect][:, :first] < threshold).all()
            for l, table in enumerate(twin.tables):
                eager = table[suspect][:, :, rings.slots[first:]].transpose(2, 0, 1)
                assert same_bits(sums[..., edges[l] : edges[l + 1]], eager)
            crossed = np.flatnonzero(total.max(axis=1, initial=-np.inf) >= threshold)
            if crossed.size:
                best = np.argmax(total[crossed], axis=1)
                want = np.argmax(exact[suspect[crossed]], axis=1)
                assert np.array_equal(first + best, want)
                got = rings.decode(sums[best, crossed])[1]
                assert np.array_equal(got, twin.decode(eager_at(twin, suspect[crossed], want))[1])
            if n_rows > 1 and rng.random() < 0.2:
                keep = np.flatnonzero(rng.random(n_rows) < 0.7)
                if keep.size:
                    rings.compact(keep)
                    twin.compact(keep)

    @settings(max_examples=30, deadline=None)
    @given(
        window_len=st.integers(1, 12),
        rows=st.integers(1, 9),
        threshold=st.sampled_from([-math.inf, 15.0, 25.0, 40.0, math.inf]),
        seed=st.integers(0, 2**16),
    )
    def test_runs_of_like_sources_match_the_unbounded_twin(self, window_len, rows, threshold, seed):
        # two equal variance sources, a mean source, a variance source with a larger grid, then
        # two variance sources with one grid size that differ only in pre_sigma: the bounded
        # batch makes one llr call per run of like sources, five runs here
        variance = WINDOW_SOURCES["variance"][0]
        wider = GaussianVarianceShift(pre_sigma=1.3, post_params=variance.post_params)
        families = (variance, variance, WINDOW_SOURCES["mean"][0], variance, variance, wider)
        grids = ((1.4, 2.0), (1.2, 2.4), (0.3, 1.0, 2.5), (1.2, 1.7, 2.4), (1.4, 2.0), (1.4, 2.0))
        rng = np.random.default_rng(seed)
        args = (families, GeometricPrior(0.05), grids, window_len, threshold)
        block = np.zeros((rows, len(families), 3 * (window_len + 1) + 5))  # the observations the batch steps with
        rings = RingBatch(*args, np.arange(rows), block=block)
        twin = RingBatch(*args, np.arange(rows))
        assert [(lo, hi) for _, lo, hi, _ in rings.source_runs] == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
        edges = np.cumsum([0] + [len(grid) for grid in grids])
        scale, shift = np.array([2.0, 2.0, 1.0, 2.0, 1.0, 2.4]), np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        for _ in range(3 * (window_len + 1) + 5):
            n_rows = rings.rows.size
            x = rng.standard_normal((n_rows, len(families))) * scale + shift
            block[rings.rows, :, rings.n] = x
            got, want = rings.step(x), twin.step(x)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))  # stop slots and firing charts
            exact = twin.total
            suspect = np.flatnonzero(rng.random(n_rows) < 0.5)
            first, total, sums = rings.tighten(suspect)
            assert same_bits(total, exact[suspect][:, first:])
            assert (exact[suspect][:, :first] < threshold).all()
            for l, table in enumerate(twin.tables):
                eager = table[suspect][:, :, rings.slots[first:]].transpose(2, 0, 1)
                assert same_bits(sums[..., edges[l] : edges[l + 1]], eager)
            hit = np.flatnonzero(total.max(axis=1, initial=-np.inf) >= threshold)
            crossed = suspect[hit]
            if crossed.size:
                best = np.argmax(total[hit], axis=1)
                theirs_best = np.argmax(exact[crossed], axis=1)
                assert np.array_equal(first + best, theirs_best)
                ours = rings.decode(sums[best, hit])
                theirs = twin.decode(eager_at(twin, crossed, theirs_best))
                assert all(np.array_equal(a, b) for a, b in zip(ours[0], theirs[0]))
                assert np.array_equal(ours[1], theirs[1])
                for pick, table in zip(ours[0], twin.tables):  # each source's own lowest best candidate
                    assert np.array_equal(pick, np.argmax(table[crossed, :, twin.slots[theirs_best]], axis=1))
            rings.retire(got[3])
            twin.retire(want[3])
            if rings.rows.size > 1 and rng.random() < 0.3:
                keep = np.flatnonzero(rng.random(rings.rows.size) < 0.7)
                if keep.size:
                    rings.compact(keep)
                    twin.compact(keep)
            assert np.array_equal(rings.rows, twin.rows) and np.array_equal(rings.running, twin.running)

    @settings(max_examples=40, deadline=None)
    @given(
        sources=window_sources(),
        window_len=st.integers(1, 40),
        data=st.data(),
        rho=st.sampled_from([1e-4, 0.05, 0.5]),
        level=st.sampled_from([0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_window_wider_than_the_path(self, sources, window_len, data, rho, level, seed):
        # horizons up to the ring width and just past it: the loop's bounded rings
        # leave unstarted columns alone on every slot but the last one or two
        families, grids, lam = sources
        horizon = data.draw(st.integers(1, window_len + 2), label="horizon")
        prior = GeometricPrior(rho)
        probe = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=0.0)
        threshold = float(np.quantile(exact_statistics(probe, lam, PRUNED_RUNS, horizon, seed), level))
        spec = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=threshold)
        runs = runs_in_blocks(7, spec, lam, PRUNED_RUNS, horizon, seed)
        for rid in range(PRUNED_RUNS):
            _, x = sample_path_multi(list(families), prior, lam, horizon, [seed, rid])
            report = WindowEngine(list(families), prior, list(grids), window_len, threshold).run_to_stop(x)
            expected = (0, -1) if report is None else (report.stopped_at, report.firing_chart)
            assert (runs.stop_time[rid], runs.firing_chart[rid]) == expected


# Per-run seeds of a block property: one element or a base list, across 32-bit words
BLOCK_SEEDS = st.one_of(
    st.integers(0, 2**70),
    st.lists(st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64]), st.integers(0, 2**40)), min_size=1, max_size=2),
)


def per_run_seed(seed, run):
    return ([seed] if isinstance(seed, (int, np.integer)) else list(seed)) + [run]


class TestBlockDraws:
    """Every row of a draw_paths block is bitwise the per-run draw seeded with seed + [run]."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=BLOCK_SEEDS,
        lo=st.one_of(st.integers(0, 3000), st.just(simulate.BATCH_SIZE)),
        n_runs=st.integers(1, 8),
        horizon=st.sampled_from([1, 5, simulate.CHUNK_SLOTS - 1, simulate.CHUNK_SLOTS, simulate.CHUNK_SLOTS + 1, 300]),
        rho=st.sampled_from([1e-4, 0.02, 0.5]),
        lam=st.floats(0.05, 5.0),
    )
    def test_bank_rows_are_per_run_draws(self, seed, lo, n_runs, horizon, rho, lam):
        prior = GeometricPrior(rho)
        spec = BankSpec(family=FAMILY, prior=prior, grid=GRID, log_thresholds=(6.0,))
        runs = range(lo, lo + n_runs)
        block = draw(spec, lam, runs, horizon, seed)
        xs = collect_chunks(block)
        for j, run in enumerate(runs):
            t, x = sample_path(FAMILY, prior, lam, horizon, per_run_seed(seed, run))
            assert block.change_points[j] == t
            assert xs[j, 0].tobytes() == x.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        sources=window_sources(),
        seed=BLOCK_SEEDS,
        lo=st.integers(0, 3000),
        n_runs=st.integers(1, 8),
        horizon=st.integers(1, 60),
        rho=st.sampled_from([1e-4, 0.05, 0.5]),
        # a second part on its own seed and horizon, as a batch of several cells holds
        second=st.one_of(st.none(), st.tuples(st.integers(0, 3000), st.integers(1, 4), st.integers(1, 60))),
    )
    def test_window_rows_are_per_run_draws(self, sources, seed, lo, n_runs, horizon, rho, second):
        families, grids, lams = sources
        prior = GeometricPrior(rho)
        spec = WindowSpec(families=families, prior=prior, grids=grids, window_len=5, log_threshold=6.0)
        parts = [(range(lo, lo + n_runs), horizon, seed)]
        if second is not None:
            lo2, n2, horizon2 = second
            parts.append((np.arange(lo2, lo2 + n2, dtype=np.int64), horizon2, per_run_seed(seed, 1)))
        block = draw_paths(spec, lams, [(_run_words(part_seed, runs), h) for runs, h, part_seed in parts])
        xs, first = block.chunk()
        width = max(h for _, h, _ in parts)
        assert (first, xs.shape) == (0, (sum(len(r) for r, _, _ in parts), len(families), width))
        j = 0
        for runs, h, part_seed in parts:
            for run in runs:
                t, x = sample_path_multi(list(families), prior, lams, h, per_run_seed(part_seed, int(run)))
                assert block.change_points[j] == t
                assert xs[j, :, :h].tobytes() == x.tobytes()
                assert (xs[j, :, h:] == 0.0).all()
                j += 1

    @pytest.mark.parametrize("seed", [[0.9, 1], 0.9, True, [True, 1], -1, [0, -1], "7"], ids=repr)
    def test_refuses_non_integer_seed_elements(self, seed):
        # a float element is refused, never truncated to an integer seed
        with pytest.raises(ValueError, match="seed elements must be non-negative integers"):
            simulate_runs(bank_spec(), 1.0, 5, 20, seed)
        with pytest.raises(ValueError, match="seed elements must be non-negative integers"):
            simulate_runs(window_spec(), (1.8, 2.2), 3, 20, seed)

    def test_refuses_an_empty_seed(self):
        # every entry point refuses an empty seed, as sample_path does; none draws on default_rng([run])
        spec = bank_spec()
        with pytest.raises(ValueError, match="seed must hold at least one integer"):
            simulate_runs(spec, 1.0, 3, 5, seed=[])
        with pytest.raises(ValueError, match="seed must hold at least one integer"):
            simulate_runs(spec, 1.0, 3, 5, seed=[], cells=[(spec, 5)])
        with pytest.raises(ValueError, match="seed must hold at least one integer"):
            simulate_runs(window_spec(), (1.8, 2.2), 3, 20, [])
        with pytest.raises(ValueError, match="seed must hold at least one integer"):
            sample_path_multi(list(window_spec().families), PRIOR, (1.8, 2.2), 20, [])

    def test_takes_multi_word_seeds(self):
        for seed in (2**64, [2**64, 1], np.int64(3)):
            runs = simulate_runs(bank_spec(), 1.0, 4, 50, seed)
            for run in range(4):
                t, _ = sample_path(FAMILY, PRIOR, 1.0, 50, per_run_seed(seed, run))
                assert runs.change_point[run] == t


# A scale family whose every post-change draw of |z| > 1.8 overflows to inf at lam 1e308; its
# candidate 2.0 has a finite divergence, so specs on it build
HUGE = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.5, 1e308))


class TestFiniteObservations:
    """Every drawn observation passes one finiteness check, in ``_map_std``, whoever draws it.

    numpy's overflow is silenced: the test suite makes chartbank RuntimeWarnings errors, and
    the refusal is the point here."""

    def test_single_run_draws_refuse_an_infinite_observation(self):
        with np.errstate(over="ignore"):
            for draw_one in (
                lambda: sample_path(HUGE, PRIOR, 1e308, 50, seed=3),
                lambda: sample_path_multi((FAMILY, HUGE), PRIOR, (1.0, 1e308), 50, seed=3),
            ):
                with pytest.raises(ValueError, match="x must be finite"):
                    draw_one()

    def test_simulate_runs_refuses_an_infinite_observation(self):
        with np.errstate(over="ignore"):
            bank = BankSpec(HUGE, PRIOR, (2.0,), (6.0,))
            window = WindowSpec((FAMILY, HUGE), PRIOR, (GRID, (2.0,)), 5, 6.0)
            for spec, lam in ((bank, 1e308), (window, (1.0, 1e308))):
                with pytest.raises(ValueError, match="x must be finite"):
                    simulate_runs(spec, lam, 20, 200, 3)

    def test_a_later_chunk_refuses_an_infinite_observation(self):
        # runs whose change falls past the head: the head is finite, and the next chunk is not
        seed, horizon = 5, 400
        change = PRIOR._from_uniform(_first_uniforms(_run_words(seed, range(200))))
        runs = np.flatnonzero((change > simulate.CHUNK_SLOTS + 1) & (change < horizon - 50))[:4]
        assert runs.size == 4
        with np.errstate(over="ignore"):
            block = draw(BankSpec(HUGE, PRIOR, (2.0,), (6.0,)), 1e308, runs, horizon, seed)
            assert np.isfinite(block.chunk()[0]).all()
            with pytest.raises(ValueError, match="x must be finite"):
                block.draw_to(np.arange(runs.size), horizon)


class TestNonFiniteDivergence:
    """A candidate whose divergence from the pre-change density is NaN or inf is refused by every detector."""

    def test_every_detector_refuses_a_nan_divergence(self):
        family = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1e307, 1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(family.kl_post_vs_pre(5e307))  # inf - inf
        for build in (
            lambda: BankSpec(family, PRIOR, (5e307,), (6.0,)),
            lambda: ChartBank(family, PRIOR, (5e307,), 6.0),
            lambda: WindowSpec((FAMILY, family), PRIOR, (GRID, (5e307,)), 5, 6.0),
            lambda: WindowEngine((FAMILY, family), PRIOR, (GRID, (5e307,)), 5, 6.0),
        ):
            with pytest.raises(ValueError, match=r"candidates \[5e\+307\] have a non-finite divergence"):
                build()

    def test_an_infinite_divergence_is_refused(self):
        family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.5, 1e300))
        with pytest.raises(ValueError, match="non-finite divergence"):
            ChartBank(family, PRIOR, (1.0, 1e200), 6.0)


class TestInfiniteThresholds:
    N_RUNS = 12

    @pytest.mark.parametrize("variant", list(ChartVariant))
    def test_bank(self, variant):
        horizon, seed = 300, 9
        low = simulate_runs(bank_spec(variant, -math.inf), 1.0, self.N_RUNS, horizon, seed)
        assert (low.stop_time == 1).all() and (low.firing_chart == 0).all()
        high_spec = bank_spec(variant, math.inf)
        high = simulate_runs(high_spec, 1.0, self.N_RUNS, horizon, seed)
        assert (high.stop_time == 0).all() and (high.firing_chart == -1).all()
        block = draw(high_spec, 1.0, range(self.N_RUNS), horizon, seed)
        assert (simulate._run_batch((high_spec,), block, [simulate._log_thresholds(high_spec)])[0] == 0).all()
        last, first = block.chunk()  # censored runs read every slot: the loop drew every row to the end
        assert first + last.shape[-1] == horizon
        xs = collect_chunks(draw(high_spec, 1.0, range(self.N_RUNS), horizon, seed))[:, 0]
        for rid in range(self.N_RUNS):
            t, x = sample_path(FAMILY, PRIOR, 1.0, horizon, [seed, rid])
            # so the lazy block is the eager path
            assert np.array_equal(xs[rid], x) and np.array_equal(last[rid, 0], x[first:]) and block.change_points[rid] == t
            report = ChartBank(FAMILY, PRIOR, GRID, -math.inf, variant).step(x[0])
            assert (report.stopped_at, report.firing_chart) == (1, 0)
            assert ChartBank(FAMILY, PRIOR, GRID, math.inf, variant).run_to_stop(x) is None

    def test_window(self):
        horizon, seed, lam = 40, 9, (1.8, 2.2)
        low = simulate_runs(window_spec(-math.inf), lam, self.N_RUNS, horizon, seed)
        high = simulate_runs(window_spec(math.inf), lam, self.N_RUNS, horizon, seed)
        assert (low.stop_time == 1).all()
        assert (high.stop_time == 0).all() and (high.firing_chart == -1).all()
        spec = window_spec()
        for rid in range(self.N_RUNS):
            _, x = sample_path_multi(list(spec.families), PRIOR, lam, horizon, [seed, rid])
            engines = [
                WindowEngine(list(spec.families), PRIOR, list(spec.grids), spec.window_len, thr)
                for thr in (-math.inf, math.inf)
            ]
            report = engines[0].step(x[:, 0])
            assert (report.stopped_at, report.firing_chart) == (1, low.firing_chart[rid])
            assert engines[1].run_to_stop(x) is None


class TestTieRulesThroughTheLoop:
    N_RUNS = 9

    def test_bank_ties_fire_the_lowest_chart(self):
        # the exact tie of test_tie_breaks_to_lowest_chart: after one zero
        # observation both charts sit at slot_cost - 1/2
        family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-3.0, 3.0))
        prior = GeometricPrior(0.05)
        spec = BankSpec(family, prior, (-1.0, 1.0), (prior.slot_cost - 0.5,), ChartVariant.SUM)
        block = PathBlock(np.ones(self.N_RUNS, dtype=np.int64), np.zeros((self.N_RUNS, 1, 4)), 4)
        stop, firing = simulate._run_batch((spec,), block, [simulate._log_thresholds(spec)])
        assert (stop == 1).all() and (firing == 0).all()

    def test_window_ties_fire_the_oldest_start(self):
        # candidates 1 and 2 read llrs (0.5, 1.5) and (0, 2) on x = (1, 2), and
        # the slot cost (1e-300) vanishes in the sums: on slot 2 starts 1 and 2
        # both reach 2 per source, start 1 through either candidate (so the
        # lowest, 0) and start 2 through candidate 1 only.  The oldest start
        # fires composite chart 0; the newest would fire 1 * 2 + 1 = 3.
        family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.5, 3.0))
        families, prior, grids = (family, family), GeometricPrior(1e-300), ((1.0, 2.0), (1.0, 2.0))
        spec = WindowSpec(families, prior, grids, window_len=5, log_threshold=4.0)
        x = np.array([[1.0, 2.0, 0.0]] * 2)
        report = WindowEngine(families, prior, grids, 5, 4.0).run_to_stop(x)
        assert (report.stopped_at, report.window_start, report.source_rows, report.firing_chart) == (2, 1, (0, 0), 0)
        block = PathBlock(np.ones(self.N_RUNS, dtype=np.int64), np.broadcast_to(x, (self.N_RUNS, 2, 3)).copy(), 3)
        stop, firing = simulate._run_batch((spec,), block, [simulate._log_thresholds(spec)])
        assert (stop == 2).all() and (firing == 0).all()


class TestSummaries:
    def test_summarize_frozen_arithmetic(self):
        runs = RunArrays(
            change_point=np.array([5, 9, 2, 4]),
            stop_time=np.array([3, 0, 5, 9]),
            firing_chart=np.array([1, -1, 0, 2]),
            false_alarm=np.array([True, False, False, False]),
            delay=np.array([2.0, 4.0, 6.0, 8.0]),
        )
        s = summarize(runs, censor_cap=0.5)
        assert s.n_runs == 4
        assert s.add_hat == pytest.approx(5.0)
        assert s.add_se == pytest.approx(math.sqrt(20.0 / 3.0) / 2.0, rel=1e-12)
        assert s.pfa_hat == pytest.approx(0.25)
        assert s.pfa_se == pytest.approx(math.sqrt(0.25 * 0.75 / 4.0), rel=1e-12)
        assert s.censored == 1
        assert s.valid  # 1 censored of 4 is inside a 0.5 cap
        assert not summarize(runs, censor_cap=1e-3).valid

    def test_estimate_is_summarized_simulation(self):
        spec = bank_spec()
        direct = summarize(simulate_runs(spec, 1.0, 200, 250, seed=3), censor_cap=0.01)
        via = estimate(spec, 1.0, 200, 250, seed=3, censor_cap=0.01)
        assert direct == via

    @pytest.mark.parametrize("censor_cap", [-1.0, 1.0, 2.0, math.nan])
    def test_censoring_cap_outside_the_unit_interval_is_refused(self, censor_cap):
        # a cap of 2.0 used to report valid=True with 3 of 5 runs censored, nan valid=False
        runs = simulate_runs(bank_spec(), 1.0, 5, 50, 0)
        with pytest.raises(ValueError, match=r"censor_cap must lie in \[0, 1\)"):
            summarize(runs, censor_cap=censor_cap)
        with pytest.raises(ValueError, match=r"censor_cap must lie in \[0, 1\)"):
            estimate(bank_spec(), 1.0, 5, 50, 0, censor_cap=censor_cap)

    def test_a_grouped_result_is_not_summarised_as_one(self):
        # a [specs, runs] result read as one detector mixes the specs' runs in one count and mean
        grouped = simulate_runs((bank_spec(), bank_spec()), 1.0, 5, 20, 0)
        with pytest.raises(ValueError, match="one detector's"):
            summarize(grouped)
        with pytest.raises(ValueError, match="one detector's"):
            estimate((bank_spec(), bank_spec()), 1.0, 5, 20, 0)

    def test_estimate_refuses_a_grouped_spec_before_the_runs(self):
        # a tuple of specs used to run every path, and only summarize refused the [specs, runs] result
        with mock.patch.object(simulate, "simulate_runs", side_effect=AssertionError("ran the runs")):
            with pytest.raises(ValueError, match=r"one detector's runs, got a tuple of 2 specs"):
                estimate((bank_spec(), bank_spec()), 1.0, 10, 50, 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 0, 100, seed=0)
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 10, 0, seed=0)
        with pytest.raises(ValueError):
            BankSpec(family=FAMILY, prior=PRIOR, grid=(), log_thresholds=(1.0,))
        with pytest.raises(ValueError):
            BankSpec(family=FAMILY, prior=PRIOR, grid=GRID, log_thresholds=(1.0, 2.0))
        with pytest.raises(ValueError):
            WindowSpec(families=(), prior=PRIOR, grids=(), window_len=5, log_threshold=1.0)
        with pytest.raises(ValueError, match="nonempty tuple"):
            simulate_runs((), 1.0, 5, 20, 0)

    @pytest.mark.parametrize(
        "name, value",
        [("n_runs", 3.0), ("n_runs", True), ("horizon", 50.0), ("horizon", True)],
    )
    def test_counts_must_be_integers(self, name, value):
        # n_runs=3.0 used to fail inside the seeding, and True ran as 1
        counts = {"n_runs": 10, "horizon": 50, name: value}
        for spec, lam in ((bank_spec(), 1.0), (window_spec(), (1.8, 2.2))):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
                simulate_runs(spec, lam, counts["n_runs"], counts["horizon"], 0)


class TestSizingHelpers:
    def test_default_horizon_frozen(self):
        drift = 0.5 + GeometricPrior(0.01).slot_cost
        assert default_horizon(1e-3, GeometricPrior(0.01), drift) == 1026

    def test_default_horizon_sized_for_small_runs(self):
        prior = GeometricPrior(0.01)
        drift = 0.5 + prior.slot_cost
        # one run in 2000 may be censored at the default cap: the horizon ignores n_runs
        assert default_horizon(1e-3, prior, drift, 1e-3, 2000) == default_horizon(1e-3, prior, drift) == 1026
        # at 400 runs none may be: the prior tail shrinks from 1e-4 to 2.5e-6
        tail_slots = math.ceil(-math.log(1e-3 / 400) / prior.slot_cost) - math.ceil(-math.log(1e-4) / prior.slot_cost)
        assert default_horizon(1e-3, prior, drift, 1e-3, 400) == 1026 + tail_slots
        # never shorter than the cap alone asks for
        for cap in (0.0, 1e-6):
            assert default_horizon(1e-3, prior, drift, cap, 400) == default_horizon(1e-3, prior, drift, cap)

    def test_default_horizon_refuses_a_horizon_that_cannot_run(self):
        drift = 0.5 + GeometricPrior(1e-9).slot_cost
        # about 9.2e9 slots of prior tail
        with pytest.raises(ValueError, match=r"rho = 1e-09 .* set horizon"):
            default_horizon(1e-3, GeometricPrior(1e-9), drift)
        assert default_horizon(1e-3, GeometricPrior(1e-4), drift) <= simulate.MAX_AUTO_HORIZON

    def test_default_horizon_validation(self):
        with pytest.raises(ValueError):
            default_horizon(1e-3, PRIOR, 0.0)
        with pytest.raises(ValueError):
            default_horizon(0.0, PRIOR, 0.5)
        for drift in (math.nan, math.inf):
            # nan used to fail with "cannot convert float NaN to integer"
            with pytest.raises(ValueError, match="drift must be positive"):
                default_horizon(1e-3, PRIOR, drift)

    @pytest.mark.parametrize("censor_cap", [-1.0, 1.0, 5.0, math.nan])
    def test_default_horizon_refuses_a_censoring_cap_outside_the_unit_interval(self, censor_cap):
        # the sweep's own rule: a cap of -1 or 5 used to size a horizon of 2861 or 180 slots
        with pytest.raises(ValueError, match=r"censor_cap must lie in \[0, 1\)"):
            default_horizon(1e-3, GeometricPrior(0.01), 0.5, censor_cap)

    @pytest.mark.parametrize("n_runs", [0, -5])
    def test_default_horizon_refuses_a_run_count_below_one(self, n_runs):
        with pytest.raises(ValueError, match=f"n_runs must be at least 1, got {n_runs}"):
            default_horizon(1e-3, PRIOR, 0.5, 1e-3, n_runs)

    @pytest.mark.parametrize("n_runs", [2.5, True], ids=repr)
    def test_default_horizon_refuses_a_run_count_that_is_not_an_integer(self, n_runs):
        # 2.5 used to size the horizon of 1028 slots that simulate_runs then refused
        with pytest.raises(ValueError, match="n_runs must be an integer"):
            default_horizon(1e-3, GeometricPrior(0.01), 0.5, 1e-3, n_runs)

    def test_best_drift_frozen_bank_values(self):
        prior = GeometricPrior(0.01)
        fam = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.4, 2.8))
        coarse = BankTemplate("a", fam, prior, (0.4, 1.6, 2.8))
        fine = BankTemplate("b", fam, prior, (0.4, 1.0, 1.6, 2.2, 2.8))
        assert best_drift(coarse, 1.0) == pytest.approx(0.33005033585350146, rel=1e-12)
        assert best_drift(fine, 1.0) == pytest.approx(0.5100503358535015, rel=1e-12)

    def test_best_drift_window_template(self):
        prior = GeometricPrior(0.01)
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))
        grid = (1.5, 1.6, 1.7, 2.0, 2.1, 2.2, 2.3)
        t = WindowTemplate("w", (fam, fam, fam), prior, (grid, grid, grid), 200)
        # true parameters on the grid: the best rate is the full divergence sum
        assert best_drift(t, (1.7, 2.0, 2.2)) == pytest.approx(2.362817543867116, rel=1e-12)

    def test_best_drift_rejects_undetectable(self):
        t = BankTemplate("c", FAMILY, PRIOR, (2.8,))
        with pytest.raises(ValueError):
            best_drift(t, 0.1)


class TestTrueParameters:
    """Every entry point takes one true parameter per source, a bank being one source."""

    WINDOW_FAMILY = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))

    def test_bank_sweep_refuses_two_parameters(self):
        with pytest.raises(ValueError, match="1 source.* but 2 true parameter"):
            add_vs_alpha_sweep([BankTemplate("sr", FAMILY, PRIOR, GRID)], (1.0, 2.4), (0.1,), 50, 0)

    def test_best_drift_refuses_a_wrong_count(self):
        with pytest.raises(ValueError, match="1 source.* but 2 true parameter"):
            best_drift(BankTemplate("sr", FAMILY, PRIOR, GRID), (1.0, 2.4))
        grid = (1.5, 2.0)
        window = WindowTemplate("w", (self.WINDOW_FAMILY,) * 3, PRIOR, (grid,) * 3, 50)
        for lams in [(1.7, 2.0), (1.7, 2.0, 2.2, 2.4)]:
            with pytest.raises(ValueError, match=f"3 source.* but {len(lams)} true parameter"):
                best_drift(window, lams)

    def test_simulate_runs_takes_a_one_element_bank_vector(self):
        by_float = simulate_runs(bank_spec(), 1.0, 64, 300, 5)
        by_vector = simulate_runs(bank_spec(), (1.0,), 64, 300, 5)
        assert_same_runs(by_float, by_vector)
        with pytest.raises(ValueError, match="1 source.* but 2 true parameter"):
            simulate_runs(bank_spec(), (1.0, 2.4), 64, 300, 5)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.7, 4.2])
    def test_bank_is_a_one_source_window(self, lam):
        for family, grid, lam_true in [(FAMILY, GRID, lam), (self.WINDOW_FAMILY, (1.4, 1.8, 2.6), 1.0 + lam / 2)]:
            bank = BankTemplate("b", family, PRIOR, grid)
            window = WindowTemplate("w", (family,), PRIOR, (grid,), 50)
            assert best_drift(bank, lam_true) == best_drift(window, (lam_true,))


class TestSweep:
    def test_rows_ordered_and_consistent(self):
        templates = [
            BankTemplate("sr", FAMILY, PRIOR, GRID, ChartVariant.SR),
            BankTemplate("max", FAMILY, PRIOR, GRID, ChartVariant.MAX),
            BankTemplate("sum", FAMILY, PRIOR, GRID, ChartVariant.SUM),
        ]
        rows = add_vs_alpha_sweep(
            templates, 1.0, (0.2, 0.1), n_runs=300, seed=17, censor_cap=0.05
        )
        assert [r.detector for r in rows] == ["sr", "max", "sum", "sr", "max", "sum"]
        assert [r.alpha for r in rows] == [0.2, 0.2, 0.2, 0.1, 0.1, 0.1]
        for r in rows:
            assert r.lam_true == (1.0,)
            assert r.n_runs == 300 and r.seed == 17
            assert r.horizon >= 1 and r.valid
            assert r.efficiency == pytest.approx(r.lower_bound / r.add_hat, rel=1e-12)

    def test_paired_runs_keep_variant_dominance_in_estimates(self):
        templates = [
            BankTemplate("sr", FAMILY, PRIOR, GRID, ChartVariant.SR),
            BankTemplate("max", FAMILY, PRIOR, GRID, ChartVariant.MAX),
            BankTemplate("sum", FAMILY, PRIOR, GRID, ChartVariant.SUM),
        ]
        rows = add_vs_alpha_sweep(templates, 1.0, (0.1,), n_runs=400, seed=29)
        by_label = {r.detector: r for r in rows}
        # identical paths per run make the delay ordering exact, not just in
        # expectation
        assert by_label["sr"].add_hat <= by_label["max"].add_hat <= by_label["sum"].add_hat

    def test_one_simulate_runs_call_per_model_group(self):
        # the benchmark's tracer reads each call's spec (its ``families``, if any) and horizon
        templates = [
            BankTemplate("sr-3", FAMILY, PRIOR, GRID, ChartVariant.SR),
            BankTemplate("max-1", FAMILY, PRIOR, (2.0,), ChartVariant.MAX),
            WindowTemplate("w", (FAMILY,), PRIOR, (GRID,), 10),
        ]
        with mock.patch.object(simulate, "simulate_runs", wraps=simulate.simulate_runs) as calls:
            rows = add_vs_alpha_sweep(templates, 1.0, (0.2, 0.05), n_runs=20, seed=3, censor_cap=0.05)
        assert calls.call_count == 2
        bank, window = (inspect.signature(simulate_runs).bind(*c.args, **c.kwargs).arguments for c in calls.call_args_list)
        assert isinstance(bank["spec"], tuple) and len(bank["spec"]) == 2
        assert isinstance(window["spec"], WindowSpec)
        assert len({r.horizon for r in rows if r.detector != "w"}) > 1  # the bank group's cells differ in horizon
        assert bank["horizon"] == max(r.horizon for r in rows if r.detector != "w")
        assert window["horizon"] == max(r.horizon for r in rows if r.detector == "w")

    def test_alpha_validation(self):
        t = [BankTemplate("sr", FAMILY, PRIOR, GRID)]
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (), 100, 0)
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (0.1, 0.2), 100, 0)
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (0.1, 1.5), 100, 0)


    def test_repeated_alpha_is_refused(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            add_vs_alpha_sweep([BankTemplate("sr", FAMILY, PRIOR, GRID)], 1.0, (0.1, 0.1), 100, 0)

    def test_empty_template_list_is_refused(self):
        # a sweep with nothing to run must not read as one that ran; refused before any cell is built
        with mock.patch.object(simulate, "_sweep_cell", wraps=simulate._sweep_cell) as built:
            with pytest.raises(ValueError, match="templates"):
                add_vs_alpha_sweep([], 1.0, (0.1,), 10, 0)
        assert built.call_count == 0

    def test_repeated_template_label_is_refused(self):
        # rows, results.csv and the manifest's cells are keyed by (alpha, label): a repeat made two rows alike
        templates = [
            BankTemplate("a", FAMILY, PRIOR, (0.5,)),
            BankTemplate("b", FAMILY, PRIOR, GRID),
            BankTemplate("a", FAMILY, PRIOR, (1.0,)),
        ]
        with mock.patch.object(simulate, "_sweep_cell", wraps=simulate._sweep_cell) as built:
            with pytest.raises(ValueError, match="template label 'a' is repeated"):
                add_vs_alpha_sweep(templates, 1.0, (0.1,), 10, 0)
        assert built.call_count == 0

    @pytest.mark.parametrize(
        "n_runs, horizon, censor_cap, problem",
        [
            (0, None, 1e-3, "n_runs must be at least 1, got 0"),
            (-3, None, 1e-3, "n_runs must be at least 1, got -3"),
            (0, 200, 1e-3, "n_runs must be at least 1, got 0"),
            (100, None, -1.0, r"censor_cap must lie in \[0, 1\), got -1.0"),
            (100, 200, 1.0, r"censor_cap must lie in \[0, 1\), got 1.0"),
        ],
        ids=["runs-0", "runs-negative", "runs-0-set-horizon", "censor-cap-negative", "censor-cap-1"],
    )
    def test_run_count_and_censoring_cap_are_refused(self, n_runs, horizon, censor_cap, problem):
        # the sweep states these rules itself, before any cell is built or run
        template = BankTemplate("sr", FAMILY, PRIOR, GRID)
        with pytest.raises(ValueError, match=problem):
            add_vs_alpha_sweep([template], 1.0, (0.1,), n_runs, 0, horizon=horizon, censor_cap=censor_cap)

    def test_undetectable_template_is_refused_at_a_fixed_horizon(self):
        # no chart grows, so no horizon is long enough; the sweep must not run it
        with pytest.raises(ValueError, match="no chart grows"):
            add_vs_alpha_sweep([BankTemplate("c", FAMILY, PRIOR, (2.8,))], 0.1, (0.1,), 100, 0, horizon=200)

    def test_zero_delay_cells_report_infinite_efficiency(self):
        # at rho = 0.99 nearly every change comes on slot 1 and every run stops with zero delay
        prior = GeometricPrior(0.99)
        rows = add_vs_alpha_sweep([BankTemplate("sr", FAMILY, prior, GRID)], 1.0, (0.1,), 50, 0)
        assert rows[0].add_hat == 0.0
        assert rows[0].efficiency == math.inf


class TestEdgeInputs:
    """The slot loop stops where the stepped detectors do at extreme priors and llrs in the thousands."""

    @pytest.mark.parametrize("rho", [1e-6, 0.99, 0.999999])
    @pytest.mark.parametrize("sigma", [1.0, 1e-3])
    def test_bank_batch_matches_stepped_bank(self, rho, sigma):
        family = GaussianMeanShift(pre_mean=0.0, sigma=sigma, post_params=Interval(0.05, 5.0))
        prior = GeometricPrior(rho)
        horizon, n_runs = 120, 24
        for variant in ChartVariant:
            spec = BankSpec(family, prior, GRID, (threshold_for(0.05, rho, len(GRID)),), variant)
            runs = runs_in_blocks(10, spec, 1.0, n_runs, horizon, seed=8)
            for rid in range(n_runs):
                t, x = sample_path(family, prior, 1.0, horizon, [8, rid])
                report = ChartBank(family, prior, GRID, spec.log_thresholds[0], variant).run_to_stop(x)
                assert runs.change_point[rid] == t
                assert runs.stop_time[rid] == (0 if report is None else report.stopped_at)
                assert runs.firing_chart[rid] == (-1 if report is None else report.firing_chart)


    @pytest.mark.parametrize("rho", [1e-6, 0.99, 0.999999])
    @pytest.mark.parametrize("scale", [1.0, 1e-3])
    def test_window_batch_matches_stepped_engine(self, rho, scale):
        family = GaussianMeanShift(pre_mean=0.0, sigma=scale, post_params=Interval(0.05, 5.0))
        families, grids, lam = (family, family), ((0.5, 2.0), (1.0,)), (1.0, 1.0)
        prior = GeometricPrior(rho)
        horizon, n_runs, window_len = 120, 40, 30
        spec = WindowSpec(families, prior, grids, window_len, threshold_for(0.05, rho, 2))
        runs = runs_in_blocks(15, spec, lam, n_runs, horizon, seed=8)
        for rid in range(n_runs):
            t, x = sample_path_multi(families, prior, lam, horizon, [8, rid])
            report = WindowEngine(families, prior, grids, window_len, spec.log_threshold).run_to_stop(x)
            assert runs.change_point[rid] == t
            assert runs.stop_time[rid] == (0 if report is None else report.stopped_at)
            assert runs.firing_chart[rid] == (-1 if report is None else report.firing_chart)


def outcome(run):
    """What ``run()`` returns, or the message of the ValueError it raises."""
    try:
        return run()
    except ValueError as err:
        return str(err)


def stepped_runs(spec, lam, n_runs, horizon, seed):
    """(change time, stop slot, firing chart) of each run, from the stepped detector on the run's own path."""
    out = []
    for rid in range(n_runs):
        if isinstance(spec, BankSpec):
            t, x = sample_path(spec.family, spec.prior, lam, horizon, [seed, rid])
            detector = ChartBank(spec.family, spec.prior, spec.grid, spec.log_thresholds[0], spec.variant)
        else:
            t, x = sample_path_multi(list(spec.families), spec.prior, lam, horizon, [seed, rid])
            detector = WindowEngine(list(spec.families), spec.prior, list(spec.grids), spec.window_len, spec.log_threshold)
        report = detector.run_to_stop(x)
        out.append((t, 0, -1) if report is None else (t, report.stopped_at, report.firing_chart))
    return out


def batched_runs(spec, lam, n_runs, horizon, seed, batch_size):
    runs = runs_in_blocks(batch_size, spec, lam, n_runs, horizon, seed)
    return list(zip(runs.change_point.tolist(), runs.stop_time.tolist(), runs.firing_chart.tolist()))


def bank_statistics(spec, lam, n_runs, horizon, seed):
    """Every run's largest chart statistic at every slot, from a bank that never stops."""
    stats = []
    for rid in range(n_runs):
        bank = ChartBank(spec.family, spec.prior, spec.grid, math.inf, spec.variant)
        for x in sample_path(spec.family, spec.prior, lam, horizon, [seed, rid])[1]:
            bank.step(x)
            stats.append(bank.log_stats.max())
    return np.array(stats)


# rho log-uniform over [1e-6, 1 - 1e-6]; observation scales down to 1e-3 give llrs up to about 1e6
EXTREME_RHOS = st.floats(math.log(1e-6), math.log1p(-1e-6)).map(lambda log_rho: GeometricPrior(math.exp(log_rho)))
EXTREME_SCALES = st.sampled_from([1.0, 1e-2, 1e-3])
EXTREME_HORIZON, EXTREME_RUNS = 30, 9


class TestExtremeProperty:
    """The slot loop equals the stepped detectors, run by run, across priors and llr magnitudes."""

    @settings(max_examples=25, deadline=None)
    @given(
        prior=EXTREME_RHOS,
        scale=EXTREME_SCALES,
        lam=st.sampled_from([0.5, 1.0, 2.0]),
        level=st.sampled_from([0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_bank(self, prior, scale, lam, level, seed):
        family = GaussianMeanShift(pre_mean=0.0, sigma=scale, post_params=Interval(0.05, 5.0))
        for variant in ChartVariant:
            probe = BankSpec(family, prior, GRID, (math.inf,), variant)
            threshold = float(np.quantile(bank_statistics(probe, lam, EXTREME_RUNS, EXTREME_HORIZON, seed), level))
            spec = BankSpec(family, prior, GRID, (threshold,), variant)
            expected = outcome(lambda: stepped_runs(spec, lam, EXTREME_RUNS, EXTREME_HORIZON, seed))
            for batch_size in (1, 7):
                assert outcome(lambda: batched_runs(spec, lam, EXTREME_RUNS, EXTREME_HORIZON, seed, batch_size)) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        prior=EXTREME_RHOS,
        scale=EXTREME_SCALES,
        grids=st.lists(
            st.lists(st.sampled_from([0.3, 0.6, 1.0, 1.5, 2.5]), min_size=1, max_size=3, unique=True).map(sorted),
            min_size=1,
            max_size=3,
        ),
        window_len=st.integers(1, 12),
        level=st.sampled_from([0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_window(self, prior, scale, grids, window_len, level, seed):
        families = (GaussianMeanShift(pre_mean=0.0, sigma=scale, post_params=Interval(0.05, 5.0)),) * len(grids)
        grids, lam = tuple(map(tuple, grids)), (1.0,) * len(grids)
        probe = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=0.0)
        threshold = float(np.quantile(exact_statistics(probe, lam, EXTREME_RUNS, EXTREME_HORIZON, seed), level))
        spec = WindowSpec(families=families, prior=prior, grids=grids, window_len=window_len, log_threshold=threshold)
        expected = outcome(lambda: stepped_runs(spec, lam, EXTREME_RUNS, EXTREME_HORIZON, seed))
        for batch_size in (1, 7):
            assert outcome(lambda: batched_runs(spec, lam, EXTREME_RUNS, EXTREME_HORIZON, seed, batch_size)) == expected


class TestOracleCaps:
    def test_direct_oracle_capacity(self):
        path = np.zeros(501)
        with pytest.raises(CapacityError):
            direct_stat_oracle(FAMILY, PRIOR, ChartVariant.SR, path, GRID)

    def test_window_oracle_capacity(self):
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))
        block = np.zeros((1, 501))
        with pytest.raises(CapacityError):
            direct_window_stat_oracle([fam], PRIOR, [(1.5,)], 5, block)

    @pytest.mark.parametrize("path", [np.zeros((2, 5)), np.zeros(0)])
    def test_direct_oracle_takes_one_nonempty_path(self, path):
        with pytest.raises(ValueError, match="path must be a nonempty 1-d array"):
            direct_stat_oracle(FAMILY, PRIOR, ChartVariant.SR, path, GRID)

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 5), r"expected a \[1, length\] block, got \(2, 5\)"), ((1, 0), "paths must contain at least one slot")],
    )
    def test_window_oracle_takes_one_nonempty_row_per_source(self, shape, message):
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5))
        with pytest.raises(ValueError, match=message):
            direct_window_stat_oracle([fam], PRIOR, [(1.5,)], 5, np.zeros(shape))


# bank families with candidate pools and a true parameter each; thresholds per chart
GROUP_SOURCES = {
    "mean": (GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.05, 5.0)), (0.3, 0.6, 1.0, 1.5, 2.5), 1.0),
    "variance": (GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 3.5)), (1.2, 1.5, 2.0, 2.5, 3.0), 2.0),
}
GROUP_THRESHOLDS = st.sampled_from([-math.inf, math.inf, 0.5, 2.0, 4.0])


@st.composite
def bank_groups(draw):
    """One to four bank specs on one family and prior, each with its own variant, grid, thresholds and horizon."""
    family, pool, lam = GROUP_SOURCES[draw(st.sampled_from(sorted(GROUP_SOURCES)))]
    prior = GeometricPrior(draw(st.sampled_from([0.02, 0.2])))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        grid = tuple(sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))))
        thresholds = tuple(draw(st.lists(GROUP_THRESHOLDS, min_size=len(grid), max_size=len(grid))))
        specs.append(BankSpec(family, prior, grid, thresholds, draw(st.sampled_from(list(ChartVariant)))))
    horizons = draw(st.lists(st.integers(1, 40), min_size=len(specs), max_size=len(specs)))
    return specs, horizons, lam


def censored_at(stop, firing, horizon):
    """Outcomes of runs to a longer horizon, cut back to ``horizon`` as a sweep cuts each bank template's."""
    late = stop > horizon
    return np.where(late, 0, stop), np.where(late, -1, firing)


class TestGroupedBankBatch:
    """Banks stepped together in one batch stop where each stops alone, run by run."""

    @settings(max_examples=60, deadline=None)
    @given(
        group=bank_groups(),
        n_runs=st.integers(1, 70),
        batch_size=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_each_template_matches_simulate_runs_alone(self, group, n_runs, batch_size, seed):
        specs, horizons, lam = group
        grouped = runs_in_blocks(batch_size, tuple(specs), lam, n_runs, max(horizons), seed)
        assert grouped.stop_time.shape == grouped.firing_chart.shape == (len(specs), n_runs)
        for t, (spec, horizon) in enumerate(zip(specs, horizons)):
            alone = simulate_runs(spec, lam, n_runs, horizon, seed)
            stop, firing = censored_at(grouped.stop_time[t], grouped.firing_chart[t], horizon)
            assert np.array_equal(stop, alone.stop_time)
            assert np.array_equal(firing, alone.firing_chart)

    @pytest.mark.parametrize(
        "grids",
        [((0.3, 1.0, 2.5), (0.3, 0.6, 1.0, 1.5, 2.5)), ((0.3, 0.6), (1.5, 2.5))],
        ids=["nested", "disjoint"],
    )
    def test_mixed_variants_censor_at_their_own_horizons(self, grids):
        # SR, MAX and SUM on both grids, thresholds per chart with both infinities,
        # and horizons short enough that templates censor runs
        family, _, lam = GROUP_SOURCES["mean"]
        prior = GeometricPrior(0.02)
        kinds = (
            lambda n: (9.0,) * n,  # every chart may fire
            lambda n: (math.inf,) * (n - 1) + (7.0,),  # only the top chart may fire
            lambda n: (12.0,) + (-math.inf,) * (n - 1),  # chart 1 fires on slot 1, by the tie rule
        )
        specs, horizons = [], []
        for v_idx, variant in enumerate(ChartVariant):
            for g_idx, grid in enumerate(grids):
                thresholds = kinds[(2 * v_idx + g_idx) % len(kinds)](len(grid))
                specs.append(BankSpec(family, prior, grid, thresholds, variant))
                horizons.append(20 + 15 * v_idx + 7 * g_idx)
        n_runs = 150
        censored = 0
        for batch_size in (1, 7, 60, n_runs):
            grouped = runs_in_blocks(batch_size, tuple(specs), lam, n_runs, max(horizons), 11)
            for t, (spec, horizon) in enumerate(zip(specs, horizons)):
                alone = simulate_runs(spec, lam, n_runs, horizon, 11)
                stop, firing = censored_at(grouped.stop_time[t], grouped.firing_chart[t], horizon)
                assert np.array_equal(stop, alone.stop_time)
                assert np.array_equal(firing, alone.firing_chart)
                censored += int((stop == 0).sum())
        assert censored > 0

    def test_several_specs_must_be_banks_on_one_family_and_prior(self):
        wide = GaussianMeanShift(pre_mean=0.0, sigma=1.5, post_params=Interval(0.05, 5.0))
        others = (window_spec(), BankSpec(wide, PRIOR, GRID, (5.0,)), BankSpec(FAMILY, GeometricPrior(0.3), GRID, (5.0,)))
        for other in others:
            with pytest.raises(ValueError, match="several specs must be banks that share family and prior"):
                simulate_runs((bank_spec(), other), 1.0, 5, 20, 0)


def cell_runs(runs, c):
    """Cell c's runs of a multi-cell result."""
    fields = ("change_point", "stop_time", "firing_chart", "false_alarm", "delay")
    return RunArrays(*(getattr(runs, f)[c] for f in fields))


class TestMultiCellRuns:
    """One simulate_runs call over several alpha cells of one model gives, cell by cell, the runs of a call per cell."""

    BATCH_SIZES = (1, 7)  # with n_runs and cells x n_runs: batches split cells mid-batch, or hold them whole

    @pytest.mark.parametrize(
        "grids",
        [((0.3, 1.0, 2.5), (0.3, 0.6, 1.0, 1.5, 2.5)), ((0.3, 0.6), (1.5, 2.5))],
        ids=["nested", "disjoint"],
    )
    def test_bank_cells_match_one_call_per_cell(self, grids):
        # SR, MAX and SUM on both grids; per cell its own thresholds, per chart in some,
        # and its own horizon, short enough that the shorter cells censor runs
        family, _, lam = GROUP_SOURCES["mean"]
        prior = GeometricPrior(0.02)
        models = [(grid, variant) for variant in ChartVariant for grid in grids]
        kinds = (
            lambda n, level: (level,),
            lambda n, level: (math.inf,) * (n - 1) + (level,),
            lambda n, level: (level + 3.0,) + (-math.inf,) * (n - 1),
        )
        cells = []
        for c, level in enumerate((3.0, 6.0, 9.0)):
            specs = tuple(
                BankSpec(family, prior, grid, kinds[(c + k) % len(kinds)](len(grid), level), variant)
                for k, (grid, variant) in enumerate(models)
            )
            cells.append((specs, (40, 25, 60)[c]))
        n_runs, seed = 30, [11, 3]
        censored = stopped = 0
        for batch_size in self.BATCH_SIZES + (n_runs, len(cells) * n_runs):
            merged = runs_in_blocks(batch_size, cells[0][0], lam, n_runs, 60, seed, cells=cells)
            assert merged.stop_time.shape == merged.firing_chart.shape == (len(cells), len(models), n_runs)
            for c, (specs, horizon) in enumerate(cells):
                alone = simulate_runs(specs, lam, n_runs, horizon, seed + [c])
                assert_same_runs(cell_runs(merged, c), alone)
                censored += int((alone.stop_time == 0).sum())
                stopped += int((alone.stop_time > 0).sum())
        assert censored > 0 and stopped > 0

    @pytest.mark.parametrize("horizons", [(20, 45, 120), (120, 60, 120)])
    def test_window_cells_match_one_call_per_cell(self, horizons):
        # cells drawn at their own horizons and censored there; the window stops late at threshold 3
        lam, n_runs = (1.8, 2.2), 24
        cells = [(window_spec(threshold), horizon) for threshold, horizon in zip((3.0, 2.0, 4.0), horizons)]
        censored = stopped = 0
        for batch_size in self.BATCH_SIZES + (n_runs, len(cells) * n_runs):
            merged = runs_in_blocks(batch_size, cells[0][0], lam, n_runs, max(horizons), 5, cells=cells)
            assert merged.stop_time.shape == (len(cells), n_runs)
            for c, (spec, horizon) in enumerate(cells):
                alone = simulate_runs(spec, lam, n_runs, horizon, [5, c])
                assert_same_runs(cell_runs(merged, c), alone)
                censored += int((alone.stop_time == 0).sum())
                stopped += int((alone.stop_time > 0).sum())
        assert censored > 0 and stopped > 0

    @settings(max_examples=20, deadline=None)
    @given(
        sources=window_sources(),
        window_len=st.integers(1, 12),
        data=st.data(),
        seed=st.integers(0, 2**16),
    )
    def test_window_cells_of_one_to_three_sources(self, sources, window_len, data, seed):
        families, grids, lam = sources
        prior = GeometricPrior(0.05)
        n_cells = data.draw(st.integers(2, 3), label="cells")
        horizons = data.draw(st.lists(st.integers(1, PRUNED_HORIZON), min_size=n_cells, max_size=n_cells), label="h")
        levels = data.draw(
            st.lists(st.sampled_from([-math.inf, 1.0, 3.0, 6.0, math.inf]), min_size=n_cells, max_size=n_cells),
            label="thresholds",
        )
        cells = [(WindowSpec(families, prior, grids, window_len, level), h) for level, h in zip(levels, horizons)]
        n_runs = 9
        for batch_size in self.BATCH_SIZES + (n_runs, n_cells * n_runs):
            merged = runs_in_blocks(batch_size, cells[0][0], lam, n_runs, max(horizons), [seed], cells=cells)
            for c, (spec, horizon) in enumerate(cells):
                assert_same_runs(cell_runs(merged, c), simulate_runs(spec, lam, n_runs, horizon, [seed, c]))

    @settings(max_examples=20, deadline=None)
    @given(group=bank_groups(), data=st.data(), seed=st.integers(0, 2**16))
    def test_bank_cells_of_one_to_four_specs(self, group, data, seed):
        # cells of one model, each with its own thresholds and a horizon of its own
        specs, _, lam = group
        n_cells = data.draw(st.integers(2, 3), label="cells")
        horizons = data.draw(st.lists(st.integers(1, 40), min_size=n_cells, max_size=n_cells), label="h")
        cells = []
        for horizon in horizons:
            cell = []
            for s in specs:
                thresholds = data.draw(st.lists(GROUP_THRESHOLDS, min_size=len(s.grid), max_size=len(s.grid)))
                cell.append(BankSpec(s.family, s.prior, s.grid, tuple(thresholds), s.variant))
            cells.append((tuple(cell) if len(cell) > 1 else cell[0], horizon))  # a lone spec bare, as a sweep passes it
        n_runs = 9
        for batch_size in self.BATCH_SIZES + (n_runs, n_cells * n_runs):
            merged = runs_in_blocks(batch_size, cells[0][0], lam, n_runs, max(horizons), [seed], cells=cells)
            for c, (spec, horizon) in enumerate(cells):
                runs = cell_runs(merged, c)
                assert_same_runs(runs, simulate_runs(spec, lam, n_runs, horizon, [seed, c]))
                assert (runs.stop_time <= horizon).all()
                assert np.array_equal(runs.firing_chart == -1, runs.stop_time == 0)

    def test_cells_must_share_the_model_and_fit_the_horizon(self):
        wide = BankSpec(FAMILY, PRIOR, (0.5, 1.0), (5.0,))
        with pytest.raises(ValueError, match="but for their thresholds"):
            simulate_runs(bank_spec(), 1.0, 5, 20, 0, cells=[(bank_spec(), 20), (wide, 20)])
        with pytest.raises(ValueError, match="but for their thresholds"):
            simulate_runs(window_spec(), (1.8, 2.2), 5, 20, 0, cells=[(bank_spec(), 20)])
        with pytest.raises(ValueError, match="exceeds horizon"):
            simulate_runs(bank_spec(), 1.0, 5, 20, 0, cells=[(bank_spec(), 20), (bank_spec(), 21)])
        with pytest.raises(ValueError, match="horizon must be an integer"):
            simulate_runs(bank_spec(), 1.0, 5, 20, 0, cells=[(bank_spec(), 2.5)])
        with pytest.raises(ValueError, match="at least one"):
            simulate_runs(bank_spec(), 1.0, 5, 20, 0, cells=[])


class TestChangeTimeBlocks:
    """simulate_runs steps the runs of all its cells in ascending change time, batch_size at a time."""

    N_RUNS = 20

    def check_schedule(self, cells, lam, seed):
        n_runs, horizon = self.N_RUNS, max(h for _, h in cells)
        with mock.patch.object(simulate, "_run_batch", wraps=simulate._run_batch) as batches:
            merged = runs_in_blocks(16, cells[0][0], lam, n_runs, horizon, seed, cells=cells)
        blocks = [call.args[1].change_points for call in batches.call_args_list]
        assert [b.size for b in blocks] == [16] * (len(blocks) - 1) + [len(cells) * n_runs - 16 * (len(blocks) - 1)]
        for block, after in zip(blocks, blocks[1:]):
            assert block.max() <= after.min()
        whole = runs_in_blocks(len(cells) * n_runs, cells[0][0], lam, n_runs, horizon, seed, cells=cells)
        assert_same_runs(merged, whole)
        for c, (spec, cell_horizon) in enumerate(cells):
            assert_same_runs(cell_runs(merged, c), simulate_runs(spec, lam, n_runs, cell_horizon, seed + [c]))

    @settings(max_examples=15, deadline=None)
    @given(group=bank_groups(), data=st.data(), seed=st.integers(0, 2**16))
    def test_bank_blocks(self, group, data, seed):
        specs, _, lam = group
        n_cells = data.draw(st.integers(2, 3), label="cells")
        horizons = data.draw(st.lists(st.integers(1, 40), min_size=n_cells, max_size=n_cells, unique=True), label="h")
        cells = []
        for horizon in horizons:
            cell = []
            for s in specs:
                thresholds = data.draw(st.lists(GROUP_THRESHOLDS, min_size=len(s.grid), max_size=len(s.grid)))
                cell.append(BankSpec(s.family, s.prior, s.grid, tuple(thresholds), s.variant))
            cells.append((tuple(cell), horizon))
        self.check_schedule(cells, lam, [seed])

    @settings(max_examples=15, deadline=None)
    @given(sources=window_sources(), window_len=st.integers(1, 12), data=st.data(), seed=st.integers(0, 2**16))
    def test_window_blocks(self, sources, window_len, data, seed):
        families, grids, lam = sources
        prior = GeometricPrior(0.05)
        n_cells = data.draw(st.integers(2, 3), label="cells")
        horizons = data.draw(
            st.lists(st.integers(1, PRUNED_HORIZON), min_size=n_cells, max_size=n_cells, unique=True), label="h"
        )
        levels = data.draw(st.lists(st.sampled_from([1.0, 3.0, 6.0]), min_size=n_cells, max_size=n_cells), label="b")
        cells = [(WindowSpec(families, prior, grids, window_len, level), h) for level, h in zip(levels, horizons)]
        self.check_schedule(cells, lam, [seed])

    def test_each_run_is_hashed_once(self):
        # the change-time pre-pass hashes every cell's runs, and the blocks draw on those words
        cells = [(bank_spec(threshold=t), h) for t, h in ((2.0, 30), (3.0, 40), (4.0, 20))]
        with mock.patch.object(simulate, "_run_words", wraps=simulate._run_words) as hashed, count_draws() as draws:
            runs_in_blocks(7, cells[0][0], 1.0, self.N_RUNS, 40, [3], cells=cells)
        assert draws.call_count == -(-len(cells) * self.N_RUNS // 7)
        assert [call.args[1] for call in hashed.call_args_list] == [range(self.N_RUNS)] * len(cells)

    @pytest.mark.parametrize("spec, lam", [(bank_spec(), 1.0), (window_spec(), (1.8, 2.2))], ids=["bank", "window"])
    def test_draw_paths_refuses_a_negative_run_id(self, spec, lam):
        # a block's parts are seeded by _run_words, which refuses the id before any draw
        with pytest.raises(ValueError, match="run ids must be non-negative"):
            draw(spec, lam, np.array([2, -1]), 20, [7])


@st.composite
def bank_cells(draw):
    """A bank group as ``bank_groups`` draws it, in one to three cells, each with its own thresholds and horizon."""
    specs, _, lam = draw(bank_groups())
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        cell = []
        for s in specs:
            thresholds = draw(st.lists(GROUP_THRESHOLDS, min_size=len(s.grid), max_size=len(s.grid)))
            cell.append(BankSpec(s.family, s.prior, s.grid, tuple(thresholds), s.variant))
        cells.append((tuple(cell), draw(st.integers(1, 40))))
    return tuple(specs), cells, lam


def under_share(below, spec, lam, n_runs, horizon, seed, **kwargs):
    """simulate_runs with COMPACT_BELOW at ``below``, and how many times its batches compacted."""
    batch = RingBatch if isinstance(spec, WindowSpec) else BankBatch
    with (
        mock.patch.object(detectors, "COMPACT_BELOW", below),
        mock.patch.object(batch, "compact", autospec=True, side_effect=batch.compact) as compact,
    ):
        runs = simulate_runs(spec, lam, n_runs, horizon, seed, **kwargs)
    return runs, compact.call_count


class TestRetirePolicy:
    """Holding stopped rows changes no run: a batch that never compacts (COMPACT_BELOW 0) and one that
    compacts on every retire that leaves a row running (COMPACT_BELOW 1) give the same runs."""

    @settings(max_examples=60, deadline=None)
    @given(
        group=bank_cells(),
        n_runs=st.integers(1, 40),
        batch_size=st.integers(1, 60),
        seed=st.integers(0, 2**16),
    )
    def test_compaction_schedule_does_not_change_bank_runs(self, group, n_runs, batch_size, seed):
        specs, cells, lam = group
        horizon = max(h for _, h in cells)
        with mock.patch.object(simulate, "BATCH_SIZE", batch_size):
            never, _ = under_share(0.0, specs, lam, n_runs, horizon, [seed], cells=cells)
            always, _ = under_share(1.0, specs, lam, n_runs, horizon, [seed], cells=cells)
        assert_same_runs(never, always)

    @pytest.mark.parametrize("case", range(len(scattered_cases())))
    def test_share_sets_when_a_batch_compacts(self, case):
        # scattered stops: 1.0 compacts on every retire that leaves a row running, 0.0 never,
        # the default in between; every schedule gives the same runs
        spec, lam, horizon = scattered_cases()[case]
        runs = {below: under_share(below, spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED) for below in (0.0, 0.75, 1.0)}
        assert runs[0.0][1] == 0
        assert 0 < runs[0.75][1] < runs[1.0][1]
        for below in (0.75, 1.0):
            assert_same_runs(runs[0.0][0], runs[below][0])
