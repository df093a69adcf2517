import math
import re

import numpy as np
import pytest

from chartbank import (
    AlreadyStoppedError,
    ChartBank,
    ChartVariant,
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    WindowEngine,
    WindowSpec,
    composite_kl,
    direct_window_stat_oracle,
    window_length_for,
)
from chartbank.windowed import RingBatch, ring_advance, ring_maxima, window_offsets

PRIOR = GeometricPrior(0.01)


def variance_family(low=1.05, high=3.5):
    return GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(low, high))


class TestRingPrimitives:
    def test_ring_advance_by_hand(self):
        # two charts, width 3; walk two steps and check every cell
        table = np.zeros((2, 3))
        ring_advance(table, np.array([1.0, -2.0]), slot_new=1)
        # all columns got the llr; column 1 was recycled first (same result
        # at step one since the table started at zero)
        assert np.array_equal(table, [[1.0, 1.0, 1.0], [-2.0, -2.0, -2.0]])
        assert np.array_equal(ring_maxima(table), [1.0, 1.0, 1.0])
        ring_advance(table, np.array([0.5, 4.0]), slot_new=2)
        assert np.array_equal(table, [[1.5, 1.5, 0.5], [2.0, 2.0, 4.0]])
        assert np.array_equal(ring_maxima(table), [2.0, 2.0, 4.0])

    def test_window_offsets_ascending_and_modular(self):
        starts, slots = window_offsets(n=5, width=3)
        assert np.array_equal(starts, [3, 4, 5])
        assert np.array_equal(slots, [0, 1, 2])
        starts, slots = window_offsets(n=2, width=5)
        assert np.array_equal(starts, [1, 2])
        assert np.array_equal(slots, [1, 2])
        # ascending starts make np.argmax resolve ties toward the oldest
        for n in (1, 4, 9, 100):
            s, _ = window_offsets(n, 7)
            assert np.all(np.diff(s) > 0)
            assert s[-1] == n and len(s) == min(n, 7)


class TestBoundedBatchSpace:
    """The abstract's claim that space grows linearly in the source count, on the batch the sweeps run."""

    ROW_STATE = ("peaks", "prefix", "prefixes", "suffix", "low", "mass", "thresholds", "running", "rows")

    @pytest.mark.parametrize("n_sources, history_per_row", [(1, 3721), (2, 6585), (4, 12313), (8, 23769), (16, 46681)])
    def test_row_state_bytes(self, n_sources, history_per_row):
        # per row: the prefix and suffix rings, one running sum per source, three
        # floats, a threshold, a bool and a block row; no llr of any candidate: the
        # batch replays from the observation block it is stepped with, not its own
        grid, window = (1.5, 1.6, 1.7, 2.0, 2.1, 2.2, 2.3), 50
        width = window + 1
        per_row = 8 * (2 * width + n_sources + 5) + 9
        assert per_row == {1: 873, 2: 881, 4: 897, 8: 929, 16: 993}[n_sources]
        # a batch that kept the w'·ΣI_l llr history and a shared threshold held
        # history_per_row bytes: the same state less that history, plus the threshold
        history = 8 * width * n_sources * len(grid)
        assert history_per_row == 8 * (width * (n_sources * len(grid) + 2) + n_sources + 4) + 9
        assert per_row == history_per_row - history + 8
        shared = set()
        for rows in (3, 5):
            block = np.zeros((rows, n_sources, 10))
            batch = RingBatch(
                (variance_family(),) * n_sources, PRIOR, (grid,) * n_sources, window, 10.0, np.arange(rows), block=block
            )
            nbytes = {name: v.nbytes for name, v in vars(batch).items() if isinstance(v, np.ndarray) and v is not block}
            assert sum(nbytes[name] for name in self.ROW_STATE) == rows * per_row
            assert all(v < rows * 8 * width * n_sources * len(grid) for v in nbytes.values())
            shared.add(sum(nbytes.values()) - rows * per_row)
        assert len(shared) == 1  # no other array grows with the rows


class TestEngineVsOracle:
    def test_statistic_matches_product_set_oracle(self):
        rng = np.random.default_rng(7)
        families = [variance_family(), variance_family()]
        grids = [(1.3, 1.8, 2.4), (1.2, 2.0)]
        window = 8
        for _ in range(6):
            length = 40
            block = rng.standard_normal((2, length)) * np.where(
                np.arange(length) < 20, 1.0, 1.9
            )
            engine = WindowEngine(families, PRIOR, grids, window, math.inf)
            trace = np.empty(length)
            for s in range(length):
                engine.step(block[:, s])
                trace[s] = engine.statistic()
            direct = direct_window_stat_oracle(families, PRIOR, grids, window, block)
            assert np.abs(trace - direct).max() < 1e-9

    def test_stop_slot_matches_oracle_crossing(self):
        rng = np.random.default_rng(8)
        families = [variance_family(), variance_family(), variance_family()]
        grids = [(1.4, 2.0)] * 3
        window = 12
        threshold = 6.0
        for _ in range(5):
            length = 120
            block = rng.standard_normal((3, length)) * np.where(
                np.arange(length) < 35, 1.0, 2.0
            )
            direct = direct_window_stat_oracle(families, PRIOR, grids, window, block)
            crossings = np.nonzero(direct >= threshold)[0]
            engine = WindowEngine(families, PRIOR, grids, window, threshold)
            report = engine.run_to_stop(block)
            if crossings.size == 0:
                assert report is None
            else:
                assert report is not None
                assert report.stopped_at == int(crossings[0]) + 1

    def test_single_source_full_window_equals_max_bank(self):
        # with the window covering the whole path, the joint statistic for a
        # single source reduces to the best chart of a MAX-variant bank
        family = variance_family()
        grid = (1.3, 1.9, 2.6)
        rng = np.random.default_rng(9)
        length = 60
        path = rng.standard_normal(length) * np.where(np.arange(length) < 30, 1.0, 2.2)
        engine = WindowEngine([family], PRIOR, [grid], window_len=length + 5, log_threshold=math.inf)
        bank = ChartBank(family, PRIOR, grid, np.inf, ChartVariant.MAX)
        for x in path:
            engine.step(np.array([x]))
            bank.step(float(x))
            assert engine.statistic() == pytest.approx(float(bank.log_stats.max()), abs=1e-9)


class TestEngineBehaviour:
    def test_statistic_before_any_observation(self):
        engine = WindowEngine([variance_family()], PRIOR, [(1.5, 2.0)], 5, 10.0)
        assert engine.statistic() == -math.inf

    def test_step_shape_validation(self):
        engine = WindowEngine([variance_family()] * 2, PRIOR, [(1.5, 2.0)] * 2, 5, 10.0)
        with pytest.raises(ValueError):
            engine.step(np.zeros(3))
        with pytest.raises(ValueError):
            engine.run_to_stop(np.zeros((3, 10)))

    def test_step_after_stop_raises(self):
        engine = WindowEngine([variance_family()], PRIOR, [(2.0,)], 5, -100.0)
        assert engine.stopped is None
        report = engine.step(np.array([0.1]))
        assert report is not None and engine.stopped is report
        with pytest.raises(AlreadyStoppedError):
            engine.step(np.array([0.1]))

    def test_report_fields_and_composite_index(self):
        # constant observations steer each source to a known best row: the
        # per-slot llr is maximized at the candidate nearest |x|
        families = [variance_family(), variance_family(low=1.05, high=3.5)]
        grids = [(1.5, 2.0, 3.0), (1.2, 1.6, 2.1, 2.8)]
        engine = WindowEngine(families, PRIOR, grids, window_len=20, log_threshold=1.5)
        report = None
        n = 0
        while report is None and n < 200:
            report = engine.step(np.array([3.0, 1.6]))
            n += 1
        assert report is not None
        assert report.source_rows == (2, 1)
        assert report.firing_chart == 2 * 4 + 1
        assert report.window_start == 1  # signal from the very first slot
        assert 1 <= report.window_start <= report.stopped_at
        assert report.firing_value >= 1.5

    def test_column_for_start_tracking(self):
        family = variance_family()
        engine = WindowEngine([family, family], PRIOR, [(1.2, 2.0), (1.5,)], window_len=3, log_threshold=math.inf)
        xs = [0.3, -1.1, 2.2, 0.9, -0.4]
        for x in xs:
            engine.step([x, 2.0 * x])
        # column for start k must equal the plain llr sum over slots k..n
        for k in (2, 3, 4, 5):
            for source, grid, scale in ((0, (1.2, 2.0), 1.0), (1, (1.5,), 2.0)):
                got = engine.column_for_start(source, k)
                for row, lam in enumerate(grid):
                    want = sum(family.llr(lam, scale * x) for x in xs[k - 1 :])
                    assert got[row] == pytest.approx(want, abs=1e-12)
        with pytest.raises(ValueError):
            engine.column_for_start(0, 1)  # expired
        with pytest.raises(ValueError):
            engine.column_for_start(0, 6)  # future

    def test_work_counters_exact(self):
        families = [variance_family(), variance_family()]
        grids = [(1.3, 1.8, 2.4), (1.2, 2.0)]
        m = 6
        engine = WindowEngine(families, PRIOR, grids, m, math.inf)
        rng = np.random.default_rng(10)
        n = 25
        for _ in range(n):
            engine.step(rng.standard_normal(2))
        width = m + 1
        assert engine.work["cell_adds"] == n * (3 + 2) * width
        assert engine.work["max_scans"] == n * 2 * width
        assert engine.work["combines"] == sum(min(s, width) for s in range(1, n + 1))

    def test_constructor_validation(self):
        fam = variance_family()
        with pytest.raises(ValueError):
            WindowEngine([], PRIOR, [], 5, 1.0)
        with pytest.raises(ValueError):
            WindowEngine([fam], PRIOR, [(1.5,), (2.0,)], 5, 1.0)
        with pytest.raises(ValueError):
            WindowEngine([fam], PRIOR, [(1.5,)], 5, math.nan)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_step_rejects_non_finite_observation(self, x):
        fam = variance_family()

        def engine():
            return WindowEngine([fam, fam], PRIOR, [(1.5, 2.0), (1.5, 2.0)], 5, math.inf)

        hit, clean = engine(), engine()
        hit.step([0.4, 0.3])
        with pytest.raises(ValueError):
            hit.step([0.4, x])  # the first source is fine; it must not advance alone
        clean.step([0.4, 0.3])
        for eng in (hit, clean):
            eng.step([1.7, -0.2])
        assert hit.time == clean.time == 2
        assert hit.statistic() == clean.statistic()
        for source in (0, 1):
            for k in (1, 2):
                assert np.array_equal(hit.column_for_start(source, k), clean.column_for_start(source, k))


class TestSizing:
    def test_window_length_frozen(self):
        assert window_length_for(1e-3, 0.01, 0.5, slack=1.5) == 21

    def test_window_length_scales_with_log_alpha(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m1 = window_length_for(1e-2, 0.01, 0.4)
            m2 = window_length_for(1e-4, 0.01, 0.4)
        assert m2 == pytest.approx(2 * m1, abs=1)

    def test_window_length_validation(self):
        with pytest.raises(ValueError):
            window_length_for(0.0, 0.01, 0.5)
        with pytest.raises(ValueError):
            window_length_for(1e-3, 0.01, 0.0)
        with pytest.raises(ValueError):
            window_length_for(1e-3, 0.01, 0.5, slack=1.0)

    @pytest.mark.parametrize(
        "d_min, slack, name",
        [
            (math.inf, 1.5, "d_min"),
            (-math.inf, 1.5, "d_min"),
            (math.nan, 1.5, "d_min"),
            (0.5, math.nan, "slack"),
            (0.5, math.inf, "slack"),
        ],
    )
    def test_window_length_refuses_non_finite_inputs(self, d_min, slack, name):
        # an infinite d_min used to fail with "math domain error", a NaN with
        # "cannot convert float NaN to integer", an infinite slack with OverflowError
        with pytest.raises(ValueError, match=f"^{name} must be "):
            window_length_for(1e-3, 0.01, d_min, slack=slack)

    def test_window_length_at_the_float_range_ends(self):
        with pytest.raises(ValueError, match="past the int64 range"):
            window_length_for(1e-300, 0.01, 0.5, slack=1e308)
        # slack * |log alpha| / d_min underflows to 0.0; the shortest window is one slot
        assert window_length_for(1 - 1e-16, 0.01, 1e308) == 1

    @pytest.mark.parametrize("window_len", [2.5, 3.0, np.float64(4.0), True, np.bool_(True)])
    def test_window_len_must_be_an_integer(self, window_len):
        # 2.5 and 3.0 used to fail inside the ring tables with numpy's TypeError, True ran as 1
        family = variance_family()
        problem = re.escape(f"window_len must be an integer, got {window_len!r}")
        with pytest.raises(ValueError, match=problem):
            WindowEngine([family], PRIOR, [(1.5, 2.0)], window_len, 3.0)
        with pytest.raises(ValueError, match=problem):
            WindowSpec(families=(family,), prior=PRIOR, grids=((1.5, 2.0),), window_len=window_len, log_threshold=3.0)

    def test_window_length_warns_when_threshold_analysis_degrades(self):
        with pytest.warns(UserWarning):
            window_length_for(0.5, 0.01, 0.01)

    def test_composite_kl_frozen(self):
        fams = [variance_family()] * 3
        got = composite_kl(fams, (1.7, 2.0, 2.2), PRIOR)
        assert got == pytest.approx(2.362817543867116, abs=0, rel=1e-12)

    def test_composite_kl_validation(self):
        with pytest.raises(ValueError):
            composite_kl([variance_family()], (1.5, 2.0), PRIOR)
        with pytest.raises(ValueError):
            composite_kl([], (), PRIOR)

    def test_composite_kl_single_source(self):
        fam = variance_family()
        got = composite_kl([fam], (2.0,), PRIOR)
        assert got == pytest.approx(fam.kl_post_vs_pre(2.0) + PRIOR.slot_cost)


def test_mean_shift_sources_also_supported():
    # the engine is not tied to scale families
    fam = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.3, 3.0))
    engine = WindowEngine([fam, fam], PRIOR, [(0.5, 1.5), (1.0, 2.0)], 10, math.inf)
    rng = np.random.default_rng(11)
    block = rng.normal(1.0, 1.0, size=(2, 30))
    for s in range(30):
        engine.step(block[:, s])
    direct = direct_window_stat_oracle([fam, fam], PRIOR, [(0.5, 1.5), (1.0, 2.0)], 10, block)
    assert engine.statistic() == pytest.approx(direct[-1], abs=1e-9)
