import math
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
from chartbank import simulate
from chartbank.simulate import PathBlock, draw_paths

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


class TestBatchReplaysPublicApi:
    def test_bank_batch_matches_stepped_bank(self):
        spec = bank_spec()
        horizon = 300
        runs = simulate_runs(spec, 1.0, n_runs=40, horizon=horizon, seed=21, batch_size=16)
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
        runs = simulate_runs(spec, lam, n_runs=25, horizon=horizon, seed=33, batch_size=9)
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
# scattered slots, and some are censored, so the kernels drop rows mid-batch.
SCATTER_RUNS = 60
SCATTER_SEED = 4


def scattered_cases():
    cases = [(bank_spec(v, 2.0), 1.0, 20) for v in ChartVariant]
    cases.append((window_spec(1.5), (1.8, 2.2), 40))
    return cases


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
        whole = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED, batch_size=SCATTER_RUNS)
        split = simulate_runs(spec, lam, SCATTER_RUNS, horizon, SCATTER_SEED, batch_size=batch_size)
        assert_same_runs(whole, split)

    def test_shorter_bank_draw_is_a_prefix(self):
        long = draw_paths(bank_spec(), 1.0, range(3, 9), 300, [6, 1])
        short = draw_paths(bank_spec(), 1.0, range(3, 9), 120, [6, 1])
        assert np.array_equal(long.change_points, short.change_points)
        assert np.array_equal(long.observations[:, :120], short.observations)

    def test_path_block_validation(self):
        block = draw_paths(bank_spec(), 1.0, range(5), 50, 0)
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 4, 50, 0, paths=block)
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 5, 51, 0, paths=block)
        bad = block.observations.copy()
        bad[2, 7] = np.nan
        with pytest.raises(ValueError):
            PathBlock(block.change_points, bad)
        with pytest.raises(ValueError):
            PathBlock(block.change_points[:4], block.observations)

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
        with mock.patch.object(simulate, "BATCH_SIZE", block_runs):
            rows = add_vs_alpha_sweep(templates, 1.0, alphas, n_runs=80, seed=seed, censor_cap=0.05)
        assert len({r.horizon for r in rows[:3]}) == 2
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

    def test_to_records_round_trip(self):
        runs = simulate_runs(bank_spec(), 1.0, 30, 150, seed=2)
        records = runs.to_records()
        assert len(records) == 30
        for rid, rec in enumerate(records):
            assert rec.change_point == runs.change_point[rid]
            if runs.stop_time[rid] == 0:
                assert rec.stop_time is None and rec.firing_chart is None
            else:
                assert rec.stop_time == runs.stop_time[rid]
            assert rec.delay == runs.delay[rid]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 0, 100, seed=0)
        with pytest.raises(ValueError):
            simulate_runs(bank_spec(), 1.0, 10, 0, seed=0)
        for batch_size in (0, -4):
            with pytest.raises(ValueError):
                simulate_runs(bank_spec(), 1.0, 10, 50, seed=0, batch_size=batch_size)
        with pytest.raises(ValueError):
            BankSpec(family=FAMILY, prior=PRIOR, grid=(), log_thresholds=(1.0,))
        with pytest.raises(ValueError):
            BankSpec(family=FAMILY, prior=PRIOR, grid=GRID, log_thresholds=(1.0, 2.0))
        with pytest.raises(ValueError):
            WindowSpec(families=(), prior=PRIOR, grids=(), window_len=5, log_threshold=1.0)


class TestSizingHelpers:
    def test_default_horizon_frozen(self):
        drift = 0.5 + GeometricPrior(0.01).slot_cost
        assert default_horizon(1e-3, GeometricPrior(0.01), drift) == 1026

    def test_default_horizon_validation(self):
        with pytest.raises(ValueError):
            default_horizon(1e-3, PRIOR, 0.0)
        with pytest.raises(ValueError):
            default_horizon(0.0, PRIOR, 0.5)

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

    def test_alpha_validation(self):
        t = [BankTemplate("sr", FAMILY, PRIOR, GRID)]
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (), 100, 0)
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (0.1, 0.2), 100, 0)
        with pytest.raises(ValueError):
            add_vs_alpha_sweep(t, 1.0, (0.1, 1.5), 100, 0)


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
