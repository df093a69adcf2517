import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartbank
from chartbank import (
    ChartBank,
    ChartVariant,
    GaussianMeanShift,
    GeometricPrior,
    Interval,
    advance_log_stats,
    direct_stat_oracle,
    initial_log_stats,
    posterior_complement_from_stat,
    posterior_from_stat,
    stat_from_posterior,
)
from conftest import SteppedShellCases

FAMILY = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-3.0, 3.0))
PRIOR = GeometricPrior(0.05)
GRID = (0.5, 1.0, 2.0)


def fresh_bank(threshold=np.inf, variant=ChartVariant.SR, grid=GRID):
    return ChartBank(FAMILY, PRIOR, grid, threshold, variant)


class TestRecursionPrimitives:
    def test_initial_states(self):
        assert np.all(initial_log_stats(ChartVariant.SR, 3) == -np.inf)
        assert np.all(initial_log_stats(ChartVariant.MAX, 2) == -np.inf)
        assert np.all(initial_log_stats(ChartVariant.SUM, 4) == 0.0)
        with pytest.raises(ValueError):
            initial_log_stats(ChartVariant.SR, 0)
        for n_charts in (2.5, True):
            with pytest.raises(ValueError, match="n_charts must be an integer"):
                initial_log_stats(ChartVariant.SR, n_charts)

    def test_first_step_is_common(self):
        # from their initial states all three recursions produce the same
        # first-slot statistic: slot_cost + llr
        llr = np.array([-0.3, 0.7])
        for variant in ChartVariant:
            state = initial_log_stats(variant, 2)
            out = advance_log_stats(variant, state, 0.01, llr)
            assert np.allclose(out, 0.01 + llr)

    def test_single_step_formulas(self):
        state = np.array([0.4])
        llr = np.array([0.2])
        sr = advance_log_stats(ChartVariant.SR, state, 0.05, llr)
        mx = advance_log_stats(ChartVariant.MAX, state, 0.05, llr)
        sm = advance_log_stats(ChartVariant.SUM, state, 0.05, llr)
        assert sr[0] == pytest.approx(np.logaddexp(0.4, 0.0) + 0.25)
        assert mx[0] == pytest.approx(0.4 + 0.25)
        assert sm[0] == pytest.approx(0.4 + 0.25)

    def test_batch_broadcasting(self):
        state = np.zeros((4, 3))
        llr = np.linspace(-1, 1, 12).reshape(4, 3)
        out = advance_log_stats(ChartVariant.SR, state, 0.01, llr)
        assert out.shape == (4, 3)
        single = advance_log_stats(ChartVariant.SR, state[1], 0.01, llr[1])
        assert np.array_equal(out[1], single)


class TestRecursionVsDirect:
    @pytest.mark.parametrize("variant", list(ChartVariant))
    def test_matches_direct_evaluation(self, variant):
        rng = np.random.default_rng(42)
        for _ in range(25):
            path = rng.normal(rng.uniform(0, 1.5), 1.0, size=120)
            bank = fresh_bank(variant=variant)
            trace = np.empty((path.size, len(GRID)))
            for i, x in enumerate(path):
                bank.step(float(x))
                trace[i] = bank.log_stats
            direct = direct_stat_oracle(FAMILY, PRIOR, variant, path, GRID)
            assert np.abs(trace - direct).max() < 1e-9

    def test_geometric_series_closed_form(self):
        # constant x = 0.5 zeroes the lone chart's llr, so the SR statistic
        # is a geometric sum with an explicit closed form
        prior = GeometricPrior(0.01)
        bank = ChartBank(FAMILY, prior, (1.0,), np.inf, ChartVariant.SR)
        expected = [
            0.010050335853501506,
            0.7082353104434055,
            1.118746629841962,
            1.4114833306320163,
            1.6396899270348382,
        ]
        for n in range(5):
            bank.step(0.5)
            assert bank.log_stats[0] == pytest.approx(expected[n], abs=1e-12)

    def test_geometric_series_stop_slots(self):
        # thresholds placed against the closed-form trace above
        prior = GeometricPrior(0.01)
        for threshold, slot in ((0.05, 2), (math.log(5.0), 5)):
            bank = ChartBank(FAMILY, prior, (1.0,), threshold, ChartVariant.SR)
            report = bank.run_to_stop(np.full(50, 0.5))
            assert report is not None and report.stopped_at == slot


class TestOrdering:
    def test_statistic_ordering_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            path = rng.normal(0.4, 1.3, size=100)
            banks = {v: fresh_bank(variant=v) for v in ChartVariant}
            for x in path:
                for bank in banks.values():
                    bank.step(float(x))
                s = {v: banks[v].log_stats for v in ChartVariant}
                assert np.all(s[ChartVariant.SUM] <= s[ChartVariant.MAX])
                assert np.all(s[ChartVariant.MAX] <= s[ChartVariant.SR])

    def test_stop_time_ordering(self):
        rng = np.random.default_rng(4)
        threshold = 4.0
        stops = {v: [] for v in ChartVariant}
        for run in range(30):
            path = rng.normal(0.8, 1.0, size=400)
            for v in ChartVariant:
                report = fresh_bank(threshold, v).run_to_stop(path)
                stops[v].append(report.stopped_at if report else math.inf)
        for a, b, c in zip(stops[ChartVariant.SR], stops[ChartVariant.MAX], stops[ChartVariant.SUM]):
            assert a <= b <= c


class TestBankBehaviour(SteppedShellCases):
    slot_shape = ()

    def detector(self, log_threshold):
        return fresh_bank(threshold=log_threshold)

    def test_crossing_is_inclusive(self):
        # the statistic equals slot_cost + llr on the first step; a threshold
        # placed exactly there must fire
        x = 0.9
        llr = FAMILY.llr(1.0, x)
        exact = PRIOR.slot_cost + llr
        bank = ChartBank(FAMILY, PRIOR, (1.0,), exact, ChartVariant.SR)
        report = bank.step(x)
        assert report is not None and report.stopped_at == 1
        assert report.firing_value == pytest.approx(exact, abs=0, rel=1e-15)

    def test_tie_breaks_to_lowest_chart(self):
        # candidates -1 and 1 have identical llr dynamics when every x = 0,
        # so both charts sit at exactly slot_cost - 1/2 after one step; a
        # threshold placed there makes them cross together and the report
        # must name chart 0
        exact = PRIOR.slot_cost - 0.5
        bank = ChartBank(FAMILY, PRIOR, (-1.0, 1.0), exact, ChartVariant.SUM)
        report = bank.step(0.0)
        assert report is not None and report.stopped_at == 1
        assert report.firing_chart == 0

    def test_run_to_stop_none_when_no_crossing(self):
        bank = fresh_bank(threshold=1e9)
        assert bank.run_to_stop(np.zeros(20)) is None
        assert bank.time == 20

    def test_per_chart_thresholds(self):
        thresholds = np.array([1e9, 1e9, -1e9])
        bank = fresh_bank(threshold=thresholds)
        report = bank.step(0.0)
        assert report is not None and report.firing_chart == 2

    def test_properties_are_copies(self):
        bank = fresh_bank()
        bank.log_stats[:] = 123.0
        bank.grid[:] = 0.0
        bank.log_thresholds[:] = 0.0
        assert not np.any(bank.log_stats == 123.0)
        assert np.array_equal(bank.grid, np.asarray(GRID))
        assert np.all(bank.log_thresholds == np.inf)

    def test_validation(self):
        with pytest.raises(ValueError):
            fresh_bank(grid=())
        with pytest.raises(ValueError):
            fresh_bank(grid=(1.0, 0.5))
        with pytest.raises(ValueError):
            fresh_bank(grid=(1.0, 9.0))  # outside the admissible interval
        with pytest.raises(ValueError):
            fresh_bank(threshold=np.nan)
        with pytest.raises(ValueError):
            fresh_bank(threshold=np.array([1.0, 2.0]))  # wrong length
        with pytest.raises(ValueError):
            # a candidate equal to the pre-change mean cannot be told apart
            fresh_bank(grid=(0.0, 1.0))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_step_rejects_non_finite_observation(self, x):
        bank = fresh_bank()
        bank.step(0.3)
        before = bank.log_stats
        with pytest.raises(ValueError):
            bank.step(x)
        assert bank.time == 1 and np.array_equal(bank.log_stats, before)


class TestPosterior:
    def test_identity_round_trip_full_precision(self):
        rho = 0.01
        for z in np.linspace(-27, 27, 121):
            log_r = float(z - math.log(rho))
            p = posterior_from_stat(log_r, rho)
            pc = posterior_complement_from_stat(log_r, rho)
            back = stat_from_posterior(p, rho, complement=pc)
            assert abs(back - log_r) <= 1e-9 * max(1.0, abs(log_r))

    def test_complement_pairs_sum_to_one(self):
        rho = 0.2
        for log_r in (-5.0, 0.0, 3.0):
            p = posterior_from_stat(log_r, rho)
            pc = posterior_complement_from_stat(log_r, rho)
            assert p + pc == pytest.approx(1.0, abs=1e-15)

    def test_extremes(self):
        assert posterior_from_stat(-math.inf, 0.1) == 0.0
        assert posterior_from_stat(math.inf, 0.1) == 1.0
        assert stat_from_posterior(0.0, 0.1) == -math.inf
        assert stat_from_posterior(1.0, 0.1) == math.inf
        assert stat_from_posterior(1.0, 0.1, complement=0.0) == math.inf

    def test_threshold_equivalence(self):
        # stopping when the posterior reaches p* is the same as stopping when
        # the log statistic reaches the mapped threshold
        rho = 0.05
        p_star = 0.99
        log_b = stat_from_posterior(p_star, rho)
        for log_r in (log_b - 1e-6, log_b, log_b + 1e-6):
            assert (posterior_from_stat(log_r, rho) >= p_star) == (log_r >= log_b)

    def test_validation(self):
        with pytest.raises(ValueError):
            posterior_from_stat(0.0, 0.0)
        with pytest.raises(ValueError):
            stat_from_posterior(1.5, 0.1)

    @pytest.mark.parametrize("to_posterior", [posterior_from_stat, posterior_complement_from_stat])
    def test_nan_statistic_is_refused(self, to_posterior):
        # as its inverse refuses a NaN posterior; the infinities stay valid
        with pytest.raises(ValueError, match="log_r"):
            to_posterior(math.nan, 0.1)
        with pytest.raises(ValueError, match="log_r"):
            to_posterior(np.float64("nan"), 0.1)
        assert {to_posterior(-math.inf, 0.1), to_posterior(math.inf, 0.1)} == {0.0, 1.0}

    @settings(max_examples=60)
    @given(
        log_r=st.floats(min_value=-40, max_value=40),
        rho=st.floats(min_value=1e-4, max_value=0.9),
    )
    def test_posterior_monotone_in_statistic(self, log_r, rho):
        p1 = posterior_from_stat(log_r, rho)
        p2 = posterior_from_stat(log_r + 0.5, rho)
        assert 0.0 <= p1 <= 1.0
        assert p2 >= p1


@settings(max_examples=25, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=1, max_size=60
    ),
    rho=st.floats(min_value=1e-3, max_value=0.5),
)
def test_recursion_vs_direct_property(data, rho):
    prior = GeometricPrior(rho)
    path = np.asarray(data)
    for variant in ChartVariant:
        bank = ChartBank(FAMILY, prior, GRID, np.inf, variant)
        trace = np.empty((path.size, len(GRID)))
        for i, x in enumerate(path):
            bank.step(float(x))
            trace[i] = bank.log_stats
        direct = direct_stat_oracle(FAMILY, prior, variant, path, GRID)
        assert np.abs(trace - direct).max() < 1e-9


class TestRecursionBitsDoNotDependOnLayout:
    """A row's next statistic has the same bits alone, inside a batch, or as a strided column slice."""

    @settings(max_examples=60, deadline=None)
    @given(
        variant=st.sampled_from(list(ChartVariant)),
        rows=st.integers(1, 40),
        charts=st.integers(1, 9),
        pad=st.integers(1, 4),
        scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
        seed=st.integers(0, 2**16),
    )
    def test_same_bits_in_any_layout(self, variant, rows, charts, pad, scale, seed):
        rng = np.random.default_rng(seed)
        state = rng.normal(0.0, scale, (rows, charts))
        state[rng.random((rows, charts)) < 0.1] = -np.inf
        llr = rng.normal(0.0, scale, (rows, charts))
        batch = advance_log_stats(variant, state, 0.02, llr)
        for r in range(rows):
            assert advance_log_stats(variant, state[r], 0.02, llr[r]).tobytes() == batch[r].tobytes()
        # the columns of a wider row-major state, advanced in place
        wide = np.full((rows, charts + 2 * pad), 7.0)
        wide[:, pad : pad + charts] = state
        view = wide[:, pad : pad + charts]
        advance_log_stats(variant, view, 0.02, llr, out=view)
        assert view.tobytes() == batch.tobytes()
        # a column-major copy, and chunks of 1, 3 and 5 elements of the flattened state
        transposed = np.empty((charts, rows))
        advance_log_stats(variant, state.T, 0.02, llr.T, out=transposed)
        assert transposed.T.copy().tobytes() == batch.tobytes()
        flat, flat_llr = state.ravel(), llr.ravel()
        for size in (1, 3, 5):
            chunks = [
                advance_log_stats(variant, flat[i : i + size], 0.02, flat_llr[i : i + size])
                for i in range(0, flat.size, size)
            ]
            assert np.concatenate(chunks).tobytes() == batch.tobytes()

    def test_softplus_term_keeps_the_variant_ordering(self):
        # SR adds log1p(exp(-|a|)) >= 0 to max(a, 0), so SUM <= MAX <= SR holds exactly
        state = np.array([-np.inf, -800.0, -40.0, -1e-9, 0.0, 1e-9, 3.0, 40.0, 800.0])
        llr = np.linspace(-2.0, 2.0, state.size)
        sr, mx, sm = (advance_log_stats(v, state, 0.01, llr) for v in ChartVariant)
        assert np.all(sm <= mx) and np.all(mx <= sr)
        assert np.allclose(sr, np.logaddexp(state, 0.0) + 0.01 + llr, rtol=1e-15, atol=1e-15)


def test_banks_do_not_import_numpy_ma():
    # np.unique imports numpy.ma, about 20 ms at a process's first bank; the union of grids needs no mask
    code = textwrap.dedent(
        """
        import sys
        from chartbank import BankSpec, ChartBank, GaussianMeanShift, GeometricPrior, Interval, simulate_runs
        family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-3.0, 3.0))
        prior = GeometricPrior(0.05)
        ChartBank(family, prior, (0.5, 1.0, 2.0), 4.0).step(1.0)
        specs = [BankSpec(family=family, prior=prior, grid=grid, log_thresholds=(4.0,)) for grid in [(0.5, 1.0), (1.0, 2.0)]]
        simulate_runs(tuple(specs), 1.0, 20, 50, 3)
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
        """
    )
    src = os.path.dirname(os.path.dirname(chartbank.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
