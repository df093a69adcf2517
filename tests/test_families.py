import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from chartbank import (
    FiniteSet,
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    sample_path,
    sample_path_multi,
)
from chartbank.families import _bit_generators
from conftest import gaussian_logpdf, quadrature_kl


class TestParamSets:
    def test_interval_contains_endpoints(self):
        iv = Interval(0.4, 2.8)
        assert iv.contains(0.4) and iv.contains(2.8) and iv.contains(1.0)
        assert not iv.contains(0.39999) and not iv.contains(2.80001)

    def test_interval_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_finite_set_membership(self):
        fs = FiniteSet((0.4, 1.6, 2.8))
        assert fs.contains(1.6)
        assert not fs.contains(1.0)

    @pytest.mark.parametrize(
        "params, lam, admitted",
        [
            (Interval(0.4, 2.8), 0.4, True),
            (Interval(0.4, 2.8), 2.8, True),
            (Interval(0.4, 2.8), 2.81, False),
            (Interval(0.4, 2.8), math.nan, False),
            (FiniteSet((0.4, 1.6)), 1.6, True),
            (FiniteSet((0.4, 1.6)), 1.0, False),
        ],
    )
    def test_scalar_and_array_membership_agree(self, params, lam, admitted):
        # a float takes a path that builds no array; it must answer alike
        assert params.contains(lam) is admitted
        assert params.contains(np.float64(lam)) is admitted
        assert params.contains(np.array([lam])) is admitted

    def test_finite_set_requires_increasing(self):
        with pytest.raises(ValueError):
            FiniteSet((1.0, 1.0))
        with pytest.raises(ValueError):
            FiniteSet((2.0, 1.0))
        with pytest.raises(ValueError):
            FiniteSet(())


class TestGeometricPrior:
    def test_rho_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                GeometricPrior(bad)

    def test_slot_cost_and_mean(self):
        prior = GeometricPrior(0.01)
        assert prior.slot_cost == pytest.approx(0.010050335853501442, abs=0, rel=1e-15)
        assert prior.mean == pytest.approx(100.0)

    def test_cdf_frozen_value(self):
        # P(t <= 10) = 1 - 0.99^10, evaluated independently with expm1
        assert GeometricPrior(0.01).cdf(10) == pytest.approx(
            0.09561792499119552, abs=0, rel=1e-15
        )

    def test_cdf_edges(self):
        prior = GeometricPrior(0.25)
        assert prior.cdf(0) == 0.0
        assert prior.cdf(1) == pytest.approx(0.25)

    @given(st.floats(min_value=1e-4, max_value=0.999), st.integers(1, 300))
    def test_cdf_matches_direct_sum(self, rho, n):
        direct = sum(rho * (1 - rho) ** (k - 1) for k in range(1, n + 1))
        assert GeometricPrior(rho).cdf(n) == pytest.approx(direct, rel=1e-9)

    def test_sample_matches_scipy_inverse_cdf(self):
        # the inverse-CDF formula against scipy's ppf on a grid of uniforms
        prior = GeometricPrior(0.07)
        us = np.linspace(1e-6, 1 - 1e-6, 5001)
        ours = np.floor(np.log1p(-us) / math.log1p(-prior.rho)) + 1.0
        ref = stats.geom.ppf(us, prior.rho)
        # ppf uses ceil(log(1-u)/log(1-rho)); the two agree except exactly on
        # atoms, which the continuous uniform grid avoids
        assert np.array_equal(ours, ref)

    def test_sample_empirical_mean(self):
        prior = GeometricPrior(0.05)
        draws = prior.sample_many(np.random.default_rng(11), 20_000)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 20.0) < 5 * se
        assert draws.min() >= 1
        assert draws.dtype == np.int64

    def test_sample_deterministic(self):
        prior = GeometricPrior(0.3)
        a = prior.sample_many(np.random.default_rng(9), 50)
        b = prior.sample_many(np.random.default_rng(9), 50)
        assert np.array_equal(a, b)


class TestGaussianMeanShift:
    def setup_method(self):
        self.family = GaussianMeanShift(
            pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0)
        )

    def test_llr_vs_logpdf_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.normal(0, 2))
            lam = float(rng.uniform(0.2, 3.0))
            expected = gaussian_logpdf(x, lam, 1.0) - gaussian_logpdf(x, 0.0, 1.0)
            assert self.family.llr(lam, x) == pytest.approx(expected, abs=1e-12)

    def test_llr_vectorized(self):
        xs = np.array([-1.0, 0.0, 2.5])
        out = self.family.llr(1.0, xs)
        assert out.shape == (3,)
        for x, o in zip(xs, out):
            assert o == pytest.approx(self.family.llr(1.0, float(x)))

    def test_llr_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            self.family.llr(5.0, 0.0)

    def test_kl_closed_forms_vs_quadrature(self):
        got = self.family.kl_post_vs_pre(1.3)
        ref = quadrature_kl(
            lambda x: gaussian_logpdf(x, 1.3, 1.0),
            lambda x: gaussian_logpdf(x, 0.0, 1.0),
            -12,
            14,
        )
        assert got == pytest.approx(ref, rel=1e-9)
        got2 = self.family.kl_post_vs_post(0.6, 2.4)
        ref2 = quadrature_kl(
            lambda x: gaussian_logpdf(x, 0.6, 1.0),
            lambda x: gaussian_logpdf(x, 2.4, 1.0),
            -12,
            14,
        )
        assert got2 == pytest.approx(ref2, rel=1e-9)

    def test_scaled_family_kl(self):
        fam = GaussianMeanShift(pre_mean=1.0, sigma=2.0, post_params=Interval(1.5, 6.0))
        assert fam.kl_post_vs_pre(3.0) == pytest.approx((3.0 - 1.0) ** 2 / 8.0)

    def test_paired_sampling_is_shifted_noise(self):
        z = np.array([-0.7, 0.0, 1.9])
        pre = self.family.pre_from_std(z)
        post = self.family.post_from_std(2.0, z)
        assert np.array_equal(post, pre + 2.0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianMeanShift(pre_mean=0.0, sigma=0.0, post_params=Interval(1, 2))


class TestGaussianVarianceShift:
    def setup_method(self):
        self.family = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.1, 3.0))

    def test_llr_frozen_at_origin(self):
        # at x = 0 only the normalization ratio survives
        assert self.family.llr(2.0, 0.0) == pytest.approx(
            -0.6931471805599453, abs=0, rel=1e-15
        )

    def test_llr_vs_logpdf_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = float(rng.normal(0, 2))
            lam = float(rng.uniform(1.1, 3.0))
            expected = gaussian_logpdf(x, 0.0, lam) - gaussian_logpdf(x, 0.0, 1.0)
            assert self.family.llr(lam, x) == pytest.approx(expected, abs=1e-12)

    def test_kl_frozen_and_quadrature(self):
        got = self.family.kl_post_vs_pre(2.0)
        assert got == pytest.approx(0.8068528194400547, abs=0, rel=1e-12)
        ref = quadrature_kl(
            lambda x: gaussian_logpdf(x, 0.0, 2.0),
            lambda x: gaussian_logpdf(x, 0.0, 1.0),
            -24,
            24,
        )
        assert got == pytest.approx(ref, rel=1e-9)

    def test_kl_post_vs_post_quadrature(self):
        got = self.family.kl_post_vs_post(1.4, 2.6)
        ref = quadrature_kl(
            lambda x: gaussian_logpdf(x, 0.0, 1.4),
            lambda x: gaussian_logpdf(x, 0.0, 2.6),
            -20,
            20,
        )
        assert got == pytest.approx(ref, rel=1e-9)

    def test_centered_family(self):
        fam = GaussianVarianceShift(
            pre_sigma=1.0, post_params=Interval(1.1, 3.0), center=5.0
        )
        # shifting x and the center together leaves the ratio unchanged
        assert fam.llr(2.0, 5.7) == pytest.approx(self.family.llr(2.0, 0.7))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            GaussianVarianceShift(pre_sigma=-1.0, post_params=Interval(1.1, 3.0))

    def test_paired_sampling_scales_noise(self):
        z = np.array([-0.7, 0.0, 1.9])
        pre = self.family.pre_from_std(z)
        post = self.family.post_from_std(2.5, z)
        assert np.allclose(post, pre * 2.5)


class TestSamplePath:
    def setup_method(self):
        self.family = GaussianMeanShift(
            pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0)
        )
        self.prior = GeometricPrior(0.05)

    def test_shapes_and_change_slot(self):
        t, x = sample_path(self.family, self.prior, 1.0, horizon=200, seed=[3, 1])
        assert x.shape == (200,)
        assert t >= 1

    def test_deterministic_in_seed(self):
        t1, x1 = sample_path(self.family, self.prior, 1.0, 100, seed=[4, 2])
        t2, x2 = sample_path(self.family, self.prior, 1.0, 100, seed=[4, 2])
        assert t1 == t2
        assert np.array_equal(x1, x2)

    def test_pre_change_segment_invariant_to_true_parameter(self):
        # the same seed must yield bitwise-identical pre-change draws no
        # matter which post-change parameter is simulated
        for run in range(20):
            ta, xa = sample_path(self.family, self.prior, 0.5, 150, seed=[7, run])
            tb, xb = sample_path(self.family, self.prior, 2.5, 150, seed=[7, run])
            assert ta == tb
            cut = min(ta - 1, 150)
            assert np.array_equal(xa[:cut], xb[:cut])
            if cut < 150:
                assert not np.array_equal(xa[cut:], xb[cut:])

    def test_post_change_mean_shifts(self):
        rng_mean = []
        for run in range(300):
            t, x = sample_path(self.family, self.prior, 2.0, 60, seed=[8, run])
            if t <= 30:
                rng_mean.append(x[t - 1 :].mean())
        assert abs(np.mean(rng_mean) - 2.0) < 0.1

    def test_multi_source_paths(self):
        fams = [
            GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.1, 3.0))
            for _ in range(3)
        ]
        t, x = sample_path_multi(fams, self.prior, (1.5, 2.0, 2.5), 120, seed=[9, 0])
        assert x.shape == (3, 120)
        assert t >= 1
        # sources are driven by independent noise
        assert not np.array_equal(x[0], x[1])
        t2, x2 = sample_path_multi(fams, self.prior, (1.5, 2.0, 2.5), 120, seed=[9, 0])
        assert t == t2 and np.array_equal(x, x2)

    def test_multi_source_shared_change_slot(self):
        fams = [
            GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.1, 4.0))
            for _ in range(2)
        ]
        # with a huge shift the sample variance jumps at the same slot in
        # both sources
        t, x = sample_path_multi(fams, self.prior, (3.9, 3.9), 400, seed=[10, 4])
        if t <= 360:
            post = x[:, t - 1 :]
            assert (np.abs(post) > 2.0).mean() > 0.3

    def test_rejects_wrong_arity(self):
        fams = [self.family, self.family]
        with pytest.raises(ValueError):
            sample_path_multi(fams, self.prior, (1.0,), 50, seed=0)

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True], ids=repr)
    def test_rejects_a_horizon_that_is_not_an_integer(self, horizon):
        # numpy used to raise a TypeError that named no argument
        with pytest.raises(ValueError, match="horizon must be an integer"):
            sample_path(self.family, self.prior, 1.0, horizon, seed=0)
        with pytest.raises(ValueError, match="horizon must be an integer"):
            sample_path_multi([self.family, self.family], self.prior, (1.0, 2.0), horizon, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    # entries past 2**32 span several 32-bit words of the seed
    words=st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=4),
    as_generator=st.booleans(),
    rho=st.floats(min_value=1e-4, max_value=0.9),
    lam=st.floats(min_value=0.2, max_value=3.0),
    horizon=st.integers(min_value=1, max_value=300),
)
def test_sample_path_is_the_one_source_multi_draw(words, as_generator, rho, lam, horizon):
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    prior = GeometricPrior(rho)
    seeds = [np.random.default_rng(words) if as_generator else words for _ in range(2)]
    t, x = sample_path(family, prior, lam, horizon, seeds[0])
    t_multi, x_multi = sample_path_multi([family], prior, (lam,), horizon, seeds[1])
    assert t == t_multi and x.shape == (horizon,) and x_multi.shape == (1, horizon)
    assert x.tobytes() == x_multi[0].tobytes()
    if as_generator:  # both leave the stream at the same point
        assert seeds[0].random() == seeds[1].random()


@settings(max_examples=30)
@given(
    rho=st.floats(min_value=0.001, max_value=0.5),
    lam=st.floats(min_value=0.2, max_value=3.0),
)
def test_prior_and_family_compose(rho, lam):
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    prior = GeometricPrior(rho)
    assert prior.slot_cost > 0
    assert family.kl_post_vs_pre(lam) > 0
    assert family.kl_post_vs_post(lam, lam) == 0.0


# 32-bit word edges of a seed element: one word, the largest one-word value,
# two words and three
WORD_EDGES = (0, 1, 2**32 - 1, 2**32, 2**64)


@settings(max_examples=80, deadline=None)
@given(
    base=st.lists(st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)), min_size=1, max_size=3),
    # a second 2048-run block, and run ids that cross into two words
    lo=st.one_of(st.integers(0, 3000), st.sampled_from([2048, 2**32 - 3])),
    n=st.integers(1, 6),
)
def test_block_seeding_is_numpys_pcg64(base, lo, n):
    # the vectorised SeedSequence mixing must give numpy's PCG64 state for
    # entropy shorter and longer than its four-word pool
    runs = range(lo, lo + n)
    bitgens = _bit_generators(base, runs)
    assert len(bitgens) == n
    for r, bitgen in zip(runs, bitgens):
        assert bitgen.state == np.random.PCG64(base + [r]).state
        first = np.random.Generator(bitgen).random(3)
        assert first.tobytes() == np.random.default_rng(base + [r]).random(3).tobytes()


def test_integer_seed_is_a_one_element_base():
    runs = range(5, 9)
    for r, bitgen in zip(runs, _bit_generators(np.int64(7), runs)):
        assert bitgen.state == np.random.PCG64([7, r]).state
    assert _bit_generators(2**64)[0].state == np.random.PCG64(2**64).state


# Seed elements numpy would truncate, reinterpret or refuse unclearly
BAD_SEEDS = [[0.9, 1], 0.9, [np.float64(2.0), 1], True, [True, 1], [np.True_, 1], -1, [0, -1], "7", [None]]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_per_run_draws_refuse_non_integer_seed_elements(seed):
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    prior = GeometricPrior(0.05)
    with pytest.raises(ValueError, match="seed elements must be non-negative integers"):
        sample_path(family, prior, 1.0, 10, seed)
    with pytest.raises(ValueError, match="seed elements must be non-negative integers"):
        sample_path_multi([family, family], prior, (1.0, 2.0), 10, seed)


@pytest.mark.parametrize("seed", [3, [3, 4], "one-row"], ids=["int", "int-list", "too-few-bit-generators"])
def test_block_draw_takes_one_bit_generator_per_row(seed):
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    if seed == "one-row":
        seed = _bit_generators(0, range(1))
    with pytest.raises(ValueError, match="one bit generator per row"):
        sample_path_multi((family,), GeometricPrior(0.05), (1.0,), 10, seed, out=np.empty((2, 1, 10)))


def test_per_run_draws_take_multi_word_seeds():
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    prior = GeometricPrior(0.05)
    for seed in (2**64, [2**64, 3], [np.uint64(2**63), 0]):
        t, x = sample_path(family, prior, 1.0, 40, seed)
        t_ref, x_ref = sample_path(family, prior, 1.0, 40, np.random.default_rng(seed))
        assert t == t_ref and x.tobytes() == x_ref.tobytes()
    with pytest.raises(ValueError, match="at least one integer"):
        sample_path(family, prior, 1.0, 10, [])
