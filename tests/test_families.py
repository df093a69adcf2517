import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from chartbank.families import _first_uniforms, _run_words, _Seeded, _seed_words
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
        # a float, a numpy scalar and a one-element array must answer alike
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

    def test_sample_matches_scipy_inverse_cdf(self):
        # the change-time draw against scipy's ppf on a grid of uniforms
        prior = GeometricPrior(0.07)
        us = np.linspace(1e-6, 1 - 1e-6, 5001)
        ours = prior._from_uniform(us)
        ref = stats.geom.ppf(us, prior.rho)
        # ppf uses ceil(log(1-u)/log(1-rho)); the two agree except exactly on
        # atoms, which the continuous uniform grid avoids
        assert np.array_equal(ours, ref)

    def test_sample_empirical_mean(self):
        prior = GeometricPrior(0.05)
        draws = prior._from_uniform(np.random.default_rng(11).random(20_000))
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 20.0) < 5 * se
        assert draws.min() >= 1
        assert draws.dtype == np.int64

    def test_sample_deterministic(self):
        prior = GeometricPrior(0.3)
        a = prior._from_uniform(np.random.default_rng(9).random(50))
        b = prior._from_uniform(np.random.default_rng(9).random(50))
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
        pre = self.family._from_std(self.family.pre_param, z)
        post = self.family._from_std(2.0, z)
        assert np.array_equal(post, pre + 2.0)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            GaussianMeanShift(pre_mean=0.0, sigma=0.0, post_params=Interval(1, 2))
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be positive"):
                GaussianMeanShift(pre_mean=0.0, sigma=sigma, post_params=Interval(1, 2))
        with pytest.raises(ValueError, match="pre_mean must be finite"):
            GaussianMeanShift(pre_mean=math.nan, sigma=1.0, post_params=Interval(1, 2))


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
        for pre_sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="pre_sigma must be positive"):
                GaussianVarianceShift(pre_sigma=pre_sigma, post_params=Interval(1.1, 3.0))

    def test_paired_sampling_scales_noise(self):
        z = np.array([-0.7, 0.0, 1.9])
        pre = self.family._from_std(self.family.pre_param, z)
        post = self.family._from_std(2.5, z)
        assert np.allclose(post, pre * 2.5)


# Divergences and sampling maps of both families, as float.hex, at a non-zero
# pre-change mean and centre: scalar arguments, an outer product of three
# parameters, and five standard normals.
PIN_Z = np.array([-2.3, -0.4, 0.0, 0.9, 3.1])
PIN_FAMILIES = {
    "mean": (
        GaussianMeanShift(pre_mean=0.25, sigma=1.5, post_params=Interval(-3.0, 4.0)),
        1.3,
        np.array([-2.0, 0.5, 3.7]),
    ),
    "variance": (
        GaussianVarianceShift(pre_sigma=1.2, post_params=Interval(0.3, 5.0), center=-0.7),
        2.2,
        np.array([0.4, 1.9, 4.6]),
    ),
}
PINS = {
    ("mean", "kl_pre_scalar"): ["0x1.f5c28f5c28f5cp-3"],
    ("mean", "kl_pre_array"): ["0x1.2000000000000p+0", "0x1.c71c71c71c71cp-7", "0x1.528f5c28f5c2ap+1"],
    ("mean", "kl_post_scalar"): ["0x1.35c28f5c28f5cp+1"],
    ("mean", "kl_post_outer"): [
        "0x0.0p+0", "0x1.638e38e38e38ep+0", "0x1.ce147ae147ae2p+2",
        "0x1.638e38e38e38ep+0", "0x0.0p+0", "0x1.23456789abce0p+1",
        "0x1.ce147ae147ae2p+2", "0x1.23456789abce0p+1", "0x0.0p+0",
    ],
    ("mean", "pre_from_std"): [
        "-0x1.9999999999999p+1", "-0x1.6666666666668p-2", "0x1.0000000000000p-2",
        "0x1.999999999999ap+0", "0x1.399999999999ap+2",
    ],
    ("mean", "post_from_std"): [
        "-0x1.1333333333332p+1", "0x1.6666666666666p-1", "0x1.4cccccccccccdp+0",
        "0x1.5333333333334p+1", "0x1.7cccccccccccdp+2",
    ],
    ("variance", "kl_pre_scalar"): ["0x1.261a5881e7f49p-1"],
    ("variance", "kl_pre_array"): ["0x1.4eef167212286p-1", "0x1.2cfe944b03e11p-2", "0x1.6039238853c40p+2"],
    ("variance", "kl_post_scalar"): ["0x1.9d72b420fd5ccp+3"],
    ("variance", "kl_post_outer"): [
        "0x0.0p+0", "0x1.148ee3139b8d2p+0", "0x1.f2356db000fdep+0",
        "0x1.2723ade5e1a71p+3", "0x0.0p+0", "0x1.e0c5e2ca229a7p-2",
        "0x1.f97612c1ecda7p+5", "0x1.8bea67fe3eab9p+0", "0x0.0p+0",
    ],
    ("variance", "pre_from_std"): [
        "-0x1.bae147ae147aep+1", "-0x1.2e147ae147ae1p+0", "-0x1.6666666666666p-1",
        "0x1.851eb851eb854p-2", "0x1.828f5c28f5c28p+1",
    ],
    ("variance", "post_from_std"): [
        "-0x1.70a3d70a3d70ap+2", "-0x1.947ae147ae148p+0", "-0x1.6666666666666p-1",
        "0x1.47ae147ae147cp+0", "0x1.87ae147ae147cp+2",
    ],
}


@pytest.mark.parametrize("kind, output", sorted(PINS))
def test_family_outputs_hold_their_bits(kind, output):
    fam, lam, lams = PIN_FAMILIES[kind]
    got = {
        "kl_pre_scalar": lambda: fam.kl_post_vs_pre(lam),
        "kl_pre_array": lambda: fam.kl_post_vs_pre(lams),
        "kl_post_scalar": lambda: fam.kl_post_vs_post(lam, lams[0]),
        "kl_post_outer": lambda: fam.kl_post_vs_post(lams[:, None], lams[None, :]),
        "pre_from_std": lambda: fam._from_std(fam.pre_param, PIN_Z),
        "post_from_std": lambda: fam._from_std(lam, PIN_Z),
    }[output]()
    if output.endswith("scalar"):
        assert type(got) is float
    assert [float(v).hex() for v in np.ravel(got)] == PINS[kind, output]


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


def run_bit_generators(seed, runs):
    """One PCG64 per run, built from its seed words as draw_paths builds it."""
    return [np.random.PCG64(_Seeded(words)) for words in _run_words(seed, runs)]


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
    bitgens = run_bit_generators(base, runs)
    assert len(bitgens) == n
    for r, bitgen in zip(runs, bitgens):
        assert bitgen.state == np.random.PCG64(base + [r]).state
        first = np.random.Generator(bitgen).random(3)
        assert first.tobytes() == np.random.default_rng(base + [r]).random(3).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    # seeds of one to three elements, words at and above 2**31 among them
    base=st.lists(st.one_of(st.sampled_from(WORD_EDGES + (2**31, 2**63)), st.integers(0, 2**70)), min_size=1, max_size=3),
    # run ids on both sides of 2**32, and none at all
    ids=st.lists(st.one_of(st.integers(0, 5000), st.integers(2**32 - 3, 2**32 + 3), st.integers(0, 2**62)), max_size=8),
    rho=st.sampled_from([1e-4, 0.01, 0.5]),
)
@example(base=[0, 0], ids=[], rho=0.01)
@example(base=[0, 0], ids=[0, 2**32 - 1, 2**32], rho=0.01)
def test_first_uniforms_are_numpys_first_draws(base, ids, rho):
    # the change-time pre-pass must read each run's first uniform off its seed words, as the run's own draw does
    ids = np.array(ids, dtype=np.int64)
    u = _first_uniforms(_run_words(base, ids))
    assert u.tobytes() == np.array([np.random.default_rng(base + [r]).random() for r in ids.tolist()]).tobytes()
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    prior = GeometricPrior(rho)
    out = np.empty((ids.size, 1, 3))
    ts, _ = sample_path_multi((family,), prior, (1.0,), 3, run_bit_generators(base, ids), out=out)
    assert np.array_equal(prior._from_uniform(u), ts)


def test_integer_seed_is_a_one_element_base():
    runs = range(5, 9)
    for r, bitgen in zip(runs, run_bit_generators(np.int64(7), runs)):
        assert bitgen.state == np.random.PCG64([7, r]).state
    # a lone seed's generator, as sample_path_multi builds it
    assert np.random.PCG64(np.array(_seed_words(2**64), dtype=np.uint32)).state == np.random.PCG64(2**64).state


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
        seed = run_bit_generators(0, range(1))
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


@pytest.mark.parametrize("shape", [(3, 2, 10)], ids=["block"])
def test_out_refuses_a_strided_last_axis(shape):
    # numpy draws only into a contiguous run of memory, so a strided row is refused by name
    family = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.2, 3.0))
    out = np.empty((*shape[:-1], 2 * shape[-1]))[..., ::2]
    seed = run_bit_generators(0, range(shape[0]))
    with pytest.raises(ValueError, match="out must be contiguous along its last axis"):
        sample_path_multi([family, family], GeometricPrior(0.05), (1.0, 2.0), 10, seed, out=out)
