"""Observation models and the change-time prior.

A monitored sequence is i.i.d. from a pre-change density until an unknown
slot t, and i.i.d. from a post-change density afterwards.  The post-change
parameter is known only up to a set of plausible values, so every consumer
of a family works with log likelihood ratios evaluated at candidate
parameters rather than with a single known alternative.

All log likelihood ratios are computed analytically per family kind; no
density is exponentiated and re-logged.  Divergences are in nats, slots are
1-indexed discrete time.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Interval",
    "GeometricPrior",
    "ObservationFamily",
    "GaussianMeanShift",
    "GaussianVarianceShift",
    "sample_path",
    "sample_path_multi",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval of admissible post-change parameters."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("interval endpoints must be finite")
        if not self.low < self.high:
            raise ValueError(f"need low < high, got [{self.low}, {self.high}]")

    def contains(self, lam: float | np.ndarray) -> bool:
        arr = np.asarray(lam, dtype=float)
        return bool(((arr >= self.low) & (arr <= self.high)).all())


@dataclass(frozen=True)
class GeometricPrior:
    """Geometric change-time prior: P(t = k) = rho * (1 - rho)^(k-1), k >= 1.

    ``slot_cost`` is |log(1 - rho)|, the per-slot prior penalty that every
    chart recursion adds once per observation.
    """

    rho: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho < 1.0):
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    @property
    def slot_cost(self) -> float:
        return -math.log1p(-self.rho)

    def _from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Change times of uniforms u in [0, 1), by inverse CDF.

        One uniform per draw keeps the draw count independent of the
        outcome, which downstream seed pairing relies on.
        """
        t = np.floor(np.log1p(-u) / math.log1p(-self.rho))
        if t.max(initial=0.0) >= 2.0**62:
            raise ValueError(f"rho = {self.rho!r} draws a change time past the int64 range")
        return t.astype(np.int64) + 1


def _as_float_array(x: float | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


class ObservationFamily(ABC):
    """Pre-change density plus a parametrized post-change alternative.

    The post-change densities f_lam are one parametric family, and its member
    at ``pre_param`` is the pre-change density g.  A subclass states that
    model once: ``post_params``, ``pre_param``, ``_llr``, ``_kl`` and
    ``_from_std``.  The checked divergences and llr below, path sampling,
    and design's refusal of an interval holding ``pre_param``, follow from
    these.
    """

    post_params: Interval

    @property
    @abstractmethod
    def pre_param(self) -> float:
        """The parameter at which the post-change density is the pre-change one."""

    def _check_lam(self, lam: float | np.ndarray) -> np.ndarray:
        arr = _as_float_array(lam, "lam")
        if not self.post_params.contains(arr):
            raise ValueError(f"parameter {lam!r} outside the admissible set")
        return arr

    def llr(self, lam: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
        """log f_lam(x) - log g(x), broadcasting over both arguments."""
        out = self._llr(self._check_lam(lam), _as_float_array(x, "x"))
        return float(out) if np.ndim(out) == 0 else out

    def kl_post_vs_pre(self, lam: float | np.ndarray) -> float | np.ndarray:
        """KL divergence of the post-change density at lam from the pre-change one."""
        out = self._kl(self._check_lam(lam), self.pre_param)
        return float(out) if np.ndim(out) == 0 else out

    def kl_post_vs_post(
        self, lam: float | np.ndarray, lam_other: float | np.ndarray
    ) -> float | np.ndarray:
        """KL divergence of the post-change density at lam from the one at lam_other."""
        out = self._kl(self._check_lam(lam), self._check_lam(lam_other))
        return float(out) if np.ndim(out) == 0 else out

    @abstractmethod
    def _llr(self, lam_arr: np.ndarray, x_arr: np.ndarray) -> np.ndarray:
        """``llr`` on float arrays the caller has already validated.

        The slot loop and stepped detectors check the grid once up front and
        the observations as drawn (in ``_map_std``) or once per call, then
        call this directly.
        """

    @abstractmethod
    def _kl(self, lam_arr: np.ndarray, other: float | np.ndarray) -> np.ndarray:
        """KL(f_lam, f_other) on validated parameters, broadcasting over both."""

    @abstractmethod
    def _from_std(self, param: float, z: np.ndarray) -> np.ndarray:
        """Observations of the density at ``param`` from float standard normals z."""


@dataclass(frozen=True)
class GaussianMeanShift(ObservationFamily):
    """N(pre_mean, sigma^2) shifting to N(lam, sigma^2)."""

    pre_mean: float
    sigma: float
    post_params: Interval

    def __post_init__(self) -> None:
        if not math.isfinite(self.pre_mean):
            raise ValueError("pre_mean must be finite")
        _check_positive("sigma", self.sigma)

    @property
    def pre_param(self) -> float:
        return self.pre_mean

    def _llr(self, lam_arr, x_arr):
        return (lam_arr - self.pre_mean) / self.sigma**2 * (x_arr - (self.pre_mean + lam_arr) / 2.0)

    def _kl(self, lam_arr, other):
        return (lam_arr - other) ** 2 / (2.0 * self.sigma**2)

    def _from_std(self, param, z):
        return param + self.sigma * z


@dataclass(frozen=True)
class GaussianVarianceShift(ObservationFamily):
    """N(center, pre_sigma^2) shifting to N(center, lam^2).

    The post-change parameter is the standard deviation, so lam = 2 against a
    unit pre-change scale means the variance jumps from 1 to 4.
    """

    pre_sigma: float
    post_params: Interval
    center: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("pre_sigma", self.pre_sigma)
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        if self.post_params.low <= 0:
            raise ValueError("scale parameters must be positive")

    @property
    def pre_param(self) -> float:
        return self.pre_sigma

    def _llr(self, lam_arr, x_arr):
        quad = (x_arr - self.center) ** 2 / 2.0
        return np.log(self.pre_sigma / lam_arr) + quad * (1.0 / self.pre_sigma**2 - 1.0 / lam_arr**2)

    def _kl(self, lam_arr, other):
        r = (lam_arr / other) ** 2
        return 0.5 * (r - 1.0 - np.log(r))

    def _from_std(self, param, z):
        return self.center + param * z


def _check_count(name: str, value) -> None:
    """Refuse a count that is not an integer of at least 1; a bool or a float such as 3.0 is not one."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _check_positive(name: str, value: float) -> None:
    """Refuse a value that is not a finite number above 0, such as 0, nan or inf."""
    if not (0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_alpha(alpha: float) -> None:
    """Refuse a false-alarm target outside (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _lams(families, lam_true) -> tuple[float, ...]:
    """One true parameter per source; a bank takes a float or a one-element sequence."""
    lams = np.atleast_1d(np.asarray(lam_true, dtype=float))
    if lams.shape != (len(families),):
        raise ValueError(f"{len(families)} source(s) but {lams.size} true parameter(s) in lam_true={lam_true!r}")
    return tuple(float(v) for v in lams)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); fixed by
# its stream-compatibility policy, and checked against PCG64(seed) by the tests
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool, in 32-bit words


def _seed_words(seed) -> list[int]:
    """The 32-bit words, low first, that SeedSequence takes from an integer seed or a nonempty sequence of them."""
    words = []
    for s in seed if isinstance(seed, (list, tuple, np.ndarray)) else [seed]:
        if isinstance(s, (bool, np.bool_)) or not isinstance(s, (int, np.integer)) or s < 0:
            raise ValueError(f"seed elements must be non-negative integers, got {s!r} in seed={seed!r}")
        s = int(s)
        words.append(s & _MASK32)
        while s > _MASK32:
            s >>= 32
            words.append(s & _MASK32)
    if not words:
        raise ValueError("seed must hold at least one integer")
    return words


def _pcg64_seeds(entropy: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for every row e of a block, at once.

    ``entropy`` [rows, k] (k >= _POOL) holds each row's 32-bit entropy words,
    zero-padded past ``length`` [rows]; numpy hashes a short entropy's pool
    words from 0, so padding to the pool size changes nothing.  The hash
    constants advance per call and never depend on the data, so one pass
    over columns mixes every row.
    """
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return out ^ (out >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, entropy.shape[1]):  # words past the pool, for the rows that have them
        more = length > src
        for dst in range(_POOL):
            pool[dst] = np.where(more, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hash_b = _INIT_B
    state = np.empty((entropy.shape[0], 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * np.uint32(hash_b)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Seeded(ISeedSequence):
    """Hands PCG64 one ``_run_words`` row: ``PCG64(_Seeded(words))`` is bitwise ``PCG64(seed + [r])``."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _run_words(seed, runs: range | np.ndarray) -> np.ndarray:
    """``_pcg64_seeds`` of seed + [r], [runs, 4], for each id r of a range or an int64 array of run ids.

    numpy hashes a seed list in Python-level calls, about 20 us per run; this hashes a whole block at once.
    """
    base = _seed_words(seed)
    ids = np.arange(runs.start, runs.stop, runs.step, dtype=np.int64) if isinstance(runs, range) else runs
    if ids.size and ids.min() < 0:
        raise ValueError(f"run ids must be non-negative, got {runs!r}")
    entropy = np.zeros((ids.size, max(len(base) + 2, _POOL)), dtype=np.uint32)
    entropy[:, : len(base)] = base
    entropy[:, len(base)] = ids & _MASK32
    entropy[:, len(base) + 1] = ids >> 32
    return _pcg64_seeds(entropy, len(base) + 1 + (ids > _MASK32))


# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h), high and low word
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _first_uniforms(words: np.ndarray) -> np.ndarray:
    """Each row's first ``Generator(PCG64).random()`` from its ``_run_words`` row, on uint64 arrays.

    Words 0-1 are the initial state and 2-3 the stream, high word first.
    PCG64 seeds with state 0 and inc = (stream << 1) | 1, steps, adds the
    state and steps again; a draw steps once more and takes the top 53 bits
    of the XSL-RR output.  A 128-bit value is a (high, low) pair, and the
    product of the low words runs on 32-bit limbs.
    """

    def add(a, b):
        lo = a[1] + b[1]
        return a[0] + b[0] + (lo < b[1]), lo

    def step(state, inc):  # state * multiplier + inc, mod 2**128
        (hi, lo), (m_hi, m_lo) = state, _PCG_MULT
        a0, a1, m0, m1 = lo & _MASK32, lo >> 32, m_lo & _MASK32, m_lo >> 32
        p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
        mid = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        top = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + lo * m_hi + hi * m_lo
        return add((top, (mid << 32) | (p00 & _MASK32)), inc)

    inc = ((words[:, 2] << 1) | (words[:, 3] >> 63), (words[:, 3] << 1) | 1)
    hi, lo = step(step(add(inc, (words[:, 0], words[:, 1])), inc), inc)  # the first step from 0 gives inc
    x, rot = hi ^ lo, hi >> 58
    return (((x >> rot) | (x << ((64 - rot) & 63))) >> 11) * 2.0**-53


# Cells of one source that _map_std maps at a time: 128 KB of float64, within L2.
_MAP_CELLS = 1 << 14


def _map_std(families, lams, change_points: np.ndarray, z: np.ndarray, rows: np.ndarray, lo: int) -> None:
    """Map standard normals z[rows] [rows, n_sources, w], slots lo..lo+w-1 (0-indexed), to observations in place.

    Slots before each row's change time (``change_points[row]``) map
    pre-change, the rest post-change at that source's true parameter, which
    the caller has checked.  A non-finite observation is refused here, the
    one check every drawn path passes, so the batch steps can call the
    families' unchecked llr.  Rows go a few at a time, so no temporary holds
    more than _MAP_CELLS cells.
    """
    w = z.shape[-1]
    slots = np.arange(lo, lo + w)
    step = max(1, _MAP_CELLS // w)
    for a in range(0, rows.size, step):
        r = rows[a : a + step]
        pre = slots[None, :] < change_points[r, None] - 1
        for i, (fam, lam) in enumerate(zip(families, lams)):
            zi = z[r, i]
            zi = np.where(pre, fam._from_std(fam.pre_param, zi), fam._from_std(lam, zi))
            if not np.isfinite(zi).all():
                raise ValueError("x must be finite")
            z[r, i] = zi


def sample_path(
    family: ObservationFamily,
    prior: GeometricPrior,
    lam_true: float,
    horizon: int,
    seed,
) -> tuple[int, np.ndarray]:
    """Draw a change time and a horizon-long path: ``sample_path_multi`` with one source.

    Returns (t, x) where slots 1..t-1 of x are pre-change and slots t..horizon
    are post-change (x is 0-indexed, slot n lives at x[n-1]).
    """
    t, x = sample_path_multi((family,), prior, (lam_true,), horizon, seed)
    return t, x[0]


def sample_path_multi(
    families: "list[ObservationFamily] | tuple[ObservationFamily, ...]",
    prior: GeometricPrior,
    lams_true,
    horizon: int,
    seed,
    out: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """Draw one shared change time and an [n_sources, horizon] observation block.

    ``lams_true`` holds one true parameter per source; all sources change on
    the same slot t.  The change time is drawn first, then one standard-normal
    row per source, in source order: bitwise numpy's row-major draw of the
    whole [n_sources, horizon] block.  Each source maps its row pre/post.  So
    two calls with the same seed but different true parameters share t and
    every pre-change observation bitwise, and with one source a shorter
    horizon gives a bitwise prefix of a longer one.  ``seed`` is a
    non-negative integer or a nonempty sequence of them, drawn on
    ``np.random.default_rng(seed)``'s stream, or a ``numpy.random.Generator``
    whose stream the call continues.  A non-finite observation is refused.

    Given ``out`` (float64, [rows, n_sources, horizon], contiguous along its
    last axis, so a column slice will do) and one bit generator per row as
    ``seed``, it draws every row in place as that row's own call would, and
    returns the change times as an int64 array with ``out``.
    """
    _check_count("horizon", horizon)
    lams = _lams(families, lams_true)
    for fam, lam in zip(families, lams):
        fam._check_lam(lam)
    if out is None:
        if isinstance(seed, np.random.Generator):
            bitgens = [seed.bit_generator]
        else:
            bitgens = [np.random.PCG64(np.array(_seed_words(seed), dtype=np.uint32))]
        z = np.empty((1, len(families), horizon))
    else:
        if not isinstance(seed, (list, tuple)) or len(seed) != len(out) or not all(
            isinstance(b, np.random.BitGenerator) for b in seed
        ):
            raise ValueError(f"an out block of shape {out.shape} takes one bit generator per row as seed")
        bitgens, z = seed, out
        shape = (len(bitgens), len(families), horizon)
        if out.shape != shape or out.dtype != np.float64:
            raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
        if out.size and horizon > 1 and out.strides[-1] != out.itemsize:  # as numpy's draw into each row asks
            raise ValueError(f"out must be contiguous along its last axis, got strides {out.strides}")
    u = np.empty(len(bitgens))
    for r, bitgen in enumerate(bitgens):  # per run: the change time's uniform, then the normals, row-major
        rng = np.random.Generator(bitgen)
        u[r] = rng.random()
        for zi in z[r]:
            rng.standard_normal(out=zi)
    ts = prior._from_uniform(u)
    _map_std(families, lams, ts, z, np.arange(len(bitgens)), 0)
    return (int(ts[0]), z[0]) if out is None else (ts, out)
