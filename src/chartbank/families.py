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
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "FiniteSet",
    "GeometricPrior",
    "ObservationFamily",
    "GaussianMeanShift",
    "GaussianVarianceShift",
    "GenericFamily",
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
class FiniteSet:
    """Explicit finite list of admissible post-change parameters."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("parameter set must be nonempty")
        vals = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameter values must be finite")
        if not np.all(np.diff(vals) > 0):
            raise ValueError("parameter values must be strictly increasing")

    def contains(self, lam: float | np.ndarray) -> bool:
        arr = np.atleast_1d(np.asarray(lam, dtype=float))
        return bool(np.all(np.isin(arr, np.asarray(self.values))))


ParamSet = Interval | FiniteSet


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

    @property
    def mean(self) -> float:
        return 1.0 / self.rho

    def cdf(self, k: int | np.ndarray) -> float | np.ndarray:
        k_arr = np.asarray(k)
        out = -np.expm1(np.asarray(k_arr, dtype=float) * math.log1p(-self.rho))
        out = np.where(k_arr < 1, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse-CDF on a single uniform per draw keeps the draw count
        # independent of the outcome, which downstream seed pairing relies on.
        u = rng.random(size)
        return np.floor(np.log1p(-u) / math.log1p(-self.rho)).astype(np.int64) + 1


def _as_float_array(x: float | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


class ObservationFamily(ABC):
    """Pre-change density plus a parametrized post-change alternative."""

    post_params: ParamSet

    def _check_lam(self, lam: float | np.ndarray) -> np.ndarray:
        arr = _as_float_array(lam, "lam")
        if not self.post_params.contains(arr):
            raise ValueError(f"parameter {lam!r} outside the admissible set")
        return arr

    def llr(self, lam: float | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
        """log f_lam(x) - log g(x), broadcasting over both arguments."""
        out = self._llr(self._check_lam(lam), _as_float_array(x, "x"))
        return float(out) if np.ndim(out) == 0 else out

    @abstractmethod
    def _llr(self, lam_arr: np.ndarray, x_arr: np.ndarray) -> np.ndarray:
        """``llr`` on float arrays the caller has already validated.

        Batch kernels and stepped detectors check the grid once up front and
        the observations once per block or call, then call this directly.
        """

    @abstractmethod
    def kl_post_vs_pre(self, lam: float | np.ndarray) -> float | np.ndarray:
        """KL divergence of the post-change density at lam from the pre-change one."""

    @abstractmethod
    def kl_post_vs_post(
        self, lam: float | np.ndarray, lam_other: float | np.ndarray
    ) -> float | np.ndarray:
        """KL divergence between two post-change densities."""

    @property
    def supports_paired_sampling(self) -> bool:
        """True when paths can be built from a shared standard-normal stream.

        Paired sampling makes the pre-change portion of a path bitwise
        independent of the true post-change parameter, so false-alarm
        estimates can be compared across parameters on identical draws.
        """
        return False

    def pre_from_std(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError("family has no standard-normal representation")

    def post_from_std(self, lam: float, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError("family has no standard-normal representation")

    def sample_pre(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.pre_from_std(rng.standard_normal(size))

    def sample_post(self, lam: float, rng: np.random.Generator, size: int) -> np.ndarray:
        self._check_lam(lam)
        return self.post_from_std(lam, rng.standard_normal(size))


@dataclass(frozen=True)
class GaussianMeanShift(ObservationFamily):
    """N(pre_mean, sigma^2) shifting to N(lam, sigma^2)."""

    pre_mean: float
    sigma: float
    post_params: ParamSet

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pre_mean) and math.isfinite(self.sigma)):
            raise ValueError("pre_mean and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def _llr(self, lam_arr, x_arr):
        return (lam_arr - self.pre_mean) / self.sigma**2 * (x_arr - (self.pre_mean + lam_arr) / 2.0)

    def kl_post_vs_pre(self, lam):
        lam_arr = self._check_lam(lam)
        out = (lam_arr - self.pre_mean) ** 2 / (2.0 * self.sigma**2)
        return float(out) if np.ndim(out) == 0 else out

    def kl_post_vs_post(self, lam, lam_other):
        lam_arr = self._check_lam(lam)
        other_arr = self._check_lam(lam_other)
        out = (lam_arr - other_arr) ** 2 / (2.0 * self.sigma**2)
        return float(out) if np.ndim(out) == 0 else out

    @property
    def supports_paired_sampling(self) -> bool:
        return True

    def pre_from_std(self, z):
        return self.pre_mean + self.sigma * np.asarray(z, dtype=float)

    def post_from_std(self, lam, z):
        return float(lam) + self.sigma * np.asarray(z, dtype=float)


@dataclass(frozen=True)
class GaussianVarianceShift(ObservationFamily):
    """N(center, pre_sigma^2) shifting to N(center, lam^2).

    The post-change parameter is the standard deviation, so lam = 2 against a
    unit pre-change scale means the variance jumps from 1 to 4.
    """

    pre_sigma: float
    post_params: ParamSet
    center: float = 0.0

    def __post_init__(self) -> None:
        if self.pre_sigma <= 0 or not math.isfinite(self.pre_sigma):
            raise ValueError(f"pre_sigma must be positive, got {self.pre_sigma}")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")
        lows = self.post_params.low if isinstance(self.post_params, Interval) else min(self.post_params.values)
        if lows <= 0:
            raise ValueError("scale parameters must be positive")

    def _llr(self, lam_arr, x_arr):
        quad = (x_arr - self.center) ** 2 / 2.0
        return np.log(self.pre_sigma / lam_arr) + quad * (1.0 / self.pre_sigma**2 - 1.0 / lam_arr**2)

    def kl_post_vs_pre(self, lam):
        lam_arr = self._check_lam(lam)
        r = (lam_arr / self.pre_sigma) ** 2
        out = 0.5 * (r - 1.0 - np.log(r))
        return float(out) if np.ndim(out) == 0 else out

    def kl_post_vs_post(self, lam, lam_other):
        lam_arr = self._check_lam(lam)
        other_arr = self._check_lam(lam_other)
        r = (lam_arr / other_arr) ** 2
        out = 0.5 * (r - 1.0 - np.log(r))
        return float(out) if np.ndim(out) == 0 else out

    @property
    def supports_paired_sampling(self) -> bool:
        return True

    def pre_from_std(self, z):
        return self.center + self.pre_sigma * np.asarray(z, dtype=float)

    def post_from_std(self, lam, z):
        return self.center + float(lam) * np.asarray(z, dtype=float)


@dataclass(frozen=True)
class GenericFamily(ObservationFamily):
    """Family given by log-density callables and samplers.

    ``log_pre`` and ``log_post`` must accept numpy arrays.  Divergences are
    estimated by Monte Carlo with a declared sample count and seed; use
    ``kl_post_vs_pre_detail`` when the standard error matters.
    """

    post_params: ParamSet
    log_pre: Callable[[np.ndarray], np.ndarray]
    log_post: Callable[[float, np.ndarray], np.ndarray]
    pre_sampler: Callable[[np.random.Generator, int], np.ndarray]
    post_sampler: Callable[[float, np.random.Generator, int], np.ndarray]
    kl_mc_samples: int = 200_000
    kl_mc_seed: int = 0

    def __post_init__(self) -> None:
        if self.kl_mc_samples < 100:
            raise ValueError("kl_mc_samples too small for a usable estimate")

    def _llr(self, lam_arr, x_arr):
        if np.ndim(lam_arr) == 0:
            out = self.log_post(float(lam_arr), x_arr) - self.log_pre(x_arr)
        else:
            lam_b, x_b = np.broadcast_arrays(lam_arr, x_arr)
            out = np.empty(lam_b.shape)
            flat_lam, flat_x = lam_b.ravel(), x_b.ravel()
            flat_out = out.ravel()
            for i, (lv, xv) in enumerate(zip(flat_lam, flat_x)):
                flat_out[i] = self.log_post(float(lv), np.asarray(xv)) - self.log_pre(np.asarray(xv))
        flat = np.atleast_1d(np.asarray(out, dtype=float))
        if np.any(np.isnan(flat)) or np.any(np.isposinf(flat)):
            raise ValueError("log likelihood ratio undefined; observation outside support?")
        return out

    def kl_post_vs_pre_detail(self, lam: float) -> tuple[float, float]:
        """Monte Carlo divergence estimate, returned as (value, standard error)."""
        lam_f = float(self._check_lam(lam))
        rng = np.random.default_rng([self.kl_mc_seed, np.float64(lam_f).view(np.uint64)])
        xs = self.post_sampler(lam_f, rng, self.kl_mc_samples)
        vals = np.asarray(self.log_post(lam_f, xs)) - np.asarray(self.log_pre(xs))
        return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))

    def kl_post_vs_pre(self, lam):
        if np.ndim(lam) > 0:
            return np.array([self.kl_post_vs_pre(float(v)) for v in np.asarray(lam).ravel()]).reshape(np.shape(lam))
        return self.kl_post_vs_pre_detail(float(lam))[0]

    def kl_post_vs_post(self, lam, lam_other):
        if np.ndim(lam) > 0 or np.ndim(lam_other) > 0:
            lam_b, other_b = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(lam_other, dtype=float))
            out = np.empty(lam_b.shape)
            for i, (lv, ov) in enumerate(zip(lam_b.ravel(), other_b.ravel())):
                out.ravel()[i] = self.kl_post_vs_post(float(lv), float(ov))
            return out
        lam_f = float(self._check_lam(lam))
        other_f = float(self._check_lam(lam_other))
        rng = np.random.default_rng(
            [self.kl_mc_seed, np.float64(lam_f).view(np.uint64), np.float64(other_f).view(np.uint64)]
        )
        xs = self.post_sampler(lam_f, rng, self.kl_mc_samples)
        vals = np.asarray(self.log_post(lam_f, xs)) - np.asarray(self.log_post(other_f, xs))
        return float(vals.mean())

    def sample_pre(self, rng, size):
        return np.asarray(self.pre_sampler(rng, size), dtype=float)

    def sample_post(self, lam, rng, size):
        self._check_lam(lam)
        return np.asarray(self.post_sampler(float(lam), rng, size), dtype=float)


def _std_to_path(family: ObservationFamily, lam: float, n_pre: int, x: np.ndarray) -> None:
    """Map the standard normals in x to observations in place: pre-change before n_pre."""
    x[:n_pre] = family.pre_from_std(x[:n_pre])
    x[n_pre:] = family.post_from_std(lam, x[n_pre:])


def _draw_path(family: ObservationFamily, lam: float, rng: np.random.Generator, n_pre: int, x: np.ndarray) -> None:
    """Fill x with n_pre pre-change draws, then post-change draws, from the family's samplers."""
    if n_pre:
        x[:n_pre] = family.sample_pre(rng, n_pre)
    if x.size - n_pre:
        x[n_pre:] = family.sample_post(lam, rng, x.size - n_pre)


def _out_block(out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    return out


def sample_path(
    family: ObservationFamily,
    prior: GeometricPrior,
    lam_true: float,
    horizon: int,
    seed,
    out: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """Draw a change time and a horizon-long observation path.

    Returns (t, x) where slots 1..t-1 of x are pre-change and slots t..horizon
    are post-change (x is 0-indexed, slot n lives at x[n-1]).  The change time
    is drawn first and the observation noise afterwards, so two calls with the
    same seed but different lam_true share the change time and, for families
    with a standard-normal representation, every pre-change observation
    bitwise.  For those families a shorter horizon also gives a bitwise prefix
    of a longer one.  With ``out`` (contiguous float64, length horizon) the
    path is written there, so a caller can fill the rows of one block.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    family._check_lam(lam_true)
    x = _out_block(out, (horizon,))
    rng = np.random.default_rng(seed)
    t = prior.sample(rng)
    n_pre = min(t - 1, horizon)
    if family.supports_paired_sampling:
        rng.standard_normal(out=x)
        _std_to_path(family, lam_true, n_pre, x)
    else:
        _draw_path(family, lam_true, rng, n_pre, x)
    return t, x


def sample_path_multi(
    families: "list[ObservationFamily] | tuple[ObservationFamily, ...]",
    prior: GeometricPrior,
    lams_true,
    horizon: int,
    seed,
    out: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """Draw one shared change time and an [n_sources, horizon] observation block.

    All sources switch to their post-change densities on the same slot t.
    Draw order (change time first, then a fixed-shape noise block) matches
    ``sample_path`` so pre-change draws stay pairable across true parameters.
    ``out`` works as in ``sample_path``, with shape [n_sources, horizon].
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    lams = [float(v) for v in np.atleast_1d(np.asarray(lams_true, dtype=float))]
    if len(lams) != len(families):
        raise ValueError(f"{len(families)} sources but {len(lams)} true parameters")
    for fam, lam in zip(families, lams):
        fam._check_lam(lam)
    x = _out_block(out, (len(families), horizon))
    rng = np.random.default_rng(seed)
    t = prior.sample(rng)
    n_pre = min(t - 1, horizon)
    if all(f.supports_paired_sampling for f in families):
        rng.standard_normal(out=x)
        for fam, lam, row in zip(families, lams, x):
            _std_to_path(fam, lam, n_pre, row)
    else:
        for fam, lam, row in zip(families, lams, x):
            _draw_path(fam, lam, rng, n_pre, row)
    return t, x
