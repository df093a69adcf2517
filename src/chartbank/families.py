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

__all__ = [
    "Interval",
    "FiniteSet",
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
        if isinstance(lam, float):
            return bool(self.low <= lam <= self.high)
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
        if isinstance(lam, float):
            return lam in self.values
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
        # sample_many for one draw, bitwise: numpy's log1p on a 0-d value runs
        # the same loop as on an array (math.log1p can differ in the last bit)
        return math.floor(np.log1p(-rng.random()) / math.log1p(-self.rho)) + 1

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
        if isinstance(lam, float):  # one parameter, checked without building arrays
            if not math.isfinite(lam):
                raise ValueError("lam must be finite")
            if not self.post_params.contains(lam):
                raise ValueError(f"parameter {lam!r} outside the admissible set")
            return np.asarray(lam)
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

    @abstractmethod
    def pre_from_std(self, z: np.ndarray) -> np.ndarray:
        """Pre-change observations from standard normals z, elementwise."""

    @abstractmethod
    def post_from_std(self, lam: float, z: np.ndarray) -> np.ndarray:
        """Post-change observations at lam from standard normals z, elementwise.

        Paths map one standard-normal stream through these two, so the
        pre-change portion of a path is bitwise independent of the true
        post-change parameter, and a shorter path is a prefix of a longer one.
        """


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

    def pre_from_std(self, z):
        return self.center + self.pre_sigma * np.asarray(z, dtype=float)

    def post_from_std(self, lam, z):
        return self.center + float(lam) * np.asarray(z, dtype=float)


def _lams(families, lam_true) -> tuple[float, ...]:
    """One true parameter per source; a bank takes a float or a one-element sequence."""
    lams = np.atleast_1d(np.asarray(lam_true, dtype=float))
    if lams.shape != (len(families),):
        raise ValueError(f"{len(families)} source(s) but {lams.size} true parameter(s) in lam_true={lam_true!r}")
    return tuple(float(v) for v in lams)


def sample_path(
    family: ObservationFamily,
    prior: GeometricPrior,
    lam_true: float,
    horizon: int,
    seed,
    out: np.ndarray | None = None,
) -> tuple[int, np.ndarray]:
    """Draw a change time and a horizon-long path: ``sample_path_multi`` with one source.

    Returns (t, x) where slots 1..t-1 of x are pre-change and slots t..horizon
    are post-change (x is 0-indexed, slot n lives at x[n-1]).  ``out``
    (contiguous float64, length horizon) receives the path.
    """
    t, x = sample_path_multi((family,), prior, (lam_true,), horizon, seed, None if out is None else out[None])
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
    the same slot t.  The change time is drawn first, then one row-major
    standard-normal block that each source maps pre/post.  So two calls with
    the same seed but different true parameters share t and every
    pre-change observation bitwise, and with one source a shorter horizon
    gives a bitwise prefix of a longer one.  ``out`` (contiguous float64,
    [n_sources, horizon]) receives the block.  ``seed`` may also be a
    ``numpy.random.Generator``: the call continues its stream.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    # a tuple with one entry per source skips the array round trip; each family checks its entry
    lams = lams_true if type(lams_true) is tuple and len(lams_true) == len(families) else _lams(families, lams_true)
    for fam, lam in zip(families, lams):
        fam._check_lam(lam)
    shape = (len(families), horizon)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    rng = np.random.default_rng(seed)
    t = prior.sample(rng)
    n_pre = min(t - 1, horizon)
    rng.standard_normal(out=out)
    for i, fam in enumerate(families):
        row = out[i]  # indexed: iterating over an array costs about 1 us more
        row[:n_pre] = fam.pre_from_std(row[:n_pre])
        row[n_pre:] = fam.post_from_std(lams[i], row[n_pre:])
    return t, out
