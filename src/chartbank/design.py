"""Offline design: candidate grids, alarm thresholds and delay benchmarks.

A finite candidate grid stands in for a continuum of admissible post-change
parameters.  The design criterion keeps the relative delay penalty of the
nearest candidate below a chosen epsilon everywhere:

    min over candidates of KL(f_lam, f_cand)
    -----------------------------------------  <= epsilon   for all lam,
    KL(f_lam, g) + slot_cost

where the denominator is the full post-change drift at lam.  Two
constructions are offered: a uniform spacing backed by a Lipschitz bound on
the candidate-to-candidate divergence (simple, conservative), and a greedy
mesh cover that places candidates only where the criterion needs them (near
the pre-change density, where drift is scarce, candidates crowd; far from
it they thin out).  Either way the emitted grid is re-verified on a dense
mesh before being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .families import (
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    ObservationFamily,
)

__all__ = [
    "DesignSpec",
    "design_grid",
    "verify_grid",
    "threshold_for",
    "add_lower_bound",
    "efficiency",
    "default_lipschitz_constant",
]


@dataclass(frozen=True)
class DesignSpec:
    """Inputs for grid design over a closed parameter interval.

    ``lipschitz_k`` selects the uniform-spacing construction when set; the
    greedy mesh cover runs otherwise.
    """

    family: ObservationFamily
    interval: Interval
    epsilon: float
    prior: GeometricPrior
    lipschitz_k: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.family.post_params.contains(np.array([self.interval.low, self.interval.high])):
            raise ValueError("design interval must lie inside the family's admissible set")
        if self.lipschitz_k is not None and self.lipschitz_k <= 0:
            raise ValueError(f"lipschitz_k must be positive, got {self.lipschitz_k}")


def _indistinguishable_point(family: ObservationFamily) -> float | None:
    """Parameter at which the post-change density collapses onto the pre-change one."""
    if isinstance(family, GaussianMeanShift):
        return family.pre_mean
    if isinstance(family, GaussianVarianceShift):
        return family.pre_sigma
    return None


def _mesh_and_denominator(spec: DesignSpec, mesh_points: int) -> tuple[np.ndarray, np.ndarray]:
    if mesh_points < 2:
        raise ValueError("mesh needs at least 2 points")
    zero = _indistinguishable_point(spec.family)
    if zero is not None and spec.interval.contains(zero):
        raise ValueError(
            "design interval contains a parameter indistinguishable from the pre-change density"
        )
    mesh = np.linspace(spec.interval.low, spec.interval.high, mesh_points)
    kl_pre = np.atleast_1d(np.asarray(spec.family.kl_post_vs_pre(mesh), dtype=float))
    if np.any(kl_pre <= 0):
        raise ValueError(
            "design interval contains a parameter indistinguishable from the pre-change density"
        )
    return mesh, kl_pre + spec.prior.slot_cost


def design_grid(spec: DesignSpec, mesh_points: int = 1000, max_candidates: int = 4096) -> np.ndarray:
    """Construct a candidate grid meeting the epsilon criterion.

    Raises CapacityError when the construction would exceed ``max_candidates``
    (an epsilon too small for the cap).  The returned grid is strictly
    increasing and always re-checked against the criterion on the mesh.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be at least 1")
    mesh, denom = _mesh_and_denominator(spec, mesh_points)
    budget = spec.epsilon * denom

    if spec.lipschitz_k is not None:
        span = spec.interval.high - spec.interval.low
        c_min = float(denom.min())
        piece = c_min * spec.epsilon / spec.lipschitz_k
        count = int(math.ceil(span / piece))
        if count > max_candidates:
            raise CapacityError(
                f"uniform construction needs {count} candidates, above the cap {max_candidates}"
            )
        grid = spec.interval.low + (np.arange(count) + 0.5) * (span / count)
    else:
        cands: list[float] = []
        frontier = 0
        while frontier < mesh.size:
            lam_f = mesh[frontier]
            div_f = np.atleast_1d(np.asarray(spec.family.kl_post_vs_post(lam_f, mesh), dtype=float))
            ok = (mesh >= lam_f) & (div_f <= budget[frontier])
            idx = np.nonzero(ok)[0]
            cands.append(float(mesh[idx[-1]]))  # farthest admissible candidate still covering the frontier
            if len(cands) > max_candidates:
                raise CapacityError(
                    f"greedy construction exceeded the candidate cap {max_candidates}"
                )
            nearest = np.min(
                np.atleast_2d(
                    np.asarray(
                        spec.family.kl_post_vs_post(mesh[:, None], np.asarray(cands)[None, :]),
                        dtype=float,
                    )
                ),
                axis=1,
            )
            uncovered = np.nonzero(nearest > budget)[0]
            frontier = int(uncovered[0]) if uncovered.size else mesh.size
        grid = np.asarray(cands)

    worst = verify_grid(spec, grid, mesh_points=mesh_points)
    if worst > spec.epsilon:
        raise RuntimeError(
            f"constructed grid fails its own criterion (worst ratio {worst:.6f}); "
            "this is a bug, please report the design inputs"
        )
    return grid


def verify_grid(spec: DesignSpec, grid, mesh_points: int = 1000) -> float:
    """Worst criterion ratio of a grid over a dense mesh (must be <= epsilon).

    Checked independently of how the grid was built, so it can audit grids
    from either construction or from manual edits.
    """
    grid_arr = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid_arr.size == 0:
        raise ValueError("grid must be nonempty")
    mesh, denom = _mesh_and_denominator(spec, mesh_points)
    div = np.atleast_2d(
        np.asarray(spec.family.kl_post_vs_post(mesh[:, None], grid_arr[None, :]), dtype=float)
    )
    return float((div.min(axis=1) / denom).max())


def threshold_for(alpha: float, rho: float, n_charts: int) -> float:
    """Log alarm threshold guaranteeing false-alarm probability at most alpha.

    Each of ``n_charts`` charts gets the same log threshold
    log(n_charts) - log(rho) - log(alpha); the union bound over charts and the
    posterior identity deliver the guarantee with no overshoot correction, so
    realized false-alarm rates run below alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    GeometricPrior(rho)  # validates rho
    if n_charts < 1:
        raise ValueError(f"n_charts must be at least 1, got {n_charts}")
    return math.log(n_charts) - math.log(rho) - math.log(alpha)


def add_lower_bound(alpha: float, d_total: float) -> float:
    """Leading-order delay floor |log alpha| / d_total for any procedure at level alpha.

    ``d_total`` is the full post-change drift (divergence from the pre-change
    density plus slot cost) at the true parameter.  Vanishing-order terms are
    dropped, so at moderate alpha the floor is noticeably optimistic.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if d_total <= 0:
        raise ValueError(f"d_total must be positive, got {d_total}")
    return abs(math.log(alpha)) / d_total


def efficiency(add_estimate: float, alpha: float, d_total: float) -> float:
    """Plug-in delay efficiency: lower bound over estimate.

    Approaches 1 from below as alpha shrinks when the grid contains the true
    parameter; Monte Carlo noise can push it slightly above 1.
    """
    if add_estimate <= 0:
        raise ValueError(f"add_estimate must be positive, got {add_estimate}")
    return add_lower_bound(alpha, d_total) / add_estimate


def default_lipschitz_constant(family: ObservationFamily, interval: Interval) -> float:
    """Divergence Lipschitz constant for the mean-shift family on an interval.

    The divergence (lam - mu0)^2 / (2 sigma^2) has slope (lam - mu0) / sigma^2,
    largest in size at an end of the interval, on either side of mu0.
    """
    if not isinstance(family, GaussianMeanShift):
        raise TypeError("only the mean-shift family has a built-in Lipschitz constant")
    return max(abs(interval.high - family.pre_mean), abs(interval.low - family.pre_mean)) / family.sigma**2
