import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartbank import (
    CapacityError,
    DesignSpec,
    FiniteSet,
    GaussianMeanShift,
    GaussianVarianceShift,
    GeometricPrior,
    Interval,
    add_lower_bound,
    default_lipschitz_constant,
    design_grid,
    efficiency,
    threshold_for,
    verify_grid,
)

FAMILY = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(0.05, 5.0))
PRIOR = GeometricPrior(0.01)


def spec_for(low=0.37, high=2.63, eps=0.2, k=None):
    return DesignSpec(
        family=FAMILY, interval=Interval(low, high), epsilon=eps, prior=PRIOR, lipschitz_k=k
    )


class TestThresholds:
    def test_threshold_frozen(self):
        # log(n_charts) - log(rho) - log(alpha) at 5 charts, rho = alpha = 0.01
        assert threshold_for(0.01, 0.01, 5) == pytest.approx(
            10.819778284410283, abs=0, rel=1e-15
        )

    def test_threshold_monotone(self):
        assert threshold_for(1e-3, 0.01, 3) > threshold_for(1e-2, 0.01, 3)
        assert threshold_for(1e-2, 0.01, 6) > threshold_for(1e-2, 0.01, 3)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            threshold_for(0.0, 0.01, 3)
        with pytest.raises(ValueError):
            threshold_for(1e-2, 1.0, 3)
        with pytest.raises(ValueError):
            threshold_for(1e-2, 0.01, 0)
        for n_charts in (2.5, True):
            with pytest.raises(ValueError, match="n_charts must be an integer"):
                threshold_for(1e-2, 0.01, n_charts)

    def test_lower_bound_frozen(self):
        d = 0.5 + PRIOR.slot_cost
        assert add_lower_bound(1e-3, d) == pytest.approx(13.5432815026441, rel=1e-12)

    def test_lower_bound_validation(self):
        with pytest.raises(ValueError):
            add_lower_bound(2.0, 0.5)
        with pytest.raises(ValueError):
            add_lower_bound(1e-3, 0.0)
        for d_total in (math.nan, math.inf):
            with pytest.raises(ValueError, match="d_total must be positive"):
                add_lower_bound(1e-3, d_total)

    def test_efficiency_is_bound_over_estimate(self):
        d = 0.5 + PRIOR.slot_cost
        lb = add_lower_bound(1e-3, d)
        assert efficiency(2 * lb, 1e-3, d) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            efficiency(0.0, 1e-3, d)
        with pytest.raises(ValueError, match="add_estimate must be positive"):
            efficiency(math.nan, 1e-3, d)


class TestDesignGrid:
    def test_greedy_grid_frozen(self):
        # three candidates cover the standard interval at a 0.2 budget
        grid = design_grid(spec_for(), mesh_points=1000)
        assert grid.shape == (3,)
        assert grid[0] == pytest.approx(0.5464564564564565, rel=1e-12)
        assert grid[1] == pytest.approx(1.449099099099099, rel=1e-12)
        assert grid[2] == pytest.approx(2.63, rel=1e-12)

    def test_greedy_grid_verifies(self):
        spec = spec_for()
        grid = design_grid(spec, mesh_points=1000)
        worst = verify_grid(spec, grid, mesh_points=1000)
        assert worst <= 0.2 + 1e-12
        # and it is tight: the budget is nearly exhausted, not wasted
        assert worst > 0.15

    def test_uniform_grid_count_frozen(self):
        k = default_lipschitz_constant(FAMILY, Interval(0.37, 2.63))
        assert k == pytest.approx(2.63, rel=1e-12)
        spec = spec_for(k=k)
        grid = design_grid(spec, mesh_points=1000)
        assert grid.shape == (379,)
        # midpoint structure: equally spaced, centered in their pieces
        diffs = np.diff(grid)
        assert np.allclose(diffs, diffs[0])
        piece = (2.63 - 0.37) / 379
        assert grid[0] == pytest.approx(0.37 + piece / 2, rel=1e-12)

    @pytest.mark.parametrize("pre_mean, expected", [(0.0, 2.63), (3.0, 3.0 - 0.37), (1.0, 1.63)])
    def test_lipschitz_constant_is_the_steepest_slope_on_the_interval(self, pre_mean, expected):
        # slope (lam - mu0) / sigma^2 of the divergence, largest in size at the end farther from mu0
        family = GaussianMeanShift(pre_mean=pre_mean, sigma=2.0, post_params=Interval(0.05, 5.0))
        assert default_lipschitz_constant(family, Interval(0.37, 2.63)) == pytest.approx(expected / 4.0, rel=1e-12)

    def test_uniform_grid_verifies(self):
        spec = spec_for(k=default_lipschitz_constant(FAMILY, Interval(0.37, 2.63)))
        grid = design_grid(spec, mesh_points=1000)
        assert verify_grid(spec, grid, mesh_points=1000) <= 0.2

    def test_greedy_beats_uniform_on_count(self):
        # the adaptive construction needs far fewer candidates than the
        # worst-case Lipschitz bound
        greedy = design_grid(spec_for(), mesh_points=1000)
        uniform = design_grid(
            spec_for(k=default_lipschitz_constant(FAMILY, Interval(0.37, 2.63))),
            mesh_points=1000,
        )
        assert len(greedy) * 20 < len(uniform)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            design_grid(spec_for(eps=0.001), mesh_points=2000, max_candidates=4)
        with pytest.raises(CapacityError):
            design_grid(
                spec_for(eps=0.01, k=2.63), mesh_points=500, max_candidates=10
            )

    @pytest.mark.parametrize("name, value", [("mesh_points", 2.5), ("mesh_points", True), ("max_candidates", 2.5)])
    def test_counts_must_be_integers(self, name, value):
        # mesh_points=2.5 used to fail in numpy's linspace, and max_candidates=2.5 ran
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            design_grid(spec_for(), **{name: value})

    def test_tighter_budget_needs_more_candidates(self):
        loose = design_grid(spec_for(eps=0.3), mesh_points=800)
        tight = design_grid(spec_for(eps=0.05), mesh_points=800)
        assert len(tight) > len(loose)

    def test_grid_inside_interval_and_increasing(self):
        grid = design_grid(spec_for(0.5, 2.0, 0.15), mesh_points=600)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] >= 0.5 and grid[-1] <= 2.0


class TestVerifyGrid:
    def test_detects_insufficient_grid(self):
        spec = spec_for()
        # a single candidate at the top end leaves the low end badly covered
        worst = verify_grid(spec, np.array([2.63]), mesh_points=1000)
        assert worst > 0.2

    def test_perfect_coverage_at_candidates(self):
        # with the mesh equal to the grid every point is its own candidate
        spec = spec_for()
        grid = design_grid(spec, mesh_points=400)
        worst = verify_grid(spec, grid, mesh_points=400)
        assert worst <= spec.epsilon + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            verify_grid(spec_for(), np.array([]))


class TestSpecValidation:
    def test_epsilon_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                spec_for(eps=bad)

    def test_interval_inside_admissible_set(self):
        with pytest.raises(ValueError):
            DesignSpec(
                family=FAMILY, interval=Interval(0.37, 9.0), epsilon=0.2, prior=PRIOR
            )

    def test_family_on_a_finite_set_is_refused(self):
        # mesh points between the members are not admissible, so the design could not run
        fam = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=FiniteSet((0.5, 1.0, 2.0)))
        with pytest.raises(ValueError, match=r"not FiniteSet\(values=\(0\.5, 1\.0, 2\.0\)\)"):
            DesignSpec(family=fam, interval=Interval(0.5, 2.0), epsilon=0.2, prior=PRIOR)

    def test_lipschitz_positive(self):
        with pytest.raises(ValueError):
            spec_for(k=-1.0)
        for k in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lipschitz_k must be positive"):
                spec_for(k=k)

    def test_indistinguishable_interval_rejected(self):
        # an interval containing the pre-change mean has a zero-divergence
        # point where relative coverage is undefined
        fam = GaussianMeanShift(pre_mean=0.0, sigma=1.0, post_params=Interval(-1.0, 1.0))
        spec = DesignSpec(family=fam, interval=Interval(-0.5, 0.5), epsilon=0.2, prior=PRIOR)
        with pytest.raises(ValueError):
            design_grid(spec, mesh_points=100)

    def test_scale_interval_holding_pre_sigma_rejected(self):
        # a 100-point mesh on [0.8, 1.3] misses 1.0, and every mesh point has
        # a positive divergence, so only the pre-parameter check can refuse
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(0.5, 2.0))
        spec = DesignSpec(family=fam, interval=Interval(0.8, 1.3), epsilon=0.2, prior=PRIOR)
        mesh = np.linspace(0.8, 1.3, 100)
        assert 1.0 not in mesh and fam.kl_post_vs_pre(mesh).min() > 0
        with pytest.raises(ValueError, match="indistinguishable"):
            design_grid(spec, mesh_points=100)

    def test_default_lipschitz_rejects_other_families(self):
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.1, 3.0))
        with pytest.raises(TypeError):
            default_lipschitz_constant(fam, Interval(1.2, 2.0))


class TestVarianceFamilyDesign:
    def test_greedy_on_scale_interval(self):
        fam = GaussianVarianceShift(pre_sigma=1.0, post_params=Interval(1.05, 4.0))
        spec = DesignSpec(
            family=fam, interval=Interval(1.2, 3.0), epsilon=0.25, prior=PRIOR
        )
        grid = design_grid(spec, mesh_points=800)
        assert verify_grid(spec, grid, mesh_points=800) <= 0.25 + 1e-12
        assert 1 <= len(grid) <= 20


@settings(max_examples=20, deadline=None)
@given(
    low=st.floats(min_value=0.2, max_value=1.0),
    width=st.floats(min_value=0.3, max_value=2.5),
    eps=st.floats(min_value=0.05, max_value=0.5),
)
def test_design_always_meets_budget(low, width, eps):
    spec = spec_for(low, low + width, eps)
    grid = design_grid(spec, mesh_points=500)
    assert np.all(np.diff(grid) > 0) if len(grid) > 1 else True
    assert grid[0] >= low - 1e-12 and grid[-1] <= low + width + 1e-12
    assert verify_grid(spec, grid, mesh_points=500) <= eps + 1e-12
