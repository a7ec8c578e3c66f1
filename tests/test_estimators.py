import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelcount import (
    IcmConfig,
    PanelDataset,
    StepEstimate,
    build_time_grid,
    empirical_l2_distance,
    eval_step,
    gradient_and_curvature,
    isotonic_regression,
    weighted_score_residual,
    log_likelihood,
    npmle,
    npmple,
)
from panelcount import estimators
from panelcount.core import flatten_observations
from conftest import TIGHT, path, random_dataset
from _oracles import (
    brute_force_npmle,
    isotonic_brute_force,
    isotonic_sequential,
    loglik_direct,
    npmle_full_grid,
)


class TestIsotonicRegression:
    def test_matches_brute_force_on_spec_example(self):
        expected = isotonic_brute_force([3.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(expected, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(
            isotonic_regression([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]), expected
        )

    def test_nondecreasing_input_is_fixed_point(self):
        y = [0.0, 1.0, 1.0, 4.5]
        np.testing.assert_array_equal(isotonic_regression(y, np.ones(4)), y)

    def test_singleton(self):
        np.testing.assert_array_equal(isotonic_regression([5.0], [2.0]), [5.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            isotonic_regression([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            isotonic_regression([1.0, 2.0], [1.0, 0.0])

    @given(
        yw=st.lists(
            st.tuples(st.floats(-20, 20), st.floats(0.1, 5)), min_size=1, max_size=9
        )
    )
    def test_properties_and_brute_force(self, yw):
        y = np.array([a for a, _ in yw])
        w = np.array([b for _, b in yw])
        fit = isotonic_regression(y, w)
        assert np.all(np.diff(fit) >= 0)
        assert math.isclose(np.dot(w, fit), np.dot(w, y), rel_tol=1e-9, abs_tol=1e-9)
        # optimality against the exhaustive minimizer (values may tie at
        # float resolution, so compare objectives, not coordinates)
        brute = isotonic_brute_force(y, w)
        assert np.dot(w, (fit - y) ** 2) <= np.dot(w, (brute - y) ** 2) + 1e-9

    def test_idempotent(self, rng):
        y = rng.normal(size=8)
        w = rng.uniform(0.5, 2.0, size=8)
        fit = isotonic_regression(y, w)
        np.testing.assert_allclose(isotonic_regression(fit, w), fit, atol=1e-12)

    @pytest.mark.parametrize(
        "y, w",
        [
            ([np.nan, 1.0], [1.0, 1.0]),
            ([1.0, 0.0], [np.nan, 1.0]),
            ([np.inf, 0.0], [1.0, 1.0]),
            ([1.0, -np.inf], [1.0, 1.0]),
            ([1.0, 2.0], [1.0, np.inf]),
            (np.r_[np.arange(100.0), np.nan], np.ones(101)),
        ],
    )
    def test_rejects_non_finite(self, y, w):
        with pytest.raises(ValueError, match="finite"):
            isotonic_regression(y, w)

    @settings(max_examples=150, deadline=None)
    @given(
        yw=st.lists(
            st.tuples(
                st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3)),
                st.floats(-4, 4).map(lambda e: 10.0**e),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # the exact fit and a flattening of its last blocks have objectives that
    # differ by less than the rounding of the float sums
    @example(yw=[(0.0, 1.0), (-1.0, 1.0), (0.0, 0.1), (6.103515625e-05, 0.1), (0.0, 1000.0)])
    @example(yw=[(1.0, 1e4), (0.0, 1.0), (1.0, 1.0), (360.0, 1e3), (0.0, 1e4)])
    @example(yw=[(0.0, 1.0), (-2.0, 1.0), (0.0, 1.0), (1e-6, 1e-4)])
    def test_matches_brute_force(self, yw):
        y = np.array([a for a, _ in yw])
        w = np.array([b for _, b in yw])
        scale = max(1.0, float(np.abs(y).max()))
        np.testing.assert_allclose(
            isotonic_regression(y, w), isotonic_brute_force(y, w), rtol=1e-9, atol=1e-9 * scale
        )

    @staticmethod
    def _shape(name, m, rng):
        if name == "spike-zeros":
            return np.r_[float(m), np.zeros(m - 1)]
        if name == "spike-ramp":
            return np.r_[float(m), np.linspace(0.0, 1.0, m - 1)]
        if name == "decreasing":
            return np.arange(m, 0, -1.0)
        if name == "sorted":
            return np.arange(m, dtype=float)
        if name == "ties":
            return rng.integers(0, 4, m).astype(float)
        if name == "walk":
            return np.cumsum(rng.normal(size=m))
        return np.linspace(0.0, 10.0, m) + rng.normal(scale=2.0, size=m)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3000),
        shape=st.sampled_from(
            ["spike-zeros", "spike-ramp", "decreasing", "sorted", "ties", "walk", "trend"]
        ),
        decades=st.integers(0, 8),
    )
    def test_matches_sequential(self, seed, m, shape, decades):
        rng = np.random.default_rng(seed)
        y = self._shape(shape, m, rng)
        w = 10.0 ** rng.uniform(-decades / 2, decades / 2, size=m)
        fit = isotonic_regression(y, w)
        expected = isotonic_sequential(y, w)
        scale = float(np.abs(y).max()) or 1.0
        np.testing.assert_allclose(fit, expected, rtol=1e-12, atol=1e-12 * scale)
        assert not np.shares_memory(fit, y)

    @pytest.mark.parametrize("m", [1, 5, 64, 65, 2000])
    def test_sorted_input_returned_as_a_copy(self, m):
        y = np.arange(m, dtype=float)
        fit = isotonic_regression(y, np.ones(m))
        np.testing.assert_array_equal(fit, y)
        fit[:] = -1.0
        np.testing.assert_array_equal(y, np.arange(m, dtype=float))

    def test_spike_then_zeros_worst_case(self):
        # one pool per parallel round: m rounds if the rounds did not stop
        m = 20_000
        y = np.r_[float(m), np.zeros(m - 1)]
        w = np.ones(m)
        fit = isotonic_regression(y, w)
        np.testing.assert_allclose(fit, isotonic_sequential(y, w), rtol=1e-12)
        np.testing.assert_allclose(fit, 1.0, rtol=1e-12)


class TestIcmConfig:
    def test_defaults_valid(self):
        cfg = IcmConfig()
        assert cfg.max_iterations == 500
        assert cfg.fenchel_tol == 1e-6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IcmConfig(max_iterations=0)
        with pytest.raises(ValueError):
            IcmConfig(fenchel_tol=0.0)


class TestNpmple:
    def test_monotone_raw_means_pass_through(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [2, 5])])
        np.testing.assert_allclose(npmple(d).values, [2.0, 5.0])

    def test_shared_time_point_averages(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [2]), path("b", 1, [1.0], [4])]
        )
        est = npmple(d)
        np.testing.assert_allclose(est.values, [3.0])

    def test_violating_means_pooled(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [4]), path("b", 1, [2.0], [1])]
        )
        np.testing.assert_allclose(npmple(d).values, [2.5, 2.5])

    def test_pseudo_score_identity(self, rng):
        # the isotonic fit zeroes sum_l phi(L(t_l)) * w_l * (L(t_l) - mean_l)
        d = random_dataset(rng, 25)
        est = npmple(d)
        grid = build_time_grid(d)
        obs_vals = []
        for p in d.paths:
            for t, c in zip(p.times, p.counts):
                obs_vals.append((eval_step(est, t), c))
        for phi in (lambda x: 1.0, lambda x: x, lambda x: x * x):
            resid = sum(phi(v) * (v - c) for v, c in obs_vals)
            assert abs(resid) <= 1e-8 * d.n


class TestLogLikelihood:
    def test_hand_value(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [2, 5])])
        e = StepEstimate(support=[1.0, 2.0], values=[2.0, 5.0])
        expected = 2 * math.log(2) + 3 * math.log(3) - 5
        assert math.isclose(log_likelihood(d, e), expected, rel_tol=1e-12)
        assert math.isclose(expected, -0.317869, abs_tol=5e-7)

    def test_zero_count_zero_estimate_contributes_zero(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 0])])
        e = StepEstimate(support=[1.0, 2.0], values=[0.0, 0.0])
        assert log_likelihood(d, e) == 0.0

    def test_infeasible_returns_neg_inf(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 1])])
        e = StepEstimate(support=[1.0, 2.0], values=[1.0, 1.0])
        assert log_likelihood(d, e) == float("-inf")

    def test_matches_direct_loops(self, rng, two_subject_dataset):
        d = two_subject_dataset
        est = npmple(d)
        direct = loglik_direct(d, est.support.tolist(), est.values.tolist())
        assert math.isclose(log_likelihood(d, est), direct, rel_tol=1e-12)


class TestGradientAndCurvature:
    def test_stationary_at_single_subject_mle(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [2, 5])])
        g, c = gradient_and_curvature(d, [2.0, 5.0])
        np.testing.assert_allclose(g, [0.0, 0.0], atol=1e-14)
        assert np.all(c > 0)

    def test_hand_value_off_optimum(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [2, 5])])
        g, _ = gradient_and_curvature(d, [1.0, 5.0])
        assert math.isclose(g[0], 2.0 / 1.0 - 3.0 / 4.0, rel_tol=1e-12)

    def test_terminal_exposure_only(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [0])])
        g, _ = gradient_and_curvature(d, [1.0])
        np.testing.assert_allclose(g, [-1.0])

    def test_infeasible_u_raises(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 1])])
        with pytest.raises(ValueError):
            gradient_and_curvature(d, [1.0, 1.0])

    def test_matches_finite_differences(self, two_subject_dataset):
        d = two_subject_dataset
        grid = build_time_grid(d)
        u = np.array([0.8, 1.9, 3.1, 4.4])
        g, _ = gradient_and_curvature(d, u)
        h = 1e-6
        for ell in range(grid.m):
            up, dn = u.copy(), u.copy()
            up[ell] += h
            dn[ell] -= h
            fd = (
                loglik_direct(d, grid.points, up) - loglik_direct(d, grid.points, dn)
            ) / (2 * h)
            assert math.isclose(g[ell], fd, rel_tol=1e-5, abs_tol=1e-5)


class TestNpmle:
    def test_single_subject_equals_counts(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0, 5.0], [2, 5, 5])])
        est, diag = npmle(d, TIGHT)
        assert diag.converged
        np.testing.assert_allclose(est.values, [2.0, 5.0, 5.0], atol=1e-8)

    def test_matches_brute_force_two_points(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [3]), path("b", 1, [2.0], [1])]
        )
        est, diag = npmle(d, TIGHT)
        _, best_ll = brute_force_npmle(d)
        assert abs(log_likelihood(d, est) - best_ll) <= 1e-6

    def test_dominates_npmple(self, rng):
        for _ in range(5):
            d = random_dataset(rng, int(rng.integers(2, 30)))
            est, _ = npmle(d, TIGHT)
            assert log_likelihood(d, est) >= log_likelihood(d, npmple(d)) - 1e-9

    def test_monotone_ascent_trace(self, rng):
        d = random_dataset(rng, 40)
        _, diag = npmle(d, TIGHT)
        assert np.all(np.diff(diag.loglik_trace) >= 0)

    def test_converged_implies_residual_within_tol(self, rng):
        d = random_dataset(rng, 30)
        _, diag = npmle(d, TIGHT)
        assert diag.converged
        assert diag.fenchel_residual <= TIGHT.fenchel_tol

    def test_permutation_invariance(self, rng):
        d = random_dataset(rng, 20)
        perm = rng.permutation(d.n)
        shuffled = PanelDataset.from_paths([d.paths[i] for i in perm], k=1)
        est1, _ = npmle(d, TIGHT)
        est2, _ = npmle(shuffled, TIGHT)
        np.testing.assert_allclose(est1.values, est2.values, rtol=1e-7, atol=1e-9)

    def test_values_nonnegative_nondecreasing(self, rng):
        d = random_dataset(rng, 15)
        est, _ = npmle(d)
        assert est.values[0] >= 0
        assert np.all(np.diff(est.values) >= 0)

    def test_boundary_zero_start_reports_nonconvergence(self):
        # no events in any first interval: the fitted value at the first grid
        # point is 0 and the two-sided certificate at l=1 cannot hold, so the
        # solver must return the exact maximizer flagged converged=False
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 2])])
        est, diag = npmle(d, TIGHT)
        assert not diag.converged
        np.testing.assert_allclose(est.values, [0.0, 2.0], atol=1e-9)
        assert diag.iterations < 50


@st.composite
def sparse_event_datasets(draw):
    """Up to 8 subjects on visit times from a set of 8, so times tie across
    subjects.  Most increments are 0, so many grid points end only rows
    without events (some of them last visits), and some start and end no
    row with events at all."""
    paths = []
    for i in range(draw(st.integers(1, 8))):
        times = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0]),
                              min_size=1, max_size=6, unique=True))
        increments = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 5]),
                                   min_size=len(times), max_size=len(times)))
        paths.append(path(f"s{i}", 1, sorted(times), np.cumsum(increments)))
    return PanelDataset.from_paths(paths)


class TestSupportSolve:
    """The solve on the likelihood's support against the full-grid loop."""

    @settings(max_examples=300, deadline=None)
    @given(d=sparse_event_datasets())
    # no events at all: the support is empty and the estimate is 0
    @example(d=PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 0]), path("b", 1, [2.0], [0])]))
    # time 2 is only a last visit, time 3 starts and ends no row with events
    @example(
        d=PanelDataset.from_paths(
            [
                path("a", 1, [1.0, 2.0], [1, 1]),
                path("b", 1, [1.0, 3.0, 4.0], [2, 2, 4]),
                path("c", 1, [4.0], [3]),
            ]
        )
    )
    def test_matches_full_grid_solve(self, d):
        # tight certificates run both solves to where the objective stops
        # moving; at the default tolerance either may stop up to ~1e-11 short
        cfg = TIGHT
        est, diag = npmle(d, cfg)
        want_est, want = npmle_full_grid(d, cfg)
        rows = estimators._event_rows(flatten_observations(d))
        u = est.values
        # the support: grid points that start or end a row with events
        support = np.zeros(rows.m, dtype=bool)
        support[rows.rank] = True
        support[rows.prev_slot[rows.prev_slot > 0] - 1] = True
        left = np.maximum.accumulate(np.where(support, np.arange(rows.m), -1))
        np.testing.assert_array_equal(u, np.where(left >= 0, u[np.maximum(left, 0)], 0.0))
        g, _ = estimators._score_and_weights(rows, estimators._increments(rows, u))
        certified, residual, kkt = estimators._certificates(g, u, d.n, cfg.fenchel_tol)
        if support.all():
            assert diag == want
            np.testing.assert_array_equal(u, want_est.values)
        else:
            assert diag.fenchel_residual == residual
            assert diag.status == ("converged" if certified else "boundary-origin" if kkt else "stalled")
        assert abs(diag.loglik - want.loglik) <= 1e-12 * max(1.0, abs(want.loglik))


def test_solve_time_is_reported_and_not_compared(rng):
    d = random_dataset(rng, 20)
    _, first = npmle(d)
    _, again = npmle(d)
    assert first.seconds > 0 and again.seconds > 0
    assert first == again
    assert replace(first, seconds=first.seconds + 1.0) == first


class TestSolveStatus:
    """Each way a solve can end."""

    def test_converged(self, rng):
        _, diag = npmle(random_dataset(rng, 20), TIGHT)
        assert diag.status == "converged"
        assert diag.converged
        assert diag.fenchel_residual <= TIGHT.fenchel_tol

    def test_boundary_origin_meets_cone_conditions(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [0, 2]), path("b", 1, [1.0, 3.0], [0, 1])]
        )
        est, diag = npmle(d, TIGHT)
        assert diag.status == "boundary-origin"
        assert not diag.converged
        assert est.values[0] == 0.0
        # S_l <= 0 everywhere, = 0 at every jump after the first point, S_1 < 0
        g, _ = gradient_and_curvature(d, est.values)
        S = np.cumsum(g[::-1])[::-1]
        assert S[0] < -TIGHT.fenchel_tol * d.n
        assert np.all(S <= TIGHT.fenchel_tol * d.n)
        jumps = np.flatnonzero(np.diff(est.values) > 0) + 1
        assert np.all(np.abs(S[jumps]) <= TIGHT.fenchel_tol * d.n)
        assert diag.fenchel_residual == pytest.approx(-S[0] / d.n)

    def test_l1_one_sided_only_at_origin(self):
        # S = (-1, 0): optimal on the cone when u_1 = 0, not when u_1 jumps
        g = np.array([-1.0, 0.0])
        at_origin = estimators._certificates(g, np.array([0.0, 2.0]), 1, 1e-6)
        lifted = estimators._certificates(g, np.array([1.0, 2.0]), 1, 1e-6)
        assert at_origin == (False, 1.0, True)
        assert lifted == (False, 1.0, False)

    def test_max_iterations(self, rng):
        _, diag = npmle(random_dataset(rng, 20), IcmConfig(max_iterations=1))
        assert diag.status == "max-iterations"
        assert diag.iterations == 1

    def test_stalled_at_unreachable_tolerance(self, rng):
        # certificates at 1e-300 are below float resolution: the iterate
        # stops moving before they can hold
        _, diag = npmle(random_dataset(rng, 20), IcmConfig(fenchel_tol=1e-300))
        assert diag.status == "stalled"
        assert diag.iterations < 50


class TestWeightedScoreResidual:
    def test_zero_at_exact_interior_mle(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [2, 5])])
        e = StepEstimate(support=[1.0, 2.0], values=[2.0, 5.0])
        assert abs(weighted_score_residual(d, e, lambda x: x * x)) <= 1e-12

    def test_solver_certificate_on_random_data(self, rng):
        for _ in range(5):
            d = random_dataset(rng, int(rng.integers(3, 25)))
            est, diag = npmle(d, TIGHT)
            assert diag.converged
            for phi in (lambda x: 1.0, lambda x: x, lambda x: x * x):
                assert abs(weighted_score_residual(d, est, phi)) <= 1e-6 * d.n

    def test_sensitive_to_perturbation(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [2, 5]), path("b", 1, [1.0, 2.0], [1, 4])]
        )
        est, _ = npmle(d, TIGHT)
        bumped = StepEstimate(support=est.support, values=est.values + [0.1, 0.1])
        assert abs(weighted_score_residual(d, bumped, lambda x: x)) > 1e-3


class TestD1Distance:
    def test_identity(self, two_subject_dataset):
        e = npmple(two_subject_dataset)
        assert empirical_l2_distance(two_subject_dataset, e, e) == 0.0

    def test_constant_offset(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [1]), path("b", 1, [2.0], [2])]
        )
        e1 = StepEstimate(support=[0.5], values=[1.0])
        e2 = StepEstimate(support=[0.5], values=[2.0])
        assert math.isclose(empirical_l2_distance(d, e1, e2), 1.0, rel_tol=1e-12)

    def test_matches_direct_sum(self, rng):
        d = random_dataset(rng, 12)
        e1, _ = npmle(d)
        e2 = npmple(d)
        total = 0.0
        for p in d.paths:
            for t in p.times:
                total += (eval_step(e1, t) - eval_step(e2, t)) ** 2
        assert math.isclose(empirical_l2_distance(d, e1, e2), math.sqrt(total / d.n), rel_tol=1e-12)
