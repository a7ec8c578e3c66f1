import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelcount import (
    IcmConfig,
    PanelDataset,
    SolverConvergenceError,
    StepEstimate,
    build_time_grid,
    empirical_l2_distance,
    eval_step,
    fit_all,
    gradient_and_curvature,
    isotonic_regression,
    weighted_score_residual,
    log_likelihood,
    npmle,
    npmple,
    restrict_to_group,
)
from panelcount import estimators
from panelcount.core import flatten_observations
from conftest import TIGHT, path, random_dataset, tied_iterate
from _oracles import (
    brute_force_npmle,
    isotonic_brute_force,
    isotonic_sequential,
    loglik_direct,
    npmle_full_grid,
    single_certificates,
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

    @pytest.mark.parametrize("limit", [2.5, True, "3"])
    def test_rejects_a_limit_that_is_no_integer(self, limit):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            IcmConfig(max_iterations=limit)

    def test_accepts_a_numpy_integer_limit(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [1, 3]), path("b", 1, [2.0], [1])])
        assert npmle(d, IcmConfig(max_iterations=np.int64(1)))[1].iterations == 1


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

    def test_u_of_the_wrong_length_raises(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [0, 1])])
        with pytest.raises(ValueError, match="^u must have one entry per grid point$"):
            gradient_and_curvature(d, [1.0, 2.0, 3.0])

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
        certified, residual, kkt = single_certificates(g, u, d.n, cfg.fenchel_tol)
        if support.all():
            assert diag == want
            np.testing.assert_array_equal(u, want_est.values)
        else:
            assert diag.fenchel_residual == residual
            assert diag.status == ("converged" if certified else "boundary-origin" if kkt else "stalled")
        assert abs(diag.loglik - want.loglik) <= 1e-12 * max(1.0, abs(want.loglik))


def pooled_and_groups(seed):
    """A random dataset of 2 or 3 groups: its pooled NPMLE and its groups.
    Sparse draws (many visit times, a low rate) leave grid points off a
    group's support."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 4))
    n, max_time = int(rng.integers(2 * k, 40)), int(rng.choice([10, 30]))
    d = random_dataset(rng, n, k=k, max_time=max_time, rate=float(rng.uniform(0.05, 2.5)))
    return npmle(d)[0], [restrict_to_group(d, l) for l in range(1, k + 1)]


class TestPooledStart:
    """A group's solve started from the pooled NPMLE scaled to its level."""

    @pytest.mark.parametrize("seed", range(12))
    def test_scale_maximizes_phi_along_the_pooled_fit(self, seed):
        pooled, groups = pooled_and_groups(seed)
        for g in groups:
            c = sum(p.counts[-1] for p in g.paths) / sum(pooled(p.times[-1]) for p in g.paths)

            def phi(scale):
                return loglik_direct(g, pooled.support, scale * pooled.values)

            assert phi(0.999 * c) < phi(c) > phi(1.001 * c)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_the_npmple_start(self, seed):
        pooled, groups = pooled_and_groups(seed)
        for g in groups:
            _, warm = npmle(g, _start=pooled)
            _, cold = npmle(g)
            assert warm.status == cold.status
            assert abs(warm.loglik - cold.loglik) <= 1e-12 * abs(cold.loglik)

    def test_matches_full_grid_solve_from_the_same_start(self):
        full = reduced = 0
        for seed in range(12):
            pooled, groups = pooled_and_groups(seed)
            for g in groups:
                est, diag = npmle(g, TIGHT, _start=pooled)
                want_est, want = npmle_full_grid(g, TIGHT, start=pooled)
                rows = estimators._event_rows(flatten_observations(g))
                if estimators._support_rows(rows)[1] is None:
                    full += 1
                    assert diag == want
                    np.testing.assert_array_equal(est.values, want_est.values)
                else:
                    reduced += 1
                    assert diag.status == want.status
                    assert abs(diag.loglik - want.loglik) <= 1e-12 * abs(want.loglik)
        assert full > 0 and reduced > 0


def group_batch_dataset(seed):
    """A random dataset of 2 to 4 groups of 5, 12 or 60 subjects.  Each
    group visits its own random part of a grid of 10, 40 or 120 times, so a
    group's grid can be a strict subset of the pooled grid; low rates leave
    grid points off a group's support, and about one draw in four has a
    group without events.  In about one draw in four all groups share a
    grid of 10 times, which a first subject of each visits, at a high rate:
    the groups' Newton systems then tend to have one size."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    shared = rng.random() < 0.25
    n_times = 10 if shared else int(rng.choice([10, 40, 120]))
    silent = int(rng.integers(1, k + 1)) if rng.random() < 0.25 and not shared else 0
    paths = []
    for l in range(1, k + 1):
        grid = np.arange(1, n_times + 1)
        own = grid if shared else rng.choice(grid, size=int(rng.integers(n_times // 3, n_times + 1)), replace=False)
        rate = 0.0 if l == silent else 2.0 if shared else float(rng.choice([0.1, 1.0, 4.0])) * 10 / n_times
        for i in range(int(rng.choice([5, 12, 60]))):
            times = np.sort(rng.choice(own, size=int(rng.integers(1, min(own.size, 12) + 1)), replace=False))
            if shared and i == 0:
                times = grid
            increments = rng.poisson(rate * np.diff(times, prepend=0.0))
            if i == 0 and rate > 0:
                increments[0] = max(increments[0], 1)
            paths.append(path(f"g{l}s{i}", l, times.astype(float), np.cumsum(increments)))
    return PanelDataset.from_paths(paths, k=k)


def solo_group_fits(d, cfg, pooled):
    return [npmle(restrict_to_group(d, l), cfg, _start=pooled) for l in range(1, d.k + 1)]


class TestGroupBatch:
    """``fit_all`` solves the groups as one batch of the solver's loop; each
    group's fit is, bit for bit, its solve alone."""

    @pytest.mark.parametrize("cfg", [IcmConfig(), IcmConfig(max_iterations=2), TIGHT], ids=["default", "two-iterations", "tight"])
    @pytest.mark.parametrize("seed", range(24))
    def test_each_group_gets_its_solo_solve(self, seed, cfg):
        d = group_batch_dataset(seed)
        pooled, _ = npmle(d, cfg)
        batch = estimators._group_npmles(d, pooled, cfg)
        for (est, diag), (want_est, want) in zip(batch, solo_group_fits(d, cfg, pooled)):
            assert est.support.tobytes() == want_est.support.tobytes()
            assert est.values.tobytes() == want_est.values.tobytes()
            assert diag == want

    def test_the_draws_cover_every_kind_of_segment(self):
        """The datasets above include each case the batch must get right."""
        seen = set()
        for seed in range(24):
            d = group_batch_dataset(seed)
            pooled, _ = npmle(d)
            estimators._group_npmles(d, pooled, IcmConfig())
            supports = []
            for g in (restrict_to_group(d, l) for l in range(1, d.k + 1)):
                rows, support = estimators._support_rows(estimators._event_rows(flatten_observations(g)))
                supports.append(rows.m)
                if support is not None and rows.m:
                    seen.add("grid points off a group's support")
                if not rows.m:
                    seen.add("a group without events")
                if build_time_grid(g).m < build_time_grid(d).m:
                    seen.add("a group grid strictly inside the pooled grid")
            if max(supports) <= 64 < sum(supports):
                seen.add("segments of at most 64 points, more than 64 in all")
            if any(m > 64 for m in supports):
                seen.add("a segment of more than 64 points")
            if 5 in d.group_sizes and 60 in d.group_sizes:
                iterations = {diag.iterations for _, diag in solo_group_fits(d, IcmConfig(), pooled)}
                if len(iterations) > 1:
                    seen.add("groups of 5 and 60 that stop at different iterations")
            statuses = {diag.status for _, diag in solo_group_fits(d, IcmConfig(max_iterations=2), pooled)}
            if "max-iterations" in statuses and len(statuses) > 1:
                seen.add("some segments end at the iteration limit")
        assert seen == {
            "grid points off a group's support",
            "a group without events",
            "a group grid strictly inside the pooled grid",
            "segments of at most 64 points, more than 64 in all",
            "a segment of more than 64 points",
            "groups of 5 and 60 that stop at different iterations",
            "some segments end at the iteration limit",
        }

    def test_the_draws_include_batches_where_only_some_groups_polish(self, monkeypatch):
        """A group whose ICM step halved sits out the polish while the
        others polish (``_newton_polish``'s mask)."""
        splits = []
        polish = estimators._newton_polish

        def spy(rows, u, du, ll, pending):
            splits.append(any(pending) and not all(pending))
            return polish(rows, u, du, ll, pending)

        monkeypatch.setattr(estimators, "_newton_polish", spy)
        for seed in range(24):
            d = group_batch_dataset(seed)
            estimators._group_npmles(d, npmle(d)[0], IcmConfig())
        assert any(splits)

    @pytest.mark.parametrize("seed", range(24))
    def test_segments_are_the_rows_of_each_group(self, seed):
        d = group_batch_dataset(seed)
        rows, points, n = estimators._group_rows(d, build_time_grid(d), flatten_observations(d))
        assert len(rows.points) == len(n) == d.k
        for s in range(d.k):
            g = restrict_to_group(d, s + 1)
            want = estimators._event_rows(flatten_observations(g))
            (p0, p1), (e0, e1), (l0, l1) = rows.points.pairs[s], rows.events.pairs[s], rows.lasts.pairs[s]
            prev_slot = rows.prev_slot[e0:e1]
            got = {
                "rank": rows.rank[e0:e1] - p0,
                "prev_slot": np.where(prev_slot > 0, prev_slot - p0, 0),
                "dN": rows.dN[e0:e1],
                "last_rank": rows.last_rank[l0:l1] - p0,
                "last_count": rows.last_count[p0:p1],
            }
            for name, value in got.items():
                assert value.dtype == getattr(want, name).dtype, name
                np.testing.assert_array_equal(value, getattr(want, name), err_msg=name)
            assert p1 - p0 == want.m
            assert points[p0:p1].tobytes() == build_time_grid(g).points.tobytes()
            assert n[s] == g.n

    def test_failing_groups_raise_for_the_lowest(self):
        # groups 2 and 3 have no events at the first visit time: their
        # NPMLEs sit at the origin boundary
        d = PanelDataset.from_paths(
            [
                path("a1", 1, [1.0, 2.0, 3.0], [2, 3, 5]),
                path("b1", 1, [1.0, 3.0], [1, 4]),
                path("a2", 2, [1.0, 2.0], [0, 2]),
                path("b2", 2, [1.0, 3.0], [0, 1]),
                path("a3", 3, [1.0, 2.0], [0, 3]),
                path("b3", 3, [1.0, 3.0], [0, 2]),
            ],
            k=3,
        )
        pooled, pooled_diag = npmle(d)
        assert pooled_diag.converged
        solo = solo_group_fits(d, IcmConfig(), pooled)
        assert [diag.status for _, diag in solo] == ["converged", "boundary-origin", "boundary-origin"]
        with pytest.raises(SolverConvergenceError) as raised:
            fit_all(d)
        assert str(raised.value) == "group 2 NPMLE did not converge (boundary-origin)"
        assert raised.value.diagnostics == solo[1][1]

    def test_group_without_subjects_named(self, monkeypatch):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [1, 3]), path("b", 3, [1.0, 2.0], [2, 2])], k=3
        )
        batches = []
        icm = estimators._icm

        def spy(rows, u, n, cfg):
            batches.append(len(rows.points))
            return icm(rows, u, n, cfg)

        monkeypatch.setattr(estimators, "_icm", spy)
        with pytest.raises(ValueError, match="^group 2 has no observations$"):
            fit_all(d)
        # raised before the group batch: only the pooled solve ran
        assert batches == [1]

    @pytest.mark.parametrize("sizes", [[2, 0], [0, 2]])
    @pytest.mark.parametrize("groups", [[1, 2], [2, 1]])
    def test_group_whose_subjects_have_no_visits_named(self, sizes, groups):
        d = PanelDataset.from_columns(
            times=[1.0, 2.0], counts=[1, 3], sizes=sizes, groups=groups, subject_ids=["a", "b"], k=2
        )
        empty = groups[sizes.index(0)]
        pooled, _ = npmle(d)
        with pytest.raises(ValueError, match=f"^group {empty} has no observations$"):
            estimators._group_npmles(d, pooled, IcmConfig())
        with pytest.raises(ValueError, match=f"^group {empty} has no observations$"):
            fit_all(d)

    def test_each_group_reports_the_batch_time(self):
        d = group_batch_dataset(3)
        fits = fit_all(d, TIGHT)
        seconds = {diag.seconds for diag in fits.group_diags}
        assert len(seconds) == 1 and seconds.pop() > 0
        for diag, (_, want) in zip(fits.group_diags, solo_group_fits(d, TIGHT, fits.pooled)):
            assert diag == want
            assert replace(diag, seconds=diag.seconds + 1.0) == diag


def batch_fields(rows):
    """Every field of a batch of rows, the derived ``last_count`` and the
    segments' bounds included."""
    fields = {name: getattr(rows, name) for name in ("rank", "prev_slot", "dN", "last_rank", "last_count")}
    fields.update({name: getattr(rows, name).bounds for name in ("points", "events", "lasts")})
    return {**fields, "m": np.array(rows.m)}


def segment_fields(rows, s):
    """The fields of segment ``s`` of a batch, on the segment's own grid."""
    (p0, p1), (e0, e1), (l0, l1) = rows.points.pairs[s], rows.events.pairs[s], rows.lasts.pairs[s]
    prev_slot = rows.prev_slot[e0:e1]
    return {
        "rank": rows.rank[e0:e1] - p0,
        "prev_slot": np.where(prev_slot > 0, prev_slot - p0, 0),
        "dN": rows.dN[e0:e1],
        "last_rank": rows.last_rank[l0:l1] - p0,
        "last_count": rows.last_count[p0:p1],
        "m": np.array(p1 - p0),
    }


def assert_same_fields(got, want):
    assert got.keys() == want.keys()
    for name, value in got.items():
        assert value.dtype == want[name].dtype, name
        np.testing.assert_array_equal(value, want[name], err_msg=name)


def group_batch(d):
    return estimators._group_rows(d, build_time_grid(d), flatten_observations(d))[0]


class TestCut:
    """``_cut``, the one way a batch of rows is cut, for good."""

    @pytest.mark.parametrize("seed", range(24))
    def test_keeping_everything_changes_nothing(self, seed):
        rows = group_batch(group_batch_dataset(seed))
        everything = np.ones(rows.m, dtype=bool)
        assert_same_fields(batch_fields(estimators._cut(rows, everything)), batch_fields(rows))

    @pytest.mark.parametrize("seed", range(24))
    def test_the_surviving_segments_are_the_batch_of_their_groups(self, seed):
        d = group_batch_dataset(seed)
        rows = group_batch(d)
        live = np.random.default_rng(seed).random(d.k) < 0.5
        if live.all() or not live.any():
            live[0] = not live[0]
        # the surviving groups relabeled 1..k'
        label = np.cumsum(live)
        survivors = PanelDataset.from_paths(
            [replace(p, group=int(label[p.group - 1])) for p in d.paths if live[p.group - 1]], k=int(label[-1])
        )
        got = estimators._cut(rows, rows.points.spread(live))
        assert_same_fields(batch_fields(got), batch_fields(group_batch(survivors)))

    @pytest.mark.parametrize("seed", range(24))
    def test_the_support_of_a_batch_is_the_support_of_each_group(self, seed):
        d = group_batch_dataset(seed)
        rows, _ = estimators._support_rows(group_batch(d))
        wants = []
        for l in range(1, d.k + 1):
            solo = estimators._event_rows(flatten_observations(restrict_to_group(d, l)))
            if solo.dN.size:
                wants.append(segment_fields(estimators._support_rows(solo)[0], 0))
        assert len(rows.points) == len(wants)
        for s, want in enumerate(wants):
            assert_same_fields(segment_fields(rows, s), want)


class TestPolishMask:
    """A segment that ``pending`` leaves out sits out the Newton polish and
    comes back unchanged; the others get, bit for bit, their polish as a
    batch of their own."""

    @pytest.mark.parametrize("pending", [[True, False], [False, True]], ids=["first", "second"])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_segment_polishes_as_if_cut_alone(self, monkeypatch, seed, pending):
        rng = np.random.default_rng(seed)
        rows, _ = estimators._support_rows(group_batch(random_dataset(rng, 30, k=2)))
        assert len(rows.points) == 2
        u = tied_iterate(rows, rng)
        du = estimators._increments(rows, u)
        ll = estimators._loglik(rows, u, du)
        blocks = []
        block_step = estimators._block_step

        def spy(*args):
            blocks.append([hi - lo for lo, hi in args[-1].pairs])
            return block_step(*args)

        monkeypatch.setattr(estimators, "_block_step", spy)
        got_u, got_du, got_ll, polished = estimators._newton_polish(rows, u, du, ll, pending)
        monkeypatch.undo()
        s = pending.index(True)
        # the segment that sits out adds one block to the Newton system
        assert blocks[0][1 - s] == 1
        points, events = rows.points.of == s, rows.events.of == s
        want_u, want_du, want_ll, want_polished = estimators._newton_polish(
            estimators._cut(rows, points), u[points], du[events], ll[[s]], [True]
        )
        assert want_polished.tolist() == [True]
        assert got_u[points].tobytes() == want_u.tobytes()
        assert got_du[events].tobytes() == want_du.tobytes()
        assert got_ll[s] == want_ll[0] and polished[s]
        # the segment that sits out
        assert got_u[~points].tobytes() == u[~points].tobytes()
        assert got_du[~events].tobytes() == du[~events].tobytes()
        assert got_ll[1 - s] == ll[1 - s] and not polished[1 - s]


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
        at_origin = single_certificates(g, np.array([0.0, 2.0]), 1, 1e-6)
        lifted = single_certificates(g, np.array([1.0, 2.0]), 1, 1e-6)
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

    def test_fixed_point_status_certifies_the_returned_estimate(self):
        # the last step moves the iterate by less than the fixed-point
        # threshold; certified before that step it would read "stalled"
        # with residual 1.012e-12
        rng = np.random.default_rng(582)
        # three draws precede the dataset in the stream that produced it
        rng.integers(1, 40), rng.choice([0.1, 0.5, 1.0, 3.0]), rng.integers(2, 12)
        d = random_dataset(rng, 28, k=1, max_time=10, rate=0.1)
        cfg = IcmConfig(fenchel_tol=1e-12)
        est, diag = npmle(d, cfg)
        g, _ = gradient_and_curvature(d, est.values)
        certified, residual, _ = single_certificates(g, est.values, d.n, cfg.fenchel_tol)
        assert certified
        assert diag.status == "converged"
        assert diag.fenchel_residual == residual
        assert diag.fenchel_residual == pytest.approx(9.908e-13, rel=1e-3)

    def test_stop_rule_at_the_limit_ends_as_max_iterations(self, rng):
        # the stop rule holds at the top of iteration j; a limit of j - 1
        # ends on the same iterate, as max-iterations at j - 1
        d = random_dataset(rng, 40)
        est, diag = npmle(d)
        j = diag.iterations
        assert (diag.status, j) == ("converged", 4)
        assert npmle(d, IcmConfig(max_iterations=j))[1] == diag
        capped_est, capped = npmle(d, IcmConfig(max_iterations=j - 1))
        assert (capped.status, capped.iterations) == ("max-iterations", j - 1)
        assert capped_est.values.tobytes() == est.values.tobytes()
        assert capped.loglik == diag.loglik
        assert capped.loglik_trace == diag.loglik_trace
        assert capped.fenchel_residual == diag.fenchel_residual

    def test_fixed_point_at_the_limit_keeps_its_status(self):
        # the dataset of test_fixed_point_status_certifies_the_returned_estimate,
        # whose iterate stops moving in iteration j; j is 8 with the BLAS and
        # SIMD kernels the golden digests were recorded with, and the path
        # to the fixed point differs under others
        rng = np.random.default_rng(582)
        rng.integers(1, 40), rng.choice([0.1, 0.5, 1.0, 3.0]), rng.integers(2, 12)
        d = random_dataset(rng, 28, k=1, max_time=10, rate=0.1)
        cfg = IcmConfig(fenchel_tol=1e-12)
        _, diag = npmle(d, cfg)
        j = diag.iterations
        assert diag.status == "converged"
        assert npmle(d, replace(cfg, max_iterations=j))[1] == diag
        _, capped = npmle(d, replace(cfg, max_iterations=j - 1))
        assert (capped.status, capped.iterations) == ("max-iterations", j - 1)


class TestStepAcceptance:
    """What each step does with a candidate that gains exactly 0: the ICM
    step (``_ascend`` with ``strict=False``) takes it, the Newton polish
    (``strict=True``) does not."""

    @staticmethod
    def zero_gain_move():
        """Rows, an iterate and a target that moves it only at time 2, where
        no row with events starts or ends and no subject's last visit falls:
        every candidate between the two gains exactly 0."""
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 3.0], [1, 2]), path("b", 1, [2.0, 3.0], [0, 0])]
        )
        rows = estimators._event_rows(flatten_observations(d))
        u = np.array([1.0, 1.5, 2.0])
        target = np.array([1.0, 1.75, 2.0])
        du = estimators._increments(rows, u)
        ll = estimators._loglik(rows, u, du)
        cand = target - 0.0 * (target - u)
        assert estimators._loglik_diff(rows, cand, estimators._increments(rows, cand), u, du).tolist() == [0.0]
        return rows, u, du, ll, target

    def test_polish_refuses_a_zero_gain(self):
        rows, u, du, ll, target = self.zero_gain_move()
        got, _, got_ll, taken = estimators._ascend(rows, u, du, ll, target, [True], True)
        assert taken == [0.0]
        assert got.tobytes() == u.tobytes() and got_ll == ll.tolist()

    def test_icm_step_takes_a_zero_gain(self):
        rows, u, du, ll, target = self.zero_gain_move()
        got, _, got_ll, taken = estimators._ascend(rows, u, du, ll, target, [True], False)
        assert taken == [1.0]
        assert got.tobytes() == target.tobytes() and got_ll == ll.tolist()


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
