"""The NPMLE's block-level Newton system and its memory footprint."""

import tracemalloc

import numpy as np
import pytest

from panelcount import IcmConfig, PanelDataset, npmle, npmple
from panelcount.core import build_time_grid, flatten_observations
from panelcount import estimators
from conftest import TIGHT, path, random_dataset, tied_iterate
from _oracles import isotonic_brute_force, loglik_direct, loglik_hessian_direct


def continuous_dataset(seed, n_subjects, horizon=10.0, max_visits=10):
    """Poisson(t) counts at 1..max_visits U(0, horizon] visit times per
    subject: almost every visit time is a grid point of its own."""
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n_subjects):
        times = np.sort(horizon * (1.0 - rng.random(int(rng.integers(1, max_visits + 1)))))
        counts = np.cumsum(rng.poisson(np.diff(times, prepend=0.0)))
        paths.append(path(f"s{i}", 1, times, counts.astype(float)))
    return PanelDataset.from_paths(paths)


def polish_matrix(monkeypatch, d, u):
    """The matrix that one Newton polish at ``u`` hands to the linear solve."""
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        seen.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    rows = estimators._event_rows(flatten_observations(d))
    du = estimators._increments(rows, u)
    estimators._newton_polish(rows, u, du, estimators._loglik(rows, u), [True])
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


def dense_block_reduction(d, u):
    block_id = np.concatenate([[0], np.cumsum(np.diff(u) != 0)])
    member = (block_id[None, :] == np.arange(block_id[-1] + 1)[:, None]).astype(float)
    return -(member @ loglik_hessian_direct(d, u) @ member.T)


class TestBlockNewtonSystem:
    def assert_matches_oracle(self, monkeypatch, d, u, held=()):
        """The solve sees the oracle's block system less the ``held`` blocks."""
        got = polish_matrix(monkeypatch, d, u)
        full = dense_block_reduction(d, u)
        want = np.delete(np.delete(full, held, axis=0), held, axis=1)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_distinct_values_give_full_hessian(self, monkeypatch, rng):
        d = random_dataset(rng, 25)
        m = flatten_observations(d).m
        u = np.cumsum(rng.uniform(0.2, 2.0, size=m))
        self.assert_matches_oracle(monkeypatch, d, u)

    def test_small_curvature_blocks_stay_free(self, monkeypatch, rng):
        # a large u makes every block's curvature tiny but positive: only a
        # zero diagonal holds a block, so the solve still sees every block
        d = random_dataset(rng, 25)
        m = flatten_observations(d).m
        u = 1e6 * np.cumsum(rng.uniform(0.2, 2.0, size=m))
        assert np.diagonal(dense_block_reduction(d, u)).max() < 1e-9
        self.assert_matches_oracle(monkeypatch, d, u)

    def test_tied_values_reduce_to_blocks(self, monkeypatch, rng):
        d = random_dataset(rng, 6, rate=0.3)
        flat = flatten_observations(d)
        spans = set(zip(flat.prev_rank[flat.dN > 0], flat.rank[flat.dN > 0]))
        steps = rng.uniform(0.2, 2.0, size=flat.m)
        for l in range(0, flat.m - 1, 2):
            if (l, l + 1) not in spans:  # a tie here leaves every event interval increasing
                steps[l + 1] = 0.0
        assert 1 + np.count_nonzero(steps[1:]) < flat.m
        self.assert_matches_oracle(monkeypatch, d, np.cumsum(steps))

    def test_continuous_times_with_ties(self, monkeypatch, rng):
        d = continuous_dataset(3, 40)
        u = tied_iterate(estimators._event_rows(flatten_observations(d)), rng)
        assert 1 + np.count_nonzero(np.diff(u)) < u.size
        # the first block sits at 0: the solve holds exactly that one
        assert u[0] == 0.0
        self.assert_matches_oracle(monkeypatch, d, u, held=[0])


def test_polish_moves_free_blocks_at_origin_boundary(rng):
    # an iterate with u_1 = 0: a step on the first block could push it
    # below 0; holding it still gives an ascent step
    d = continuous_dataset(3, 40)
    rows = estimators._event_rows(flatten_observations(d))
    u = tied_iterate(rows, rng)
    assert u[0] == 0.0
    ll = estimators._loglik(rows, u)
    cand, _, ll_new, polished = estimators._newton_polish(
        rows, u, estimators._increments(rows, u), ll, [True]
    )
    assert polished
    assert ll_new > ll
    block_id = np.concatenate([[0], np.cumsum(np.diff(u) != 0)])
    held = block_id == 0
    np.testing.assert_array_equal(cand[held], u[held])
    assert np.any(cand[~held] != u[~held])
    assert np.all(np.diff(cand) >= 0)


def polish_with_step(monkeypatch, d, u):
    """One Newton polish at ``u``: the block step its linear solve returned,
    the polished iterate and its log-likelihood gain."""
    steps = []
    solve = np.linalg.solve

    def spy(a, b):
        steps.append(solve(a, b))
        return steps[-1]

    monkeypatch.setattr(np.linalg, "solve", spy)
    rows = estimators._event_rows(flatten_observations(d))
    ll = estimators._loglik(rows, u)
    cand, _, ll_new, polished = estimators._newton_polish(
        rows, u, estimators._increments(rows, u), ll, [True]
    )
    monkeypatch.undo()
    assert polished and len(steps) == 1
    return steps[0], cand, ll_new - ll


class TestProjectedStep:
    """Iterates with distinct values, so each grid point is a block and no
    block is held."""

    def test_step_across_two_blocks_merges_them(self, monkeypatch, two_subject_dataset):
        d = two_subject_dataset
        u = np.array([1.4, 3.8, 4.6, 4.8])
        dv, got, gain = polish_with_step(monkeypatch, d, u)
        full = u + dv
        # the full step crosses blocks 1 and 2 and keeps every other pair in order
        assert full[0] > 0 and full[1] < full[0]
        assert np.all(np.diff(full[1:]) > 0)
        # the projection in the metric of the block curvatures
        h = np.diagonal(dense_block_reduction(d, u))
        assert h.min() > estimators._CURVATURE_FLOOR_RATIO * h.max()
        np.testing.assert_allclose(got, isotonic_brute_force(full, h), rtol=1e-14)
        assert got[0] == got[1] and np.unique(got).size == 3
        grid = build_time_grid(d).points
        assert gain > 0
        assert gain == pytest.approx(loglik_direct(d, grid, got) - loglik_direct(d, grid, u), rel=1e-12)

    def test_step_that_keeps_order_is_taken_in_full(self, monkeypatch, two_subject_dataset):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        dv, got, gain = polish_with_step(monkeypatch, two_subject_dataset, u)
        assert np.all(np.diff(u + dv) > 0)
        np.testing.assert_array_equal(got, u + dv)
        assert gain > 0


def block_curvature(rows, u, du):
    """Diagonal of the block Newton matrix of phi at ``u``: each row with
    events adds its weight dN / du^2 to the block it ends in and to the
    block it starts in, unless it starts and ends in the same block."""
    block = np.concatenate([[0], np.cumsum(np.diff(u) != 0)])
    w = rows.dN / du**2
    end = block[rows.rank]
    start = np.where(rows.prev_slot > 0, block[rows.prev_slot - 1], -1)
    crosses = end != start
    from_block = crosses & (start >= 0)
    n_blocks = block[-1] + 1
    return np.bincount(end[crosses], weights=w[crosses], minlength=n_blocks) + np.bincount(
        start[from_block], weights=w[from_block], minlength=n_blocks
    )


def test_npmle_hands_the_polish_no_block_without_curvature(monkeypatch):
    seen = []
    polish = estimators._newton_polish

    def spy(rows, u, du, ll, pending):
        seen.append(block_curvature(rows, u, du))
        return polish(rows, u, du, ll, pending)

    monkeypatch.setattr(estimators, "_newton_polish", spy)
    d = continuous_dataset(3, 40)
    npmle(d)
    assert seen
    assert all(c.min() > 0 for c in seen)


def test_continuous_npmle_stops_at_origin_boundary():
    d = continuous_dataset(20090415, 200)
    _, diag = npmle(d)
    assert diag.status == "boundary-origin"
    assert not diag.converged
    assert diag.iterations < 20
    # the log-likelihood after 500 iterations without the prompt stop
    ll_500 = -317.15797215851575
    assert diag.loglik >= ll_500 - 1e-9 * abs(ll_500)


def test_continuous_npmle_iteration_budget():
    # a Newton step that would cross tie blocks merges them in one projected
    # step; halving the whole step until no block crossed took 31 iterations
    d = continuous_dataset(20090415, 3000)
    _, diag = npmle(d)
    assert diag.status == "boundary-origin"
    assert diag.iterations <= 10
    ll_halving = -4477.847465162513
    assert abs(diag.loglik - ll_halving) <= 1e-12 * abs(ll_halving)


def test_npmle_memory_stays_below_grid_squared():
    # m is about 3300: an m x m float matrix alone would take about 87 MB
    d = continuous_dataset(20090415, 600)
    assert flatten_observations(d).m > 3000
    tracemalloc.start()
    try:
        npmle(d, IcmConfig(max_iterations=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def blocks_of(u):
    return 1 + int(np.count_nonzero(u[1:] != u[:-1]))


def solver_steps(monkeypatch, d, most_blocks=2000):
    """The steps of ``npmle(d)`` in order: ``("icm", s, blocks)`` for each
    ICM step, with the s it took (0.0 for none) and its target's number of
    tie blocks, and ``("polish", blocks)`` for each Newton polish, with the
    number of tie blocks it was handed.  A polish handed more than
    ``most_blocks`` blocks fails the test before it builds its dense
    system, (blocks + 1)^2 floats."""
    steps = []
    ascend, polish = estimators._ascend, estimators._newton_polish

    def ascend_spy(rows, u, du, ll, target, pending, strict):
        out = ascend(rows, u, du, ll, target, pending, strict)
        if not strict:
            (s,) = out[3]
            steps.append(("icm", s, blocks_of(target)))
        return out

    def polish_spy(rows, u, du, ll, pending):
        steps.append(("polish", blocks_of(u)))
        assert steps[-1][1] <= most_blocks, f"a polish handed {steps[-1][1]} blocks"
        return polish(rows, u, du, ll, pending)

    monkeypatch.setattr(estimators, "_ascend", ascend_spy)
    monkeypatch.setattr(estimators, "_newton_polish", polish_spy)
    _, diag = npmle(d)
    monkeypatch.undo()
    return steps, diag


class TestPolishRule:
    """The Newton polish runs only after an ICM step that took its PAVA
    target, so it is never handed more blocks than that target has."""

    def test_no_polish_after_a_halved_icm_step(self, monkeypatch):
        # m is about 3300; the first two ICM steps of this solve halve
        steps, _ = solver_steps(monkeypatch, continuous_dataset(20090415, 600))
        icm = [step for step in steps if step[0] == "icm"]
        assert any(0.0 < s < 1.0 for _, s, _ in icm)
        for before, after in zip(steps, steps[1:]):
            if after[0] == "polish":
                assert before[:2] == ("icm", 1.0)
        assert sum(step[0] == "polish" for step in steps) == sum(s == 1.0 for _, s, _ in icm)

    @pytest.mark.parametrize("args", [(3, 40), (20090415, 200), (20090415, 600), (20090415, 6000)])
    def test_no_polish_system_has_more_blocks_than_its_icm_target(self, monkeypatch, args):
        steps, _ = solver_steps(monkeypatch, continuous_dataset(*args))
        polishes = [(before, after) for before, after in zip(steps, steps[1:]) if after[0] == "polish"]
        assert polishes
        for (_, _, target_blocks), (_, blocks) in polishes:
            assert blocks <= target_blocks

    def test_continuous_times_at_n_6000_need_no_large_system(self, monkeypatch):
        # m is about 33,000; a polish of a halved ICM candidate was handed
        # 26,045 blocks here, a dense system of 5.4 GB
        d = continuous_dataset(20090415, 6000)
        steps, diag = solver_steps(monkeypatch, d, most_blocks=999)
        assert diag.status == "boundary-origin"
        assert any(step[0] == "polish" for step in steps)


def test_start_joins_the_npmple_blocks_by_lines(monkeypatch):
    # NPMPLE: 5/3 on the block {1, 2} (midpoint 1.5), 6 at 4, and 7.5 on
    # {5, 6} (midpoint 5.5); every grid point is in the support
    d = PanelDataset.from_paths(
        [
            path("a", 1, [1.0, 2.0, 4.0], [2, 2, 6]),
            path("b", 1, [2.0, 5.0], [1, 8]),
            path("c", 1, [6.0], [7]),
        ]
    )
    np.testing.assert_allclose(npmple(d).values, [5 / 3, 5 / 3, 6.0, 7.5, 7.5], rtol=1e-15)
    # (0, 0) to (1.5, 5/3) to (4, 6) to (5.5, 7.5), then flat
    want = [10 / 9, 5 / 3 + 0.2 * (6 - 5 / 3), 6.0, 7.0, 7.5]
    starts = []
    icm = estimators._icm

    def spy(rows, u, n, cfg):
        starts.append(u.copy())
        return icm(rows, u, n, cfg)

    monkeypatch.setattr(estimators, "_icm", spy)
    npmle(d)
    (u0,) = starts
    np.testing.assert_allclose(u0 - estimators._INIT_SLOPE_EPSILON * np.arange(1, 6), want, rtol=1e-14)


def test_start_over_nearly_equal_times_is_finite():
    # the line from the origin to the first block's midpoint, 1.1e-313,
    # has a slope above the largest float
    d = PanelDataset.from_paths(
        [path("s0", 1, [5e-324, 0.5], [1, 2]), path("s1", 1, [2.2250738585e-313], [0])]
    )
    est, diag = npmle(d)
    assert np.all(np.isfinite(est.values))
    assert np.isfinite(diag.loglik)
