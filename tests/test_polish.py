"""The NPMLE's block-level Newton system and its memory footprint."""

import tracemalloc

import numpy as np

from panelcount import IcmConfig, PanelDataset, npmle
from panelcount.core import flatten_observations
from panelcount import estimators
from conftest import TIGHT, path, random_dataset
from _oracles import loglik_hessian_direct


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
    estimators._newton_polish(rows, u, du, estimators._loglik(rows, u), 30)
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

    def test_continuous_times_with_ties(self, monkeypatch):
        d = continuous_dataset(3, 40)
        est, _ = npmle(d, IcmConfig(max_iterations=5))
        u = est.values
        assert 1 + np.count_nonzero(np.diff(u)) < u.size
        # the first block sits at 0 and no row with events touches block 4:
        # the solve holds exactly those two
        assert u[0] == 0.0
        assert np.flatnonzero(np.diagonal(dense_block_reduction(d, u)) == 0).tolist() == [4]
        self.assert_matches_oracle(monkeypatch, d, u, held=[0, 4])


def test_polish_moves_free_blocks_at_origin_boundary():
    # an ICM iterate with u_1 = 0 and a block that no row with events
    # touches: the full Newton system is singular, and a step on the first
    # block would push it below 0; holding both still gives an ascent step
    d = continuous_dataset(3, 40)
    est, _ = npmle(d, IcmConfig(max_iterations=5))
    u = est.values
    assert u[0] == 0.0
    assert np.flatnonzero(np.diagonal(dense_block_reduction(d, u)) == 0).tolist() == [4]
    rows = estimators._event_rows(flatten_observations(d))
    ll = estimators._loglik(rows, u)
    cand, _, ll_new, polished = estimators._newton_polish(
        rows, u, estimators._increments(rows, u), ll, 30
    )
    assert polished
    assert ll_new > ll
    block_id = np.concatenate([[0], np.cumsum(np.diff(u) != 0)])
    held = np.isin(block_id, [0, 4])
    np.testing.assert_array_equal(cand[held], u[held])
    assert np.any(cand[~held] != u[~held])
    assert np.all(np.diff(cand) >= 0)


def test_continuous_npmle_stops_at_origin_boundary():
    d = continuous_dataset(20090415, 200)
    _, diag = npmle(d)
    assert diag.status == "boundary-origin"
    assert not diag.converged
    assert diag.iterations < 60
    # the log-likelihood after 500 iterations without the prompt stop
    ll_500 = -317.15797215851575
    assert diag.loglik >= ll_500 - 1e-9 * abs(ll_500)


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
