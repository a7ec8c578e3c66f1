import numpy as np
import pytest

from panelcount import IcmConfig, ObservationPath, PanelDataset

TIGHT = IcmConfig(fenchel_tol=1e-10)


def path(subject_id, group, times, counts):
    return ObservationPath(
        subject_id=subject_id, group=group, times=np.asarray(times, float), counts=np.asarray(counts, float)
    )


def random_dataset(rng, n_subjects, k=1, max_time=10, rate=1.0):
    """Poisson panel data with uniform visit schedules on {1..max_time}.

    The first subject of each group is anchored with a visit at time 1
    carrying at least one event, which keeps the fitted mean positive at the
    first grid point.  Otherwise the maximizer can sit at 0 there, where the
    optimality condition at l=1 is one-sided (S_1 <= 0) while the solver's
    certificate is two-sided; such draws legitimately end with status
    "boundary-origin" and converged=False.
    """
    paths = []
    for i in range(n_subjects):
        group = 1 + i % k
        n_visits = int(rng.integers(1, max_time + 1))
        times = np.sort(
            rng.choice(np.arange(1, max_time + 1), size=n_visits, replace=False)
        ).astype(float)
        if i < k and times[0] != 1.0:
            times = np.concatenate([[1.0], times])
        increments = rng.poisson(rate * np.diff(times, prepend=0.0))
        if i < k:
            increments[0] = max(increments[0], 1)
        counts = np.cumsum(increments)
        paths.append(path(f"s{i}", group, times, counts.astype(float)))
    return PanelDataset.from_paths(paths, k=k)


def tied_iterate(rows, rng):
    """A feasible iterate on each segment of the solver's rows ``rows``,
    with the fewest tie blocks.

    A segment's first block, at 0, holds the origin.  A new block starts,
    with a random rise, only at a grid point that ends a row with events
    starting in the current block.  So a row with events leads from each
    block into the next, and each segment's block Newton system less its
    first block is positive definite."""
    latest_start = np.full(rows.m, -1)
    np.maximum.at(latest_start, rows.rank, rows.prev_slot)
    steps = np.zeros(rows.m)
    for a, b in rows.points.pairs:
        block_start = 0  # padded slot of the current block's first point, 0 the origin
        for j in range(a, b):
            if latest_start[j] >= block_start:
                steps[j] = rng.uniform(0.2, 2.0)
                block_start = j + 1
    return np.concatenate([np.cumsum(steps[a:b]) for a, b in rows.points.pairs])


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def two_subject_dataset():
    return PanelDataset.from_paths(
        [
            path("a", 1, [1.0, 3.0, 4.0], [1, 3, 4]),
            path("b", 1, [2.0, 4.0], [2, 5]),
        ]
    )
