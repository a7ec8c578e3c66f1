"""Data model for panel count data.

A subject's counting process is observed only at discrete visit times, as
cumulative event counts.  This module holds the observation-path and dataset
containers, the pooled time grid with its rank function, the nondecreasing
step functions used by every estimator, and structural validation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "ObservationPath",
    "PanelDataset",
    "TimeGrid",
    "StepEstimate",
    "ValidationReport",
    "FlatObservations",
    "validate_dataset",
    "build_time_grid",
    "eval_step",
    "restrict_to_group",
    "flatten_observations",
]


@dataclass(frozen=True, eq=False)
class ObservationPath:
    """One subject's visit times and cumulative event counts.

    ``times`` must be strictly increasing positive reals and ``counts`` the
    nondecreasing cumulative number of events seen up to each visit; both
    have the same length K >= 1.  The implicit origin is (0, 0).  Contents
    are stored as-is so that :func:`validate_dataset` can report violations.
    """

    subject_id: str
    group: int
    times: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.atleast_1d(np.asarray(self.times, dtype=float)))
        object.__setattr__(self, "counts", np.atleast_1d(np.asarray(self.counts, dtype=float)))

    def __eq__(self, other):
        if not isinstance(other, ObservationPath):
            return NotImplemented
        return (
            self.subject_id == other.subject_id
            and self.group == other.group
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.counts, other.counts)
        )

    @property
    def n_visits(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class PanelDataset:
    """A labeled sample of observation paths across ``k`` groups (labels 1..k)."""

    paths: tuple[ObservationPath, ...]
    k: int

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))

    @classmethod
    def from_paths(cls, paths, k: int | None = None) -> "PanelDataset":
        paths = tuple(paths)
        if k is None:
            k = max((p.group for p in paths), default=0)
        return cls(paths=paths, k=k)

    @property
    def n(self) -> int:
        return len(self.paths)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        counts = [0] * self.k
        for p in self.paths:
            if 1 <= p.group <= self.k:
                counts[p.group - 1] += 1
        return tuple(counts)


@dataclass(frozen=True)
class TimeGrid:
    """Pooled distinct observation times t_1 < ... < t_m with their rank map."""

    points: np.ndarray

    @property
    def m(self) -> int:
        return self.points.size

    @cached_property
    def rank(self) -> dict[float, int]:
        """Observed time -> 1-based index, built on first read."""
        return {float(t): s for s, t in enumerate(self.points, start=1)}


@dataclass(frozen=True)
class StepEstimate:
    """A nonnegative nondecreasing step function on [0, inf).

    The function is 0 before the first support point, right-continuous with
    jumps at support points, and constant after the last one.
    """

    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        support = np.atleast_1d(np.asarray(self.support, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if support.size != values.size or support.size == 0:
            raise ValueError("support and values must have equal positive length")
        if not (np.all(np.isfinite(support)) and np.all(np.isfinite(values))):
            raise ValueError("support and values must be finite")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if values[0] < 0 or np.any(np.diff(values) < 0):
            raise ValueError("values must be nonnegative and nondecreasing")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        return eval_step(self, t)


def eval_step(e: StepEstimate, t):
    """Evaluate a step estimate at time(s) ``t`` (scalar or array), t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    idx = np.searchsorted(e.support, t_arr, side="right") - 1
    out = np.where(idx >= 0, e.values[np.clip(idx, 0, None)], 0.0)
    if np.ndim(t) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Fatal structural violations plus soft diagnostic flags."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _path_errors(p: ObservationPath, k: int) -> list[str]:
    sid = p.subject_id
    errs = []
    if p.times.size != p.counts.size:
        errs.append(f"subject {sid}: times and counts have different lengths")
        return errs
    if p.times.size < 1:
        errs.append(f"subject {sid}: no observations")
        return errs
    # NaN fails every ordering comparison below, so it must be caught first.
    if not np.all(np.isfinite(p.times)):
        errs.append(f"subject {sid}: non-finite observation time")
    if not np.all(np.isfinite(p.counts)):
        errs.append(f"subject {sid}: non-finite count")
    if errs:
        return errs
    if p.times[0] <= 0:
        errs.append(f"subject {sid}: first observation time must be positive")
    if np.any(np.diff(p.times) <= 0):
        errs.append(f"subject {sid}: times not strictly increasing")
    if p.counts[0] < 0:
        errs.append(f"subject {sid}: negative count")
    if np.any(np.diff(p.counts) < 0):
        errs.append(f"subject {sid}: counts decreasing")
    if np.any(p.counts != np.round(p.counts)):
        errs.append(f"subject {sid}: counts not integer-valued")
    if not (1 <= p.group <= k):
        errs.append(f"subject {sid}: group {p.group} outside 1..{k}")
    return errs


def validate_dataset(d: PanelDataset) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    errors: list[str] = []
    warnings: list[str] = []
    if d.n == 0:
        errors.append("dataset has no paths")
    if d.k < 1:
        errors.append("dataset must have k >= 1 groups")
    for p in d.paths:
        errors.extend(_path_errors(p, d.k))
    if not errors:
        for l, n_l in enumerate(d.group_sizes, start=1):
            if n_l == 0:
                errors.append(f"group {l} has no paths")
    if not errors:
        # Flat spots in the pooled increments undermine the bounded-below
        # increment assumption behind the variance estimates; flag them.
        grid = build_time_grid(d)
        flat = flatten_observations(d, grid)
        pooled_events = np.bincount(flat.rank, weights=flat.dN, minlength=grid.m)
        for ell in np.flatnonzero(pooled_events == 0):
            t = grid.points[ell]
            warnings.append(
                f"no pooled events on the inter-observation gap ending at t={t:g}"
            )
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def build_time_grid(d: PanelDataset) -> TimeGrid:
    """Pool all observation times into the sorted distinct grid t_1 < ... < t_m."""
    if d.n == 0:
        raise ValueError("cannot build a time grid from an empty dataset")
    return TimeGrid(points=np.unique(np.concatenate([p.times for p in d.paths])))


def restrict_to_group(d: PanelDataset, l: int) -> PanelDataset:
    """Single-group dataset holding the paths of group ``l`` (relabeled to 1)."""
    if not (1 <= l <= d.k):
        raise ValueError(f"group {l} outside 1..{d.k}")
    kept = tuple(
        p if p.group == 1 else replace(p, group=1) for p in d.paths if p.group == l
    )
    return PanelDataset(paths=kept, k=1)


@dataclass(frozen=True)
class FlatObservations:
    """All (subject, visit) rows of a dataset in subject-major order.

    Solver and test-statistic plumbing: ``rank``/``prev_rank`` are 0-based
    grid indices (-1 marks the implicit origin time 0), ``dN`` the
    within-subject count increments, and ``is_last`` each subject's final
    visit.  ``subj`` maps rows to 0-based subject indices.
    """

    times: np.ndarray
    prev_times: np.ndarray
    counts: np.ndarray
    dN: np.ndarray
    subj: np.ndarray
    is_first: np.ndarray
    is_last: np.ndarray
    rank: np.ndarray
    prev_rank: np.ndarray
    n_subjects: int
    m: int


def flatten_observations(d: PanelDataset, grid: TimeGrid | None = None) -> FlatObservations:
    if grid is None:
        grid = build_time_grid(d)
    times = np.concatenate([p.times for p in d.paths])
    counts = np.concatenate([p.counts for p in d.paths])
    sizes = np.array([p.n_visits for p in d.paths])
    subj = np.repeat(np.arange(d.n), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    is_first = np.zeros(times.size, dtype=bool)
    is_first[starts] = True
    is_last = np.zeros(times.size, dtype=bool)
    is_last[np.cumsum(sizes) - 1] = True
    prev_times = np.empty_like(times)
    prev_times[1:] = times[:-1]
    prev_times[is_first] = 0.0
    dN = np.empty_like(counts)
    dN[1:] = counts[1:] - counts[:-1]
    dN[is_first] = counts[is_first]
    rank = np.searchsorted(grid.points, times)
    prev_rank = np.empty_like(rank)
    prev_rank[1:] = rank[:-1]
    prev_rank[is_first] = -1
    return FlatObservations(
        times=times,
        prev_times=prev_times,
        counts=counts,
        dN=dN,
        subj=subj,
        is_first=is_first,
        is_last=is_last,
        rank=rank,
        prev_rank=prev_rank,
        n_subjects=d.n,
        m=grid.m,
    )
