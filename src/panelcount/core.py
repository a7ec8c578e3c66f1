"""Data model for panel count data.

A subject's counting process is observed only at discrete visit times, as
cumulative event counts.  This module holds the observation-path and dataset
containers, the pooled time grid with its rank function, the nondecreasing
step functions used by every estimator, and structural validation.

A dataset is an immutable value, always stored as subject-major columns
(every subject's visit times and counts in turn, with per-subject sizes,
groups and ids); a dataset built from paths is built from their concatenated
columns.  Its ``paths`` are a view built from the columns on first read.  The
pooled grid and flat rows of a dataset are computed once and kept, so every
estimator and statistic of one dataset shares them, and a group is taken by a
row mask over the columns.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import compress

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
    are stored as-is so that :func:`validate_dataset` can report violations,
    except that ``PanelDataset.from_paths`` rejects a path whose times and
    counts differ in length.
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


class PanelDataset:
    """A labeled sample of observation paths across ``k`` groups (labels 1..k).

    Stored as subject-major columns: ``times`` and ``counts`` hold every
    subject's visits in turn, ``sizes`` the number of visits of each subject,
    ``groups`` and ``subject_ids`` their labels.  The column arrays are
    read-only.  Build one with ``from_columns``, or with ``from_paths``, which
    concatenates the paths' columns.  ``paths`` is a view built from the
    columns on first read and kept.
    """

    __hash__ = None

    @classmethod
    def from_paths(cls, paths, k: int | None = None) -> "PanelDataset":
        """The dataset of ``paths`` in order; ``k`` defaults to the largest
        group label.  A path whose times and counts differ in length is
        rejected."""
        paths = tuple(paths)
        for p in paths:
            if p.times.size != p.counts.size:
                raise ValueError(f"subject {p.subject_id}: times and counts have different lengths")
        return cls.from_columns(
            times=np.concatenate([p.times for p in paths] or [np.zeros(0)]),
            counts=np.concatenate([p.counts for p in paths] or [np.zeros(0)]),
            sizes=[p.times.size for p in paths],
            groups=[p.group for p in paths],
            subject_ids=[p.subject_id for p in paths],
            k=k,
        )

    @classmethod
    def from_columns(
        cls, times, counts, sizes, groups, subject_ids, k: int | None = None
    ) -> "PanelDataset":
        """The dataset whose subject ``i`` has the next ``sizes[i]`` rows of
        ``times`` and ``counts``, group ``groups[i]`` and id ``subject_ids[i]``.
        The arrays are copied; ``k`` defaults to the largest group label."""
        subject_ids = tuple(subject_ids)
        groups = _labels(groups)
        sizes = _readonly(np.array(sizes, dtype=int))
        times = _readonly(np.array(times, dtype=float))
        counts = _readonly(np.array(counts, dtype=float))
        if not (groups.shape == sizes.shape == (len(subject_ids),)):
            raise ValueError("sizes, groups and subject_ids must have one entry per subject")
        if np.any(sizes < 0) or not (times.shape == counts.shape == (int(sizes.sum()),)):
            raise ValueError("sizes must be nonnegative and sum to the rows of times and counts")
        if k is None:
            k = max(groups.tolist(), default=0)
        d = cls.__new__(cls)
        d.__dict__.update(
            times=times,
            counts=counts,
            sizes=sizes,
            groups=groups,
            subject_ids=subject_ids,
            k=k,
            n=len(subject_ids),
        )
        return d

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.paths, self.k) == (other.paths, other.k)

    def __repr__(self):
        return f"PanelDataset(paths={self.paths!r}, k={self.k!r})"

    @cached_property
    def paths(self) -> tuple[ObservationPath, ...]:
        bounds = np.cumsum(self.sizes)[:-1]
        return tuple(
            ObservationPath(subject_id=sid, group=g, times=t, counts=c)
            for sid, g, t, c in zip(
                self.subject_ids,
                self.groups.tolist(),
                np.split(self.times, bounds),
                np.split(self.counts, bounds),
            )
        )

    @cached_property
    def group_sizes(self) -> tuple[int, ...]:
        g = self.groups
        in_range = (g >= 1) & (g <= self.k)
        return tuple(np.bincount(g[in_range].astype(int) - 1, minlength=max(self.k, 0)).tolist())

    @cached_property
    def _grid(self) -> "TimeGrid":
        return TimeGrid(points=_readonly(np.unique(self.times)))

    @cached_property
    def _flat(self) -> "FlatObservations":
        return _flatten(self, self._grid)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _labels(groups) -> np.ndarray:
    """Group labels as a read-only array: integers, or objects for labels
    beyond 64 bits, which ``validate_dataset`` must still be able to report."""
    labels = np.array(groups)
    return _readonly(labels if labels.size else labels.astype(int))


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


def _suspect_paths(d: PanelDataset) -> np.ndarray:
    """Indices, in path order, of the paths that may break an invariant of
    ``_path_errors``: a superset of the paths it reports, found in one pass
    over the dataset's rows."""
    suspect = ~((d.groups >= 1) & (d.groups <= d.k)) | (d.sizes == 0)
    times, counts = d.times, d.counts
    subj = np.repeat(np.arange(d.n), d.sizes)
    # Each row against the row before it in its path, the origin (0, 0)
    # before the first: this checks the first time > 0 and count >= 0 too.
    is_first = np.ones(times.size, dtype=bool)
    is_first[1:] = subj[1:] != subj[:-1]
    prev_times = np.where(is_first, 0.0, np.roll(times, 1))
    prev_counts = np.where(is_first, 0.0, np.roll(counts, 1))
    bad = ~(np.isfinite(times) & np.isfinite(counts))
    bad |= (times <= prev_times) | (counts < prev_counts) | (counts != np.round(counts))
    suspect[subj[bad]] = True
    return np.flatnonzero(suspect)


def validate_dataset(d: PanelDataset) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised.

    One vectorized pass over all rows finds the paths that may break an
    invariant; ``_path_errors`` then words the errors of those paths alone,
    in path order, so each message and its place in ``errors`` are those of
    checking every path in turn.
    """
    errors: list[str] = []
    warnings: list[str] = []
    if d.n == 0:
        errors.append("dataset has no paths")
    if d.k < 1:
        errors.append("dataset must have k >= 1 groups")
    for i in _suspect_paths(d):
        errors.extend(_path_errors(d.paths[i], d.k))
    if not errors:
        for l, n_l in enumerate(d.group_sizes, start=1):
            if n_l == 0:
                errors.append(f"group {l} has no paths")
    if not errors:
        # Flat spots in the pooled increments undermine the bounded-below
        # increment assumption behind the variance estimates; flag them.
        grid = build_time_grid(d)
        flat = flatten_observations(d)
        pooled_events = np.bincount(flat.rank, weights=flat.dN, minlength=grid.m)
        for t in grid.points[pooled_events == 0].tolist():
            warnings.append(
                f"no pooled events on the inter-observation gap ending at t={t:g}"
            )
    return ValidationReport(errors=tuple(errors), warnings=tuple(warnings))


def build_time_grid(d: PanelDataset) -> TimeGrid:
    """Pool all observation times into the sorted distinct grid t_1 < ... < t_m.

    Computed once per dataset; later calls return the same grid."""
    if d.n == 0:
        raise ValueError("cannot build a time grid from an empty dataset")
    return d._grid


def restrict_to_group(d: PanelDataset, l: int) -> PanelDataset:
    """Single-group dataset holding the paths of group ``l`` (relabeled to 1)."""
    if not (1 <= l <= d.k):
        raise ValueError(f"group {l} outside 1..{d.k}")
    keep = d.groups == l
    rows = np.repeat(keep, d.sizes)
    return PanelDataset.from_columns(
        times=d.times[rows],
        counts=d.counts[rows],
        sizes=d.sizes[keep],
        groups=np.ones(np.count_nonzero(keep), dtype=int),
        subject_ids=compress(d.subject_ids, keep),
        k=1,
    )


@dataclass(frozen=True)
class FlatObservations:
    """All (subject, visit) rows of a dataset in subject-major order.

    Solver and test-statistic plumbing: ``rank``/``prev_rank`` are 0-based
    grid indices (-1 marks the implicit origin time 0), ``dN`` the
    within-subject count increments, and ``is_last`` each subject's final
    visit.
    """

    times: np.ndarray
    prev_times: np.ndarray
    counts: np.ndarray
    dN: np.ndarray
    is_first: np.ndarray
    is_last: np.ndarray
    rank: np.ndarray
    prev_rank: np.ndarray
    n_subjects: int
    m: int


def flatten_observations(d: PanelDataset) -> FlatObservations:
    """The rows of ``d`` on its own grid, computed once per dataset."""
    return d._flat


def _flatten(d: PanelDataset, grid: TimeGrid) -> FlatObservations:
    times, counts, sizes = d.times, d.counts, d.sizes
    ends = np.cumsum(sizes)
    is_first = np.zeros(times.size, dtype=bool)
    is_first[ends - sizes] = True
    is_last = np.zeros(times.size, dtype=bool)
    is_last[ends - 1] = True
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
    arrays = dict(
        times=times,
        prev_times=prev_times,
        counts=counts,
        dN=dN,
        is_first=is_first,
        is_last=is_last,
        rank=rank,
        prev_rank=prev_rank,
    )
    return FlatObservations(
        **{name: _readonly(a) for name, a in arrays.items()}, n_subjects=d.n, m=grid.m
    )
