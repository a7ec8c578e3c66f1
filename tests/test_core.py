from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelcount import (
    PanelDataset,
    StepEstimate,
    WeightKind,
    WeightSpec,
    build_time_grid,
    eval_step,
    make_weight,
    restrict_to_group,
    validate_dataset,
)
from panelcount.core import FlatObservations, _path_errors, flatten_observations
from panelcount.weights import _GROUPED_KINDS
from conftest import path, random_dataset


def validate_path_by_path(d):
    """``validate_dataset`` defined path by path: ``_path_errors`` over every
    path in order, then the empty-group checks, then the pooled-gap warnings."""
    errors = []
    warnings = []
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
        grid = build_time_grid(d)
        flat = flatten_observations(d)
        pooled_events = np.bincount(flat.rank, weights=flat.dN, minlength=grid.m)
        for ell in np.flatnonzero(pooled_events == 0):
            warnings.append(
                f"no pooled events on the inter-observation gap ending at t={grid.points[ell]:g}"
            )
    return tuple(errors), tuple(warnings)


_BAD_TIMES = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0, 0.5, 1.0, 1.5, 1.25])
_BAD_COUNTS = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.5, 0.0, 1.0, 3.0])


def _rarely(draw, one_in=8):
    return draw(st.integers(0, one_in - 1)) == 0


@st.composite
def malformed_datasets(draw):
    """Datasets of well-formed paths with a few entries replaced: non-finite,
    non-positive, tied or decreasing times; negative, decreasing, fractional
    or non-finite counts; groups outside 1..k; empty paths; and k or n of 0.
    About a fifth of the datasets are valid."""
    k = 0 if _rarely(draw, 16) else draw(st.integers(1, 3))
    paths = []
    for i in range(draw(st.integers(0, 6))):
        size = 0 if _rarely(draw, 16) else draw(st.integers(1, 4))
        times = np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=size, max_size=size)))
        counts = np.cumsum(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))).astype(float)
        while size and _rarely(draw, 6):
            j = draw(st.integers(0, size - 1))
            if draw(st.booleans()):
                times[j] = draw(_BAD_TIMES)
            else:
                counts[j] = draw(_BAD_COUNTS)
        group = 1 + i % max(k, 1)
        if _rarely(draw, 24):
            group = draw(st.sampled_from([-1, 0, k + 1, 10**30]))
        paths.append(path(f"s{i}", group, times, counts))
    return PanelDataset.from_paths(paths, k=k)


class TestValidateDataset:
    def test_times_not_increasing(self):
        d = PanelDataset.from_paths([path("a", 1, [2.0, 1.0], [1, 2])])
        report = validate_dataset(d)
        assert any("times not strictly increasing" in e for e in report.errors)

    def test_counts_decreasing(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [3, 2])])
        report = validate_dataset(d)
        assert any("counts decreasing" in e for e in report.errors)

    def test_accepts_two_well_formed_groups(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [0, 1]), path("b", 2, [1.5], [2])]
        )
        report = validate_dataset(d)
        assert report.errors == ()
        assert report.ok

    def test_empty_dataset(self):
        report = validate_dataset(PanelDataset.from_paths([]))
        assert not report.ok

    def test_length_mismatch(self):
        # Such a path never reaches validate_dataset: building the dataset fails.
        with pytest.raises(ValueError, match="^subject a: times and counts have different lengths$"):
            PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [1])])

    def test_missing_group_label(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [1])], k=2)
        assert any("group 2 has no paths" in e for e in validate_dataset(d).errors)

    def test_nonpositive_time(self):
        d = PanelDataset.from_paths([path("a", 1, [0.0, 1.0], [0, 1])])
        assert any("must be positive" in e for e in validate_dataset(d).errors)

    @pytest.mark.parametrize(
        "times, counts, message",
        [
            ([1.0, np.nan], [0, 1], "non-finite observation time"),
            ([1.0, np.inf], [0, 1], "non-finite observation time"),
            ([1.0, 2.0], [0, np.nan], "non-finite count"),
            ([1.0, 2.0], [0, np.inf], "non-finite count"),
        ],
    )
    def test_non_finite_rejected(self, times, counts, message):
        d = PanelDataset.from_paths([path("a", 1, times, counts)])
        report = validate_dataset(d)
        assert not report.ok
        assert any(message in e for e in report.errors)

    def test_non_integer_counts(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [0.5])])
        assert any("not integer-valued" in e for e in validate_dataset(d).errors)

    def test_zero_event_gap_warned(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [1, 1]), path("b", 1, [2.0], [0])]
        )
        report = validate_dataset(d)
        assert report.ok
        assert any("t=2" in w for w in report.warnings)

    @settings(max_examples=300, deadline=None)
    @given(d=malformed_datasets())
    def test_same_report_as_path_by_path(self, d):
        report = validate_dataset(d)
        assert (report.errors, report.warnings) == validate_path_by_path(d)


class TestBuildTimeGrid:
    def test_union_and_rank(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 3.0], [0, 1]), path("b", 1, [3.0, 4.0], [1, 1])]
        )
        grid = build_time_grid(d)
        assert grid.points.tolist() == [1.0, 3.0, 4.0]
        assert grid.rank[3.0] == 2

    def test_single_observation(self):
        grid = build_time_grid(PanelDataset.from_paths([path("a", 1, [2.0], [1])]))
        assert grid.points.tolist() == [2.0]
        assert grid.m == 1

    def test_duplicates_collapse(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0, 2.0], [0, 1]), path("b", 1, [1.0, 2.0], [1, 1])]
        )
        assert build_time_grid(d).points.tolist() == [1.0, 2.0]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            build_time_grid(PanelDataset.from_paths([]))

    def test_size_bound_and_sorted(self, rng):
        d = random_dataset(rng, 30)
        grid = build_time_grid(d)
        assert np.all(np.diff(grid.points) > 0)
        assert grid.m <= sum(p.n_visits for p in d.paths)


class TestEvalStep:
    def test_plateau_lookup(self):
        e = StepEstimate(support=[1.0, 3.0], values=[2.0, 5.0])
        assert eval_step(e, 2.0) == 2.0

    def test_before_first_jump(self):
        e = StepEstimate(support=[1.0, 3.0], values=[2.0, 5.0])
        assert eval_step(e, 0.5) == 0.0

    def test_right_extension(self):
        e = StepEstimate(support=[1.0, 3.0], values=[2.0, 5.0])
        assert eval_step(e, 10.0) == 5.0

    def test_vectorized(self):
        e = StepEstimate(support=[1.0, 3.0], values=[2.0, 5.0])
        np.testing.assert_allclose(eval_step(e, [0.0, 1.0, 2.9, 3.0]), [0.0, 2.0, 2.0, 5.0])

    @given(
        data=st.lists(
            st.tuples(st.floats(0.1, 50), st.floats(0, 20)), min_size=1, max_size=8
        ),
        t_pair=st.tuples(st.floats(0, 60), st.floats(0, 60)),
    )
    def test_monotone_in_t(self, data, t_pair):
        support = np.unique([round(s, 3) for s, _ in data])
        values = np.sort(np.array([v for _, v in data])[: support.size])
        e = StepEstimate(support=support, values=values)
        lo, hi = sorted(t_pair)
        assert eval_step(e, lo) <= eval_step(e, hi)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0, 1.0], values=[0.0, 1.0])
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0, 2.0], values=[1.0, 0.5])
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0], values=[-0.1])
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0, np.nan], values=[0.0, 1.0])
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0, 2.0], values=[0.0, np.nan])
        with pytest.raises(ValueError):
            StepEstimate(support=[1.0, 2.0], values=[0.0, np.inf])


class TestRestrictToGroup:
    def test_keeps_group_paths(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [1]), path("b", 2, [2.0], [2]), path("c", 1, [3.0], [0])]
        )
        r = restrict_to_group(d, 1)
        assert r.k == 1
        assert r.n == 2
        assert [p.subject_id for p in r.paths] == ["a", "c"]

    def test_out_of_range(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [1]), path("b", 2, [2.0], [2])])
        with pytest.raises(ValueError):
            restrict_to_group(d, 3)

    def test_idempotent(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [1]), path("b", 2, [2.0], [2])])
        once = restrict_to_group(d, 1)
        twice = restrict_to_group(once, 1)
        assert once == twice

    def test_paths_preserved_bit_for_bit(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [1.0], [1]), path("b", 2, [2.25, 3.5], [2, 4])]
        )
        r = restrict_to_group(d, 2)
        (kept,) = r.paths
        assert kept.subject_id == "b"
        assert kept.times.tolist() == [2.25, 3.5]
        assert kept.counts.tolist() == [2.0, 4.0]

    def test_validates_after_restriction(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0], [1]), path("b", 2, [2.0], [2])])
        assert validate_dataset(restrict_to_group(d, 2)).ok


@st.composite
def well_formed_paths(draw):
    """k and the paths of a valid dataset: 1-6 visits per subject on a
    coarse time lattice (so subjects share times), every group nonempty."""
    k = draw(st.integers(1, 3))
    paths = []
    for i in range(draw(st.integers(k, 8))):
        times = np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5]), min_size=1, max_size=6)))
        steps = draw(st.lists(st.integers(0, 3), min_size=times.size, max_size=times.size))
        group = 1 + i % k if i < k else draw(st.integers(1, k))
        paths.append(path(f"s{i}", group, times, np.cumsum(steps)))
    return k, paths


def column_built(paths, k):
    return PanelDataset.from_columns(
        times=np.concatenate([p.times for p in paths]),
        counts=np.concatenate([p.counts for p in paths]),
        sizes=[p.n_visits for p in paths],
        groups=[p.group for p in paths],
        subject_ids=[p.subject_id for p in paths],
        k=k,
    )


def assert_same_flat(a: FlatObservations, b: FlatObservations):
    for f in fields(FlatObservations):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y, f.name


class TestColumnStorage:
    @settings(max_examples=150, deadline=None)
    @given(drawn=well_formed_paths())
    def test_column_built_matches_path_built(self, drawn):
        k, paths = drawn
        by_paths = PanelDataset.from_paths(paths, k=k)
        by_columns = column_built(paths, k)
        assert by_columns.paths == by_paths.paths
        assert by_columns == by_paths and by_paths == by_columns
        assert (by_columns.n, by_columns.k) == (by_paths.n, by_paths.k)
        assert by_columns.group_sizes == by_paths.group_sizes
        assert validate_dataset(by_columns) == validate_dataset(by_paths)
        grid = build_time_grid(by_columns)
        np.testing.assert_array_equal(grid.points, build_time_grid(by_paths).points)
        assert_same_flat(flatten_observations(by_columns), flatten_observations(by_paths))
        for l in range(1, k + 1):
            expected = PanelDataset.from_paths(
                [replace(p, group=1) for p in paths if p.group == l], k=1
            )
            assert restrict_to_group(by_columns, l) == expected
            assert restrict_to_group(by_paths, l) == expected
        t = np.concatenate([grid.points, grid.points - 0.25, [0.0, 100.0]])
        for kind in WeightKind:
            for group in range(1, k + 1) if kind in _GROUPED_KINDS else [None]:
                spec = WeightSpec(kind, group)
                np.testing.assert_array_equal(
                    make_weight(by_columns, spec)(t), make_weight(by_paths, spec)(t)
                )

    def test_grid_and_flat_computed_once(self, rng):
        d = random_dataset(rng, 12, k=2)
        grid = build_time_grid(d)
        assert build_time_grid(d) is grid
        assert flatten_observations(d) is flatten_observations(d)

    def test_immutable(self, rng):
        d = column_built(random_dataset(rng, 5).paths, k=1)
        with pytest.raises(FrozenInstanceError):
            d.k = 2
        with pytest.raises(ValueError):
            d.times[0] = 1.0
        with pytest.raises(ValueError):
            d.paths[0].counts[0] = 1.0
        with pytest.raises(ValueError):
            flatten_observations(d).dN[0] = 1.0

    def test_paths_view_built_once_from_columns(self):
        d = column_built([path("a", 2, [1.0, 2.0], [0, 3]), path("b", 1, [0.5], [1])], k=2)
        assert d.paths is d.paths
        assert [(p.subject_id, p.group, p.times.tolist(), p.counts.tolist()) for p in d.paths] == [
            ("a", 2, [1.0, 2.0], [0.0, 3.0]),
            ("b", 1, [0.5], [1.0]),
        ]

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(ValueError):
            PanelDataset.from_columns([1.0, 2.0], [0.0], [2], [1], ["a"])
        with pytest.raises(ValueError):
            PanelDataset.from_columns([1.0, 2.0], [0.0, 1.0], [1], [1], ["a"])
        with pytest.raises(ValueError):
            PanelDataset.from_columns([1.0], [0.0], [1], [1, 2], ["a"])
        with pytest.raises(ValueError):
            PanelDataset.from_columns([1.0, 2.0], [0.0, 1.0], [3, -1], [1, 1], ["a", "b"])

    def test_paths_of_unequal_lengths_have_no_columns(self):
        paths = [
            path("a", 1, [1.0], [1]),
            path("b", 1, [1.0, 2.0], [1]),
            path("c", 2, [1.0], [1, 2]),
        ]
        with pytest.raises(ValueError, match="^subject b: times and counts have different lengths$"):
            PanelDataset.from_paths(paths)

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6).filter(
            lambda sizes: any(nt != nc for nt, nc in sizes)
        )
    )
    def test_from_paths_rejects_any_unequal_lengths(self, sizes):
        paths = [
            path(f"s{i}", 1, np.arange(1.0, nt + 1), np.zeros(nc)) for i, (nt, nc) in enumerate(sizes)
        ]
        first = next(i for i, (nt, nc) in enumerate(sizes) if nt != nc)
        with pytest.raises(ValueError, match=f"^subject s{first}: times and counts have different lengths$"):
            PanelDataset.from_paths(paths, k=1)
