import math
import re

import numpy as np
import pytest

from panelcount import (
    PanelDataset,
    WeightKind,
    WeightSpec,
    build_time_grid,
    make_weight,
    risk_fraction,
)
from conftest import path, random_dataset


@pytest.fixture
def two_group_dataset():
    # group-wise last observation times: group 1 {3, 5}, group 2 {3, 5}
    return PanelDataset.from_paths(
        [
            path("a", 1, [1.0, 3.0], [0, 1]),
            path("b", 1, [5.0], [2]),
            path("c", 2, [3.0], [1]),
            path("d", 2, [2.0, 5.0], [1, 3]),
        ]
    )


class TestRiskFraction:
    def test_between_last_times(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [3.0], [1]), path("b", 1, [5.0], [0])]
        )
        assert risk_fraction(d, None, 4.0) == 0.5

    def test_everyone_at_time_zero(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [3.0], [1]), path("b", 1, [5.0], [0])]
        )
        assert risk_fraction(d, None, 0.0) == 1.0

    def test_nobody_after_last(self):
        d = PanelDataset.from_paths(
            [path("a", 1, [3.0], [1]), path("b", 1, [5.0], [0])]
        )
        assert risk_fraction(d, None, 6.0) == 0.0

    def test_tie_counts_as_at_risk(self):
        d = PanelDataset.from_paths([path("a", 1, [3.0], [1])])
        assert risk_fraction(d, None, 3.0) == 1.0

    @pytest.mark.parametrize("group", [None, 1, 2])
    def test_array_is_the_scalar_calls(self, two_group_dataset, group):
        t = np.array([0.0, 1.0, 3.0, 4.0, 5.0, 6.0])
        out = risk_fraction(two_group_dataset, group, t)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [risk_fraction(two_group_dataset, group, x) for x in t.tolist()]

    def test_bad_group(self, two_group_dataset):
        with pytest.raises(ValueError):
            risk_fraction(two_group_dataset, 5, 1.0)

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_subject_without_visits_is_never_at_risk(self, at):
        # subjects with last visits at 2 and 3, and one without visits at
        # position ``at``; it stays in n
        times = [[1.0, 2.0], [1.0, 3.0]]
        times.insert(at, [])
        d = PanelDataset.from_columns(
            np.concatenate(times),
            np.zeros(4),
            [len(t) for t in times],
            [1, 1, 1],
            ["x", "y", "z"],
        )
        assert risk_fraction(d, None, 2.5) == 1 / 3
        assert risk_fraction(d, 1, 1.0) == 2 / 3
        assert risk_fraction(d, None, 0.0) == 1.0


class TestMakeWeight:
    def test_const_is_one(self, two_group_dataset):
        w = make_weight(two_group_dataset, WeightSpec(WeightKind.CONST))
        assert w(0.3) == 1.0
        assert w(17.0) == 1.0

    def test_pooled_risk_equals_risk_fraction(self, two_group_dataset):
        w = make_weight(two_group_dataset, WeightSpec(WeightKind.POOLED_RISK))
        assert w(4.0) == risk_fraction(two_group_dataset, None, 4.0) == 0.5

    def test_risk_product_arithmetic(self, two_group_dataset):
        w = make_weight(two_group_dataset, WeightSpec(WeightKind.RISK_PRODUCT, group=2))
        # Y1(4) = 0.5, Y2(4) = 0.5, Yn(4) = 0.5 -> 0.5*0.5/0.5
        assert math.isclose(w(4.0), 0.5, rel_tol=1e-12)

    def test_complement(self, two_group_dataset):
        w = make_weight(two_group_dataset, WeightSpec(WeightKind.COMPLEMENT))
        assert w(4.0) == 0.5
        assert w(0.0) == 0.0

    def test_ratio_zero_over_zero_is_zero(self, two_group_dataset):
        w = make_weight(two_group_dataset, WeightSpec(WeightKind.RISK_RATIO, group=1))
        assert w(99.0) == 0.0

    def test_group_required(self):
        with pytest.raises(ValueError):
            WeightSpec(WeightKind.GROUP_RISK)

    @pytest.mark.parametrize(
        "kind", [WeightKind.CONST, WeightKind.POOLED_RISK, WeightKind.COMPLEMENT]
    )
    def test_group_rejected_on_ungrouped_kind(self, kind):
        with pytest.raises(ValueError, match=f"weight kind {kind.value} takes no group index"):
            WeightSpec(kind, group=2)

    def test_names(self):
        assert WeightSpec(WeightKind.CONST).name == "const"
        assert WeightSpec(WeightKind.RISK_PRODUCT, 2).name == "risk-product:2"

    def test_kind_given_by_its_value(self, two_group_dataset):
        spec = WeightSpec("complement")
        assert spec.kind is WeightKind.COMPLEMENT
        assert spec == WeightSpec(WeightKind.COMPLEMENT)
        assert spec.name == "complement"
        assert make_weight(two_group_dataset, spec)(4.0) == 0.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid WeightKind"):
            WeightSpec("bogus")

    @pytest.mark.parametrize("group", [1.5, True, "1"])
    def test_group_not_an_integer_rejected(self, group):
        with pytest.raises(ValueError, match=re.escape(f"weight group must be an integer, got {group!r}")):
            WeightSpec(WeightKind.GROUP_RISK, group=group)

    def test_numpy_integer_group(self):
        assert WeightSpec(WeightKind.GROUP_RISK, group=np.int64(2)).name == "group-risk:2"


class TestWeightInvariants:
    def test_monotonicity_over_grid(self, rng):
        d = random_dataset(rng, 30, k=2)
        ts = np.concatenate([[0.0], build_time_grid(d).points, [99.0]])
        pooled = make_weight(d, WeightSpec(WeightKind.POOLED_RISK))(ts)
        group = make_weight(d, WeightSpec(WeightKind.GROUP_RISK, 1))(ts)
        comp = make_weight(d, WeightSpec(WeightKind.COMPLEMENT))(ts)
        const = make_weight(d, WeightSpec(WeightKind.CONST))(ts)
        assert np.all(np.diff(pooled) <= 0)
        assert np.all(np.diff(group) <= 0)
        assert np.all(np.diff(comp) >= 0)
        assert np.all(const == 1.0)

    def test_unit_interval_for_bounded_kinds(self, rng):
        d = random_dataset(rng, 41, k=2)
        ts = np.linspace(0.0, 12.0, 200)
        for spec in (
            WeightSpec(WeightKind.CONST),
            WeightSpec(WeightKind.POOLED_RISK),
            WeightSpec(WeightKind.GROUP_RISK, 1),
            WeightSpec(WeightKind.GROUP_RISK, 2),
            WeightSpec(WeightKind.COMPLEMENT),
            WeightSpec(WeightKind.RISK_PRODUCT, 2),
            WeightSpec(WeightKind.COMPLEMENT_PRODUCT, 2),
        ):
            vals = make_weight(d, spec)(ts)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0), spec.name

    def test_pooled_is_group_mixture(self, rng):
        d = random_dataset(rng, 33, k=3)
        ts = build_time_grid(d).points
        pooled = make_weight(d, WeightSpec(WeightKind.POOLED_RISK))(ts)
        mix = np.zeros_like(pooled)
        for l, n_l in enumerate(d.group_sizes, start=1):
            mix += (n_l / d.n) * make_weight(d, WeightSpec(WeightKind.GROUP_RISK, l))(ts)
        np.testing.assert_allclose(pooled, mix, atol=1e-12)

    def test_ratio_kinds_bounded_by_group_size_ratio(self, rng):
        d = random_dataset(rng, 24, k=2)
        ts = np.linspace(0.0, 12.0, 100)
        for l in (1, 2):
            vals = make_weight(d, WeightSpec(WeightKind.RISK_RATIO, l))(ts)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= d.n / d.group_sizes[l - 1] + 1e-12)
