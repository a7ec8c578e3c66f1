"""Weight processes for the test statistics.

All weights are built from at-risk fractions Y(t): the proportion of
subjects whose last observation time is >= t, pooled or within one group.
Every weight is a bounded piecewise-constant function of time with
breakpoints at last-observation times; ratio kinds use the convention
0/0 = 0 (no subjects at risk contributes zero weight).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PanelDataset, _is_integer

__all__ = ["WeightKind", "WeightSpec", "WeightFn", "risk_fraction", "make_weight"]


class WeightKind(str, enum.Enum):
    CONST = "const"
    POOLED_RISK = "pooled-risk"
    GROUP_RISK = "group-risk"
    RISK_RATIO = "risk-ratio"
    RISK_PRODUCT = "risk-product"
    COMPLEMENT = "complement"
    COMPLEMENT_RATIO = "complement-ratio"
    COMPLEMENT_PRODUCT = "complement-product"


_GROUPED_KINDS = {
    WeightKind.GROUP_RISK,
    WeightKind.RISK_RATIO,
    WeightKind.RISK_PRODUCT,
    WeightKind.COMPLEMENT_RATIO,
    WeightKind.COMPLEMENT_PRODUCT,
}


@dataclass(frozen=True)
class WeightSpec:
    """Declarative choice of weight process: a ``WeightKind`` or its value,
    and an integer ``group`` for the grouped kinds and for no other kind."""

    kind: WeightKind
    group: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", WeightKind(self.kind))
        if self.group is not None and not _is_integer(self.group):
            raise ValueError(f"weight group must be an integer, got {self.group!r}")
        if self.kind in _GROUPED_KINDS and self.group is None:
            raise ValueError(f"weight kind {self.kind.value} requires a group index")
        if self.kind not in _GROUPED_KINDS and self.group is not None:
            raise ValueError(f"weight kind {self.kind.value} takes no group index")

    @property
    def name(self) -> str:
        if self.group is None:
            return self.kind.value
        return f"{self.kind.value}:{self.group}"


@dataclass(frozen=True)
class WeightFn:
    """An evaluable weight process t -> W(t), vectorized over arrays."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = self.fn(t_arr)
        if np.ndim(t) == 0:
            return float(out)
        return out


def _last_times(d: PanelDataset, group: int | None) -> np.ndarray:
    # a subject without visits is at risk at no t > 0
    visited = d.sizes > 0
    lasts = np.zeros(d.n)
    lasts[visited] = d.times[np.cumsum(d.sizes)[visited] - 1]
    if group is not None:
        if not (1 <= group <= d.k):
            raise ValueError(f"group {group} outside 1..{d.k}")
        lasts = lasts[d.groups == group]
    return np.sort(lasts)


def _risk_curve(d: PanelDataset, group: int | None) -> Callable[[np.ndarray], np.ndarray]:
    lasts = _last_times(d, group)
    n = lasts.size

    def y(t: np.ndarray) -> np.ndarray:
        # I(t <= T_last): ties count as at-risk.
        return (n - np.searchsorted(lasts, t, side="left")) / n

    return y


def risk_fraction(d: PanelDataset, group: int | None, t) -> float:
    """Fraction of (group or pooled) subjects with last observation time >= t."""
    out = _risk_curve(d, group)(np.asarray(t, dtype=float))
    if np.ndim(t) == 0:
        return float(out)
    return out


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    return out


def make_weight(d: PanelDataset, spec: WeightSpec) -> WeightFn:
    """Build the evaluable weight process for ``spec`` from the dataset."""
    kind = spec.kind
    if kind is WeightKind.CONST:
        return WeightFn(spec.name, lambda t: np.ones_like(t))
    pooled = _risk_curve(d, None)
    if kind is WeightKind.POOLED_RISK:
        return WeightFn(spec.name, pooled)
    if kind is WeightKind.COMPLEMENT:
        return WeightFn(spec.name, lambda t: 1.0 - pooled(t))
    y_l = _risk_curve(d, spec.group)
    if kind is WeightKind.GROUP_RISK:
        return WeightFn(spec.name, y_l)
    if kind is WeightKind.RISK_RATIO:
        return WeightFn(spec.name, lambda t: _safe_ratio(y_l(t), pooled(t)))
    if kind is WeightKind.COMPLEMENT_RATIO:
        return WeightFn(spec.name, lambda t: _safe_ratio(1.0 - y_l(t), 1.0 - pooled(t)))
    y_1 = _risk_curve(d, 1)
    if kind is WeightKind.RISK_PRODUCT:
        return WeightFn(spec.name, lambda t: _safe_ratio(y_1(t) * y_l(t), pooled(t)))
    # the last kind, COMPLEMENT_PRODUCT
    return WeightFn(
        spec.name,
        lambda t: _safe_ratio((1.0 - y_1(t)) * (1.0 - y_l(t)), 1.0 - pooled(t)),
    )
