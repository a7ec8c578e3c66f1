"""Multi-sample tests for equality of counting-process mean functions.

The test statistics accumulate, over every subject's observation times, the
weighted differences between the rates of increase of the pooled estimated
mean function and the per-group ones.  ``u_statistics`` compares each group
against the pooled estimate, ``v_statistics`` contrasts group 1 with each
other group.  Their limiting covariances depend only on the group sizes and
a common per-subject variance that ``sigma_hat_sq`` estimates, giving
chi-square tests for k groups and standard-normal tests for k = 2.

U, V and the variance are all sums over subjects of one bracket,
sum_j W(t_j) Lambda(t_j) (q_{j+1} - q_j), closed by a terminal constant,
where q is the ratio of a group (or observed) increment to the pooled one.
One kernel takes any number W of weight sets, evaluates the pooled and
per-group increments once and each distinct weight once, and returns U, V
and sigma^2 for all W sets through that single bracket.  The public tests
call it with one weight set and format its rows with small helpers
(``_two_sample``, ``_chi2``); a Monte Carlo replication calls it once for
all of its weights and reads p-values through the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np
from scipy.special import gammaincc

from .core import (
    FlatObservations,
    PanelDataset,
    StepEstimate,
    eval_step,
    flatten_observations,
    restrict_to_group,
)
from .estimators import IcmConfig, SolveDiagnostics, npmle
from .weights import WeightFn, WeightSpec, make_weight

__all__ = [
    "TestReport",
    "FitBundle",
    "SolverConvergenceError",
    "DegenerateCovarianceError",
    "DegenerateVarianceError",
    "IncrementMismatchError",
    "fit_all",
    "sigma_hat_sq",
    "u_statistics",
    "v_statistics",
    "covariance_u",
    "covariance_v",
    "chi2_u_test",
    "chi2_v_test",
    "two_sample_tests",
    "normal_sf",
    "chisq_sf",
]


class SolverConvergenceError(RuntimeError):
    """An NPMLE solve required by a test did not converge."""

    def __init__(self, message: str, diagnostics: SolveDiagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics

    def __reduce__(self):
        # pickled with its diagnostics, as a worker process sends it back
        return type(self), (str(self), self.diagnostics)


class DegenerateCovarianceError(RuntimeError):
    """The estimated covariance is singular (e.g. zero weight or perfect fit)."""


class DegenerateVarianceError(RuntimeError):
    """A two-sample variance estimate is zero."""


class IncrementMismatchError(RuntimeError):
    """A floored pooled increment is paired with events or a growing numerator,
    signaling a non-converged or mismatched estimate."""


@dataclass(frozen=True)
class TestReport:
    """Statistics, variance estimates, p-values and provenance for one test."""

    method: str
    weights: tuple[str, ...]
    statistics: dict[str, float]
    p_values: dict[str, float]
    variance: dict[str, float]
    covariance: tuple[tuple[float, ...], ...] | None
    df: int | None
    n: int
    group_sizes: tuple[int, ...]
    diagnostics: dict[str, Any]


@dataclass(frozen=True)
class FitBundle:
    """Pooled and per-group NPMLEs of one dataset, reused across statistics."""

    pooled: StepEstimate
    pooled_diag: SolveDiagnostics
    groups: tuple[StepEstimate, ...]
    group_diags: tuple[SolveDiagnostics, ...]


def _diag_summary(diag: SolveDiagnostics) -> dict[str, Any]:
    return {
        "iterations": diag.iterations,
        "loglik": diag.loglik,
        "fenchel_residual": diag.fenchel_residual,
        "converged": diag.converged,
        "status": diag.status,
        "seconds": diag.seconds,
    }


def fit_all(d: PanelDataset, cfg: IcmConfig = IcmConfig()) -> FitBundle:
    """Solve the pooled NPMLE and one NPMLE per group; error on non-convergence.

    Each group is solved on its rows, taken from the dataset's columns by
    ``restrict_to_group``."""
    pooled, pooled_diag = npmle(d, cfg)
    if not pooled_diag.converged:
        raise SolverConvergenceError(
            f"pooled NPMLE did not converge ({pooled_diag.status})", pooled_diag
        )
    groups = []
    group_diags = []
    for l in range(1, d.k + 1):
        est, diag = npmle(restrict_to_group(d, l), cfg)
        if not diag.converged:
            raise SolverConvergenceError(f"group {l} NPMLE did not converge ({diag.status})", diag)
        groups.append(est)
        group_diags.append(diag)
    return FitBundle(
        pooled=pooled,
        pooled_diag=pooled_diag,
        groups=tuple(groups),
        group_diags=tuple(group_diags),
    )


def _eps_den(pooled: StepEstimate) -> float:
    last = float(pooled.values[-1])
    return 1e-8 * last if last > 0 else 1.0


def _increment_ratios(num, den, eps_den, counts=None):
    """Ratios num/den over subject intervals with the denominator floor.

    ``num`` is one row of increments or a stack of them, one per group.
    Denominators beneath ``eps_den`` paired with events (``counts`` > 0) or a
    numerator above ``eps_den`` are an error; when both sides are beneath the
    floor the increments agree at zero and the ratio is taken as 1.
    """
    floored = den < eps_den
    if np.any(floored):
        bad = floored & (num > eps_den)
        if counts is not None:
            bad |= floored & (counts > 0)
        if np.any(bad):
            raise IncrementMismatchError(
                "pooled increment beneath floor over an interval with events "
                "or a growing numerator"
            )
    ratio = np.ones_like(num, dtype=float)
    ok = ~floored
    ratio[..., ok] = num[..., ok] / den[ok]
    return ratio


def _brackets(flat: FlatObservations, a, q, terminal):
    """Per-subject sums  sum_{j<K} a_j (q_{j+1} - q_j) + a_K (terminal - q_K).

    ``a`` and ``q`` are (rows,) or stacked (statistics x rows) arrays over the
    subject-major rows of ``flat``; the result has one column per subject.
    """
    q_next = np.where(flat.is_last, terminal, np.roll(q, -1, axis=-1))
    return np.add.reduceat(a * (q_next - q), np.flatnonzero(flat.is_first), axis=-1)


def _step_increments(e: StepEstimate, flat: FlatObservations):
    right = eval_step(e, flat.times)
    return right, right - eval_step(e, flat.prev_times)


def sigma_hat_sq(d: PanelDataset, pooled: StepEstimate, w: WeightFn) -> float:
    """Consistent estimate of the common asymptotic variance of the statistics:
    the mean squared weighted rate-difference bracket across subjects."""
    flat = flatten_observations(d)
    pooled_at, den = _step_increments(pooled, flat)
    q = _increment_ratios(flat.dN, den, _eps_den(pooled), counts=flat.dN)
    brackets = _brackets(flat, w(flat.times) * pooled_at, q, 1.0)
    return float(np.mean(brackets**2))


def _weight_sets(d: PanelDataset, weight_sets) -> list[list[WeightFn]]:
    """Normalize W per-group weight arguments to W lists of k evaluable
    weights, building each distinct ``WeightSpec`` once."""
    built: dict[WeightSpec, WeightFn] = {}

    def evaluable(w):
        if isinstance(w, WeightFn):
            return w
        if w not in built:
            built[w] = make_weight(d, w)
        return built[w]

    out = []
    for weights in weight_sets:
        if isinstance(weights, (WeightSpec, WeightFn)):
            weights = [weights] * d.k
        weights = list(weights)
        if len(weights) != d.k:
            raise ValueError(f"expected one weight per group ({d.k}), got {len(weights)}")
        out.append([evaluable(w) for w in weights])
    return out


def _statistics(d: PanelDataset, weight_sets, cfg: IcmConfig, fits: FitBundle | None):
    """``(fns, fits, u, v, sigma2)`` for W weight sets: U (W x k), V (W x (k-1))
    and sigma^2 (W x k), entry (w, l) taken under set w's weight for group l,
    from one evaluation of the pooled and group increments.  Each distinct
    weight is evaluated once."""
    fns = _weight_sets(d, weight_sets)
    if fits is None:
        fits = fit_all(d, cfg)
    flat = flatten_observations(d)
    pooled_at, den = _step_increments(fits.pooled, flat)
    eps = _eps_den(fits.pooled)
    group_inc = np.stack([_step_increments(est, flat)[1] for est in fits.groups])
    q = _increment_ratios(group_inc, den, eps)
    q_obs = _increment_ratios(flat.dN, den, eps, counts=flat.dN)
    distinct = {id(fn): fn for row in fns for fn in row}
    at_times = {key: fn(flat.times) for key, fn in distinct.items()}
    a = np.array([[at_times[id(fn)] for fn in row] for row in fns]) * pooled_at
    scale = 1.0 / math.sqrt(flat.n_subjects)
    u = scale * _brackets(flat, a, q, 1.0).sum(axis=-1)
    v = scale * _brackets(flat, a[:, 1:], q[:1] - q[1:], 0.0).sum(axis=-1)
    sigma2 = np.mean(_brackets(flat, a, q_obs, 1.0) ** 2, axis=-1)
    return fns, fits, u, v, sigma2


def u_statistics(
    d: PanelDataset,
    weights,
    cfg: IcmConfig = IcmConfig(),
    fits: FitBundle | None = None,
) -> np.ndarray:
    """U_n^(l) for l = 1..k: each group's rate of increase against the pooled one."""
    return _statistics(d, [weights], cfg, fits)[2][0]


def v_statistics(
    d: PanelDataset,
    weights,
    cfg: IcmConfig = IcmConfig(),
    fits: FitBundle | None = None,
) -> np.ndarray:
    """V_n^(l) for l = 2..k: group 1 contrasted with group l."""
    if d.k < 2:
        raise ValueError("v_statistics requires k >= 2 groups")
    return _statistics(d, [weights], cfg, fits)[3][0]


def covariance_u(group_sizes: Sequence[int], sigma2: Sequence[float]) -> np.ndarray:
    """Estimated covariance of the U vector from group sizes and variances."""
    nl = np.asarray(group_sizes, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    n = nl.sum()
    gamma = np.tile(np.sqrt(nl / n), (nl.size, 1))
    gamma[np.diag_indices(nl.size)] -= np.sqrt(n / nl)
    return gamma @ np.diag(s2) @ gamma.T


def covariance_v(group_sizes: Sequence[int], sigma2: Sequence[float]) -> np.ndarray:
    """Estimated covariance of the V vector from group sizes and variances."""
    nl = np.asarray(group_sizes, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    k = nl.size
    n = nl.sum()
    h = np.zeros((k - 1, k))
    h[:, 0] = -np.sqrt(n / nl[0])
    for r in range(k - 1):
        h[r, r + 1] = np.sqrt(n / nl[r + 1])
    return h @ np.diag(s2) @ h.T


def _solve_pivot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting; pivots
    beneath 1e-12 * max|a| are treated as a degenerate covariance."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    threshold = 1e-12 * np.max(np.abs(a)) if a.size else 0.0
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) <= threshold:
            raise DegenerateCovarianceError("degenerate covariance")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def _bundle_diagnostics(fits: FitBundle) -> dict[str, Any]:
    return {
        "pooled": _diag_summary(fits.pooled_diag),
        "groups": [_diag_summary(dg) for dg in fits.group_diags],
    }


def _chi2(method: str, u, v, sigma2, group_sizes):
    """``(chi2, p_value, covariance)`` of the "U-test" (the first k-1
    components of U) or the "V-test" (the V vector) under one weight set."""
    if method == "U-test":
        cov = covariance_u(group_sizes, sigma2)
        vec, mat = u[:-1], cov[:-1, :-1]
    else:
        cov = covariance_v(group_sizes, sigma2)
        vec, mat = v, cov
    chi2 = max(float(vec @ _solve_pivot(mat, vec)), 0.0)
    return chi2, chisq_sf(chi2, len(group_sizes) - 1), cov


def _two_sample(u, v, sigma2, group_sizes, n: int):
    """``(statistics, p_values, variance)`` of T1 (U-based) and T2 (V-based)
    under one weight set, k = 2."""
    n1, n2 = group_sizes
    var_u = (math.sqrt(n1 / n) - math.sqrt(n / n1)) ** 2 * sigma2[0] + (n2 / n) * sigma2[1]
    var_v = (n / n1) * sigma2[0] + (n / n2) * sigma2[1]
    if var_u <= 0 or var_v <= 0:
        raise DegenerateVarianceError("degenerate variance")
    t1 = float(u[0]) / math.sqrt(var_u)
    t2 = float(v[0]) / math.sqrt(var_v)
    statistics = {"T1": t1, "T2": t2}
    p_values = {name: 2.0 * normal_sf(abs(t)) for name, t in statistics.items()}
    variance = {
        "sigma_U": math.sqrt(var_u),
        "sigma_V": math.sqrt(var_v),
        "sigma1_sq": float(sigma2[0]),
        "sigma2_sq": float(sigma2[1]),
    }
    return statistics, p_values, variance


def _chi2_test(d: PanelDataset, weights, cfg: IcmConfig, fits: FitBundle | None, method: str):
    if d.k < 2:
        raise ValueError("chi-square tests require k >= 2 groups")
    fns, fits, u, v, sigma2 = _statistics(d, [weights], cfg, fits)
    chi2, p_value, cov = _chi2(method, u[0], v[0], sigma2[0], d.group_sizes)
    return TestReport(
        method=method,
        weights=tuple(fn.name for fn in fns[0]),
        statistics={"chi2": chi2},
        p_values={"chi2": p_value},
        variance={f"sigma{l}_sq": float(s) for l, s in enumerate(sigma2[0], start=1)},
        covariance=tuple(tuple(float(x) for x in row) for row in cov),
        df=d.k - 1,
        n=d.n,
        group_sizes=d.group_sizes,
        diagnostics=_bundle_diagnostics(fits),
    )


def chi2_u_test(
    d: PanelDataset,
    weights,
    cfg: IcmConfig = IcmConfig(),
    fits: FitBundle | None = None,
) -> TestReport:
    """Chi-square test from the first k-1 components of the U vector."""
    return _chi2_test(d, weights, cfg, fits, "U-test")


def chi2_v_test(
    d: PanelDataset,
    weights,
    cfg: IcmConfig = IcmConfig(),
    fits: FitBundle | None = None,
) -> TestReport:
    """Chi-square test from the V vector of group-1 contrasts."""
    return _chi2_test(d, weights, cfg, fits, "V-test")


def two_sample_tests(
    d: PanelDataset,
    weight,
    cfg: IcmConfig = IcmConfig(),
    fits: FitBundle | None = None,
) -> TestReport:
    """Standard-normal two-sample tests T1 (U-based) and T2 (V-based)."""
    if d.k != 2:
        raise ValueError("two-sample tests require exactly k = 2 groups")
    fns, fits, u, v, sigma2 = _statistics(d, [weight], cfg, fits)
    statistics, p_values, variance = _two_sample(u[0], v[0], sigma2[0], d.group_sizes, d.n)
    return TestReport(
        method="two-sample-T12",
        weights=tuple(fn.name for fn in fns[0]),
        statistics=statistics,
        p_values=p_values,
        variance=variance,
        covariance=None,
        df=None,
        n=d.n,
        group_sizes=d.group_sizes,
        diagnostics=_bundle_diagnostics(fits),
    )


def normal_sf(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with ``df`` >= 1."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    return float(gammaincc(df / 2.0, x / 2.0))
