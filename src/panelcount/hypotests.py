"""Multi-sample tests for equality of counting-process mean functions.

The test statistics accumulate, over every subject's observation times, the
weighted differences between the rates of increase of the pooled estimated
mean function and the per-group ones.  ``u_statistics`` compares each group
against the pooled estimate, ``v_statistics`` contrasts group 1 with each
other group.  Their limiting covariances depend only on the group sizes and
a common per-subject variance that ``sigma_hat_sq`` estimates, giving
chi-square tests for k groups and standard-normal tests for k = 2.  T1 and
T2 divide U_1 and V_1 by the root of entry [0, 0] of ``covariance_u`` and
``covariance_v``, so T1^2 and T2^2 are the k = 2 U-test and V-test chi^2.

U, V and the variance are all sums over subjects of one bracket,
sum_j W(t_j) Lambda(t_j) (q_{j+1} - q_j), closed by a terminal constant,
where q is the ratio of a group (or observed) increment to the pooled one.
The variance's bracket is written once, for the tests and ``sigma_hat_sq``.
They depend on the data only through the pooled and per-group NPMLEs, so
the tests take those fits (``fits=``) and, given none, solve them with
``fit_all``, which alone takes solver settings.  ``fits=`` must be
``fit_all`` of the same dataset object: the bundle keeps that dataset's
``flatten_observations``, and fits of any other dataset raise
``ValueError``.

One kernel takes any number W of weight sets, reads each estimate once on
the grid and gathers it at every row by rank, builds and evaluates each
distinct weight once, and returns U, V and sigma^2 for all W sets.  One
reader (``_read``) turns that stack into a method's statistics, p-values,
variances and covariances for all W sets at once: the W covariances are
built as one stack, tested for degeneracy by one ``eigvalsh`` and solved by
one LAPACK ``solve``.  A public test reads a stack of one; a Monte Carlo
replication calls the kernel once for all of its weights and the reader
once per method.

A test fails in one of four named ways: an NPMLE that does not converge,
a floored pooled increment, a singular covariance or a two-sample variance
that is not positive.  ``FAILURE_CAUSES`` maps each error class to its
cause name; the Monte Carlo studies count failures by it and the command
line picks its exit status from it.

P-values come from the standard library: two-sample ones from
``math.erfc``, chi-square ones from the closed form in ``chisq_sf``.  The
runtime dependencies are numpy and click.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .core import (
    FlatObservations,
    PanelDataset,
    StepEstimate,
    _is_integer,
    build_time_grid,
    eval_step,
    flatten_observations,
)
from .estimators import IcmConfig, SolveDiagnostics, _group_npmles, npmle
from .weights import WeightFn, WeightSpec, make_weight

__all__ = [
    "TestReport",
    "FitBundle",
    "SolverConvergenceError",
    "DegenerateCovarianceError",
    "DegenerateVarianceError",
    "IncrementMismatchError",
    "FAILURE_CAUSES",
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
        # pickled with its diagnostics: the default reduction would rebuild it
        # from the message alone, which __init__ refuses
        return type(self), (str(self), self.diagnostics)


class DegenerateCovarianceError(RuntimeError):
    """The estimated covariance is singular (e.g. zero weight or perfect fit)."""


class DegenerateVarianceError(RuntimeError):
    """A two-sample variance estimate is not positive."""


class IncrementMismatchError(RuntimeError):
    """A floored pooled increment is paired with events or a growing numerator,
    signaling a non-converged or mismatched estimate."""


# Each named way a test fails, by the error its solves or statistics raise,
# and its cause name: a Monte Carlo cell counts its failures by these names.
FAILURE_CAUSES = {
    SolverConvergenceError: "solver_convergence",
    IncrementMismatchError: "increment_mismatch",
    DegenerateCovarianceError: "degenerate_covariance",
    DegenerateVarianceError: "degenerate_variance",
}


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
    """Pooled and per-group NPMLEs of one dataset, reused across statistics;
    ``flat`` is that dataset's ``flatten_observations``, by which the tests
    know it."""

    pooled: StepEstimate
    pooled_diag: SolveDiagnostics
    groups: tuple[StepEstimate, ...]
    group_diags: tuple[SolveDiagnostics, ...]
    flat: FlatObservations = field(compare=False, repr=False)


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

    The pooled NPMLE is ``npmle(d, cfg)``.  The groups are then solved
    together, as the segments of one batch of the solver's loop, each on
    its rows cut from the pooled rows and started from the pooled NPMLE
    scaled to the group's level (see ``estimators``).  Each group's estimate
    and diagnostics are, bit for bit, those of
    ``npmle(restrict_to_group(d, l), cfg, _start=pooled)``, except that its
    ``seconds`` is the wall time of the whole batch.  A group without
    observations raises a ValueError for the lowest label before any group
    is solved, and a failing group raises for the lowest label.  With one
    group its rows are the pooled rows, and the pooled fit is the group's."""
    pooled, pooled_diag = npmle(d, cfg)
    if not pooled_diag.converged:
        raise SolverConvergenceError(
            f"pooled NPMLE did not converge ({pooled_diag.status})", pooled_diag
        )
    if d.k == 1:
        fits = [(pooled, pooled_diag)]
    else:
        fits = _group_npmles(d, pooled, cfg)
    for l, fit in enumerate(fits, start=1):
        if not fit[1].converged:
            raise SolverConvergenceError(f"group {l} NPMLE did not converge ({fit[1].status})", fit[1])
    return FitBundle(
        pooled=pooled,
        pooled_diag=pooled_diag,
        groups=tuple(est for est, _ in fits),
        group_diags=tuple(diag for _, diag in fits),
        flat=flatten_observations(d),
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
    subject-major rows of ``flat``; the result has one column per subject
    with visits.
    """
    q_next = np.where(flat.is_last, terminal, np.roll(q, -1, axis=-1))
    return np.add.reduceat(a * (q_next - q), np.flatnonzero(flat.is_first), axis=-1)


def _increments(d: PanelDataset, flat: FlatObservations, estimates):
    """``(values, increments)`` of each estimate at every row of ``flat``,
    one row per estimate.  Each estimate is read once, at the origin and at
    every grid point, and its readings are gathered by the rows' grid ranks."""
    points = np.concatenate(([0.0], build_time_grid(d).points))
    at = np.stack([eval_step(e, points) for e in estimates])
    right = at[:, flat.rank + 1]
    return right, right - at[:, flat.prev_rank + 1]


def _sigma2(flat: FlatObservations, a, den, eps_den):
    """sigma^2 under each row of ``a`` (a weight times the pooled values at
    the rows): the mean squared bracket, across subjects, of the ratios of
    the observed increments to the pooled ones ``den``.  A subject without
    visits has a zero bracket."""
    q_obs = _increment_ratios(flat.dN, den, eps_den, counts=flat.dN)
    return (_brackets(flat, a, q_obs, 1.0) ** 2).sum(axis=-1) / flat.n_subjects


def sigma_hat_sq(d: PanelDataset, pooled: StepEstimate, w: WeightSpec | WeightFn) -> float:
    """Consistent estimate of the common asymptotic variance of the statistics:
    the mean squared weighted rate-difference bracket across subjects."""
    if isinstance(w, WeightSpec):
        w = make_weight(d, w)
    flat = flatten_observations(d)
    (pooled_at,), (den,) = _increments(d, flat, [pooled])
    return float(_sigma2(flat, w(flat.times) * pooled_at, den, _eps_den(pooled)))


def _statistics(d: PanelDataset, weight_sets, fits: FitBundle | None):
    """``(names, fits, u, v, sigma2)`` for W weight sets, each one weight or
    one per group: the weight names of each set, U (W x k), V (W x (k-1)) and
    sigma^2 (W x k), entry (w, l) taken under set w's weight for group l,
    from one reading of the pooled and group estimates.  Each distinct
    weight is built and evaluated once, a ``WeightSpec`` told apart by value
    and a ``WeightFn`` by identity."""
    flat = flatten_observations(d)
    at_times = {}
    names, keys = [], []
    for weights in weight_sets:
        if isinstance(weights, (WeightSpec, WeightFn)):
            weights = [weights] * d.k
        weights = list(weights)
        if len(weights) != d.k:
            raise ValueError(f"expected one weight per group ({d.k}), got {len(weights)}")
        row = [id(w) if isinstance(w, WeightFn) else w for w in weights]
        for key, w in zip(row, weights):
            if key not in at_times:
                fn = make_weight(d, w) if isinstance(w, WeightSpec) else w
                at_times[key] = fn(flat.times)
        names.append(tuple(w.name for w in weights))
        keys.append(row)
    if fits is None:
        fits = fit_all(d)
    elif fits.flat is not flat:
        raise ValueError("fits are not fit_all of this dataset")
    at, inc = _increments(d, flat, [fits.pooled, *fits.groups])
    pooled_at, den = at[0], inc[0]
    eps = _eps_den(fits.pooled)
    q = _increment_ratios(inc[1:], den, eps)
    a = np.array([[at_times[key] for key in row] for row in keys]) * pooled_at
    scale = 1.0 / math.sqrt(flat.n_subjects)
    u = scale * _brackets(flat, a, q, 1.0).sum(axis=-1)
    v = scale * _brackets(flat, a[:, 1:], q[:1] - q[1:], 0.0).sum(axis=-1)
    return names, fits, u, v, _sigma2(flat, a, den, eps)


def u_statistics(d: PanelDataset, weights, fits: FitBundle | None = None) -> np.ndarray:
    """U_n^(l) for l = 1..k: each group's rate of increase against the pooled one."""
    return _statistics(d, [weights], fits)[2][0]


def v_statistics(d: PanelDataset, weights, fits: FitBundle | None = None) -> np.ndarray:
    """V_n^(l) for l = 2..k: group 1 contrasted with group l."""
    if d.k < 2:
        raise ValueError("v_statistics requires k >= 2 groups")
    return _statistics(d, [weights], fits)[3][0]


def covariance_u(group_sizes: Sequence[int], sigma2) -> np.ndarray:
    """Estimated covariance of the U vector from group sizes and variances;
    sigma^2 of shape (..., k) gives a stack of covariances (..., k, k)."""
    nl = np.asarray(group_sizes, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    n = nl.sum()
    gamma = np.tile(np.sqrt(nl / n), (nl.size, 1))
    gamma[np.diag_indices(nl.size)] -= np.sqrt(n / nl)
    return (gamma * s2[..., None, :]) @ gamma.T


def covariance_v(group_sizes: Sequence[int], sigma2) -> np.ndarray:
    """Estimated covariance of the V vector from group sizes and variances;
    sigma^2 of shape (..., k) gives a stack of covariances (..., k-1, k-1)."""
    nl = np.asarray(group_sizes, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    k = nl.size
    n = nl.sum()
    h = np.zeros((k - 1, k))
    h[:, 0] = -np.sqrt(n / nl[0])
    h[:, 1:] = np.diag(np.sqrt(n / nl[1:]))
    return (h * s2[..., None, :]) @ h.T


def _read(method: str, d: PanelDataset, u, v, sigma2):
    """``(statistics, p_values, variance, covariance)`` of ``method`` for a
    stack of W weight sets, read from the kernel's U (W x k), V (W x (k-1))
    and sigma^2 (W x k): dicts by name of W values each, and the W
    covariance matrices or None.  "U-test" and "V-test" give the chi-square
    form of the first k-1 components of U, or of V; "two-sample-T12" (k = 2)
    gives T1 = U_1 / sqrt(cov_U[0, 0]) and T2 = V_1 / sqrt(cov_V[0, 0]), whose
    squares are those chi^2.  Any set's degenerate variance or covariance raises."""
    variance = {f"sigma{l}_sq": s for l, s in enumerate(sigma2.T, start=1)}
    if method == "two-sample-T12":
        var_u = covariance_u(d.group_sizes, sigma2)[:, 0, 0]
        var_v = covariance_v(d.group_sizes, sigma2)[:, 0, 0]
        if np.any(var_u <= 0) or np.any(var_v <= 0):
            raise DegenerateVarianceError("degenerate variance")
        sd_u, sd_v = np.sqrt(var_u), np.sqrt(var_v)
        statistics = {"T1": u[:, 0] / sd_u, "T2": v[:, 0] / sd_v}
        p_values = {
            name: [2.0 * normal_sf(abs(t)) for t in ts.tolist()] for name, ts in statistics.items()
        }
        return statistics, p_values, {"sigma_U": sd_u, "sigma_V": sd_v, **variance}, None
    if method == "U-test":
        cov = covariance_u(d.group_sizes, sigma2)
        vec, mat = u[:, :-1], cov[:, :-1, :-1]
    else:
        cov = covariance_v(d.group_sizes, sigma2)
        vec, mat = v, cov
    eig = np.linalg.eigvalsh(mat)
    if np.any(eig[:, 0] <= 1e-12 * eig[:, -1]):
        raise DegenerateCovarianceError("degenerate covariance")
    # b as a stack of column vectors, under numpy 1.x and 2.x rules alike
    chi2 = np.maximum((vec * np.linalg.solve(mat, vec[..., None])[..., 0]).sum(axis=-1), 0.0)
    p_values = {"chi2": [chisq_sf(x, d.k - 1) for x in chi2.tolist()]}
    return {"chi2": chi2}, p_values, variance, cov


def _test(d: PanelDataset, weights, fits: FitBundle | None, method: str) -> TestReport:
    """The report of ``method`` ("U-test", "V-test" or "two-sample-T12")
    under one weight set: the reading of a stack of one."""
    names, fits, u, v, sigma2 = _statistics(d, [weights], fits)
    statistics, p_values, variance, covariance = _read(method, d, u, v, sigma2)
    return TestReport(
        method=method,
        weights=names[0],
        statistics={name: float(x[0]) for name, x in statistics.items()},
        p_values={name: p[0] for name, p in p_values.items()},
        variance={name: float(x[0]) for name, x in variance.items()},
        covariance=None if covariance is None else tuple(map(tuple, covariance[0].tolist())),
        df=None if covariance is None else d.k - 1,
        n=d.n,
        group_sizes=d.group_sizes,
        diagnostics={
            "pooled": _diag_summary(fits.pooled_diag),
            "groups": [_diag_summary(dg) for dg in fits.group_diags],
        },
    )


def chi2_u_test(d: PanelDataset, weights, fits: FitBundle | None = None) -> TestReport:
    """Chi-square test from the first k-1 components of the U vector."""
    if d.k < 2:
        raise ValueError("chi-square tests require k >= 2 groups")
    return _test(d, weights, fits, "U-test")


def chi2_v_test(d: PanelDataset, weights, fits: FitBundle | None = None) -> TestReport:
    """Chi-square test from the V vector of group-1 contrasts."""
    if d.k < 2:
        raise ValueError("chi-square tests require k >= 2 groups")
    return _test(d, weights, fits, "V-test")


def two_sample_tests(d: PanelDataset, weight, fits: FitBundle | None = None) -> TestReport:
    """Standard-normal two-sample tests T1 (U-based) and T2 (V-based)."""
    if d.k != 2:
        raise ValueError("two-sample tests require exactly k = 2 groups")
    return _test(d, weight, fits, "two-sample-T12")


def normal_sf(x: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with an integer
    ``df`` >= 1 at ``x`` >= 0 (NaN is rejected).

    With h = x/2 and a = df/2, the tail is a finite sum of the terms
    e^-h h^c / Gamma(c + 1) over c = a - 1, a - 2, ..., down to 0 for even
    df, or to 1/2 plus erfc(sqrt h) for odd df: Abramowitz & Stegun 26.4.5
    and 26.4.4.  The same terms over c = a, a + 1, ... sum to the lower tail
    (A&S 6.5.29), whose complement gives the upper tail below the mean
    (h < a).  There the finite sum lies within a few ulps of 1, and its
    rounding would put it above 1 or let it rise with x.  Every term of the
    finite sum, and the first of the lower tail, is the exponential of its
    logarithm (``math.lgamma``), so none overflows or underflows before it is
    negligible; the lower tail's later terms follow by the ratio h / c.
    """
    if not _is_integer(df):
        raise ValueError("df must be an integer")
    if df < 1:
        raise ValueError("df must be >= 1")
    if not x >= 0:
        raise ValueError("x must be >= 0")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)

    def term(c: float) -> float:
        return math.exp(c * log_h - h - math.lgamma(c + 1.0))

    a = df / 2.0
    if h < a:
        # each term is the one before it times h / c < 1
        t = lower = term(a)
        c = a
        while t > lower * 1e-17:
            c += 1.0
            t *= h / c
            lower += t
        return 1.0 - lower
    head = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    return head + math.fsum(term(a - j) for j in range(1, df // 2 + 1))
