"""Mean-function estimators for panel count data.

Two estimators of the mean function of the counting process, both
nondecreasing step functions on the pooled observation grid:

* the pseudo-likelihood maximizer (``npmple``), which ignores within-subject
  dependence and reduces to a weighted isotonic regression of the observed
  cumulative counts, and
* the full Poisson-likelihood maximizer (``npmle``), computed by a modified
  iterative convex minorant: diagonal-Newton working response, isotonic
  projection, and a backtracking line search that enforces monotone ascent,
  then a Newton step on the tie-block values.  Each solve gathers the rows
  with events and the last-visit counts once; both steps read only those
  (score and per-row curvature weights), and the increments of each
  accepted iterate carry forward to the next score.  The Newton system is
  summed at block level: its size is blocks x blocks, not m x m.
  The Newton step holds a first block at the origin.

  The NPMLE solves on the likelihood's support: the grid points that start
  or end a row with events (Wellner & Zhang 2000).  At any other point phi
  is linear in the value, with slope minus its number of last visits, so
  such a point takes the value of the support point at or left of it, or 0
  before the first: the maximizer where the slope is negative, and the
  right-continuous convention of ``eval_step`` where phi ignores the point.
  Status and residual are certified on the full grid afterwards.  When every
  grid point is in the support, the solve runs on the rows unchanged.

Both estimators project onto the monotone cone with ``isotonic_regression``
(PAVA).  It pools adjacent violators in vectorized rounds while each round
shrinks the block count by a quarter, then finishes with the sequential stack
pass over the blocks left: a few numpy passes on typical inputs, and at worst
the O(m) stack pass over the elements, as on one large value followed by
zeros, where pooling round by round would take m rounds.

Stationarity of the constrained maximizer is certified through the
cumulative-gradient (Fenchel) conditions.  The solver stops as soon as the
optimality conditions on the cone 0 <= u_1 <= ... <= u_m hold, and reports
through ``SolveDiagnostics.status`` whether that point also meets the
two-sided certificate at l = 1 (``"converged"``) or is the maximizer at the
origin boundary (``"boundary-origin"``).  ``weighted_score_residual``
exposes the weighted-sum corollary used as an end-to-end correctness check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FlatObservations,
    PanelDataset,
    StepEstimate,
    TimeGrid,
    build_time_grid,
    eval_step,
    flatten_observations,
)

__all__ = [
    "IcmConfig",
    "SolveDiagnostics",
    "isotonic_regression",
    "npmple",
    "log_likelihood",
    "gradient_and_curvature",
    "npmle",
    "weighted_score_residual",
    "empirical_l2_distance",
]


# The solver's fixed rules: it stops once the cone's optimality conditions
# hold and one iteration gains less than _REL_TOL of the log-likelihood
# (relative); a line search halves its step at most _MAX_HALVINGS times; the
# start is the NPMPLE plus _INIT_SLOPE_EPSILON per grid index, which makes
# it strictly increasing; and the diagonal curvature is floored at
# _CURVATURE_FLOOR_RATIO times its largest entry.
_REL_TOL = 1e-8
_MAX_HALVINGS = 30
_INIT_SLOPE_EPSILON = 1e-4
_CURVATURE_FLOOR_RATIO = 1e-6


@dataclass(frozen=True)
class IcmConfig:
    """Limit and tolerance of the iterative convex minorant solver: the
    iteration limit and the certificate tolerance of ``SolveDiagnostics``."""

    max_iterations: int = 500
    fenchel_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not (0 < self.fenchel_tol < 1):
            raise ValueError("fenchel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Outcome of one solver run.

    ``fenchel_residual`` is the largest certificate violation divided by the
    number of subjects, with the certificate at l = 1 always two-sided, so
    ``converged`` implies it is <= ``fenchel_tol``.  ``status`` says why the
    run ended, and ``converged`` is ``status == "converged"``:

    * ``"converged"``: every certificate holds (``converged`` is True);
    * ``"boundary-origin"``: the iterate sits at the origin boundary
      (u_1 = 0 with S_1 < 0, S_1 the first cumulative gradient) and meets
      the optimality conditions of the cone 0 <= u_1 <= ... <= u_m, where
      l = 1 is one-sided.  It is the maximizer, but the two-sided
      certificate at l = 1 fails, so ``converged`` is False;
    * ``"max-iterations"``: the iteration limit was reached first;
    * ``"stalled"``: a numeric fixed point that meets neither the
      certificates nor the cone's conditions.

    ``loglik_trace`` records the (nondecreasing) objective across iterations,
    and ``seconds`` the solve's wall time, which ``==`` does not compare.
    """

    iterations: int
    loglik: float
    fenchel_residual: float
    loglik_trace: tuple[float, ...]
    status: str
    seconds: float = field(default=0.0, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


# Below this many blocks a numpy round costs more than the stack pass over
# the blocks it would pool, so the rounds stop.
_MIN_ROUND_BLOCKS = 64


def isotonic_regression(y, w):
    """Weighted least-squares projection onto nondecreasing sequences (PAVA).

    Returns the unique minimizer of sum_i w_i (x_i - y_i)^2 over
    x_1 <= ... <= x_m, with block values equal to weighted block means, as a
    new array.  ``y`` and ``w`` must be finite, with ``w`` > 0.

    Pooling adjacent violators in any order reaches the same projection
    (Best & Chakravarti 1990), so the work runs in two steps.  First,
    parallel rounds in numpy: each round pools every maximal run of adjacent
    violators at once, summing the weights and weighted values of each run
    with ``np.bincount``.  The rounds go on only while each one cuts the
    block count by at least a quarter and more than ``_MIN_ROUND_BLOCKS``
    blocks remain.  Then the sequential stack pass runs over the remaining
    blocks.  Inputs on which rounds shrink slowly, such as one large value
    followed by zeros (m rounds of one pool each), are handed to the stack
    pass after the first round, so the worst case is the O(m) stack pass
    over the elements, never m numpy rounds.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.ndim != 1 or y.shape != w.shape or y.size == 0:
        raise ValueError("y and w must be 1-d arrays of equal positive length")
    if not np.isfinite(np.concatenate((y, w))).all():
        raise ValueError("y and w must be finite")
    if not w.min() > 0:
        raise ValueError("weights must be strictly positive")
    # Block j has total weight weights[j] and value means[j]; element i lies
    # in block block[i] once a round has pooled.
    means, weights, block = y, w, None
    if y.size > _MIN_ROUND_BLOCKS:
        sums = w * y
        opens = np.ones(y.size, dtype=bool)
        while means.size > _MIN_ROUND_BLOCKS:
            n = means.size
            # opens[j]: block j starts a run, i.e. is no violator of block j - 1
            np.greater_equal(means[1:], means[:-1], out=opens[1:n])
            run = np.cumsum(opens[:n]) - 1
            n_runs = int(run[-1]) + 1
            if n_runs == n:
                return means.copy() if block is None else means[block]
            if n_runs > 0.75 * n:
                break
            sums = np.bincount(run, weights=sums)
            weights = np.bincount(run, weights=weights)
            means = sums / weights
            block = run if block is None else run[block]
    stack_means: list[float] = []
    stack_weights: list[float] = []
    stack_sizes: list[int] = []
    sizes = [1] * means.size if block is None else np.bincount(block).tolist()
    for mean, weight, size in zip(means.tolist(), weights.tolist(), sizes):
        while stack_means and stack_means[-1] > mean:
            pm, pw = stack_means.pop(), stack_weights.pop()
            mean = (pm * pw + mean * weight) / (pw + weight)
            weight += pw
            size += stack_sizes.pop()
        stack_means.append(mean)
        stack_weights.append(weight)
        stack_sizes.append(size)
    return np.array(stack_means).repeat(stack_sizes)


@dataclass(frozen=True)
class _EventRows:
    """What the likelihood reads of a dataset, built once per solve.

    The observation rows with events, in subject-major order: the grid index
    of each row's end (``rank``), the padded slot of its start
    (``prev_slot`` = prev_rank + 1, with slot 0 the origin) and its count
    increment ``dN``.  Rows without events add nothing to phi, its score or
    its curvature.  ``last_rank`` holds each subject's last visit and
    ``last_count`` the number of last visits at each grid point.
    """

    rank: np.ndarray
    prev_slot: np.ndarray
    dN: np.ndarray
    last_rank: np.ndarray
    last_count: np.ndarray
    m: int


def _event_rows(flat: FlatObservations) -> _EventRows:
    ev = flat.dN > 0
    last_rank = flat.rank[flat.is_last]
    return _EventRows(
        rank=flat.rank[ev],
        prev_slot=flat.prev_rank[ev] + 1,
        dN=flat.dN[ev],
        last_rank=last_rank,
        last_count=np.bincount(last_rank, minlength=flat.m).astype(float),
        m=flat.m,
    )


def _increments(rows: _EventRows, u: np.ndarray) -> np.ndarray:
    """Increments of grid values ``u`` over each event row (u = 0 at the origin)."""
    return u[rows.rank] - np.concatenate([[0.0], u])[rows.prev_slot]


def _loglik(rows: _EventRows, u: np.ndarray, du: np.ndarray | None = None) -> float:
    """phi(u | X) with the 0*log(0) = 0 convention; -inf when infeasible.
    ``du`` is ``_increments(rows, u)`` when the caller already has it."""
    if du is None:
        du = _increments(rows, u)
    if (du <= 0).any():
        return float("-inf")
    ll = float((rows.dN * np.log(du)).sum())
    ll -= float(u[rows.last_rank].sum())
    return ll


def _loglik_diff(rows: _EventRows, u_new, du_new, u_old, du_old) -> float:
    """phi(u_new) - phi(u_old) for feasible ``u_old``, computed from increment
    ratios.  Resolves gains far below the float granularity of the absolute
    log-likelihood, which the line searches need near the optimum.  Returns
    -inf when ``u_new`` is infeasible."""
    if (du_new <= 0).any():
        return float("-inf")
    diff = float((rows.dN * np.log(du_new / du_old)).sum())
    diff -= float((u_new[rows.last_rank] - u_old[rows.last_rank]).sum())
    return diff


def _score_and_weights(rows: _EventRows, du: np.ndarray):
    """One pass over the event rows at increments ``du``: the score
    g = d phi / d u and the per-row curvature weights w = dN / du**2.  Row i
    adds -w_i (e_rank - e_prev)(e_rank - e_prev)^T to the Hessian of phi,
    with e_prev = 0 at the origin (slot 0 of the padded bincounts).
    """
    if (du <= 0).any():
        raise ValueError("u infeasible: zero increment over an interval with events")
    ratio = rows.dN / du
    g = np.bincount(rows.rank, weights=ratio, minlength=rows.m)
    g = g - np.bincount(rows.prev_slot, weights=ratio, minlength=rows.m + 1)[1:] - rows.last_count
    return g, rows.dN / du**2


def _grad_curv(rows: _EventRows, du: np.ndarray):
    """Score and floored negative Hessian diagonal of phi at increments ``du``."""
    g, w = _score_and_weights(rows, du)
    c = np.bincount(rows.rank, weights=w, minlength=rows.m)
    c += np.bincount(rows.prev_slot, weights=w, minlength=rows.m + 1)[1:]
    cmax = c.max()
    if cmax <= 0:
        c = np.ones(rows.m)
    else:
        c = np.maximum(c, _CURVATURE_FLOOR_RATIO * cmax)
    return g, c


def _newton_polish(rows: _EventRows, u: np.ndarray, du: np.ndarray, ll: float, max_halvings: int):
    """One Newton step on the values of the current tie blocks of ``u``.

    The diagonal-ICM step alone contracts slowly once the active set has
    stabilized; solving the reduced (block-level) Newton system drives the
    stationarity residual to machine precision in a few steps.  The
    (blocks x blocks) system is summed directly from the per-row weights,
    each row landing on the blocks of its two ends; no grid-level Hessian
    is formed.  A first block at the origin (value 0, on the boundary of
    the cone) keeps its value, and the system is solved over the other
    blocks; otherwise it is the full system.  On the likelihood's support
    (``_support_rows``) every block of a feasible iterate ends a row with
    events, so each diagonal entry is positive.  Feasibility, ordering, and
    monotone ascent are enforced by backtracking.  Returns
    ``(u, du, ll, polished)``; on any failure the iterate comes back
    unchanged.
    """
    jumps = u[1:] != u[:-1]
    block_id = np.concatenate([[0], np.cumsum(jumps)])
    n_blocks = int(block_id[-1]) + 1
    g, w = _score_and_weights(rows, du)
    g_red = np.bincount(block_id, weights=g, minlength=n_blocks)
    # slot 0 stands for the origin, where u = 0 is not a free value
    size = n_blocks + 1
    slot = np.concatenate([[0], block_id + 1])
    a, b = slot[rows.rank + 1], slot[rows.prev_slot]
    pairs = np.concatenate([a * size + a, b * size + b, a * size + b, b * size + a])
    neg_h = np.bincount(pairs, weights=np.concatenate([w, w, -w, -w]), minlength=size * size)
    neg_h = neg_h.reshape(size, size)[1:, 1:]
    v = u[np.concatenate([[0], np.flatnonzero(jumps) + 1])]
    first = 0 if v[0] > 0 else 1
    dv = np.zeros(n_blocks)
    try:
        dv[first:] = np.linalg.solve(neg_h[first:, first:], g_red[first:])
    except np.linalg.LinAlgError:
        return u, du, ll, False
    step = 1.0
    for _ in range(max_halvings + 1):
        v_cand = v + step * dv
        if v_cand[0] >= 0 and (v_cand[1:] >= v_cand[:-1]).all():
            cand = v_cand[block_id]
            du_cand = _increments(rows, cand)
            gain = _loglik_diff(rows, cand, du_cand, u, du)
            if gain > 0:
                return cand, du_cand, ll + gain, True
        step /= 2.0
    return u, du, ll, False


def _certificates(g: np.ndarray, u: np.ndarray, n: int, tol: float):
    """Cumulative-gradient stationarity, with S_l = sum_{j >= l} g_j.

    Returns ``(certified, residual, kkt)``.  ``residual`` is the largest
    violation of S_l <= 0 for all l and S_l = 0 at every jump of u and at
    l = 1, divided by n; ``certified`` is ``residual <= tol``.  ``kkt`` is
    the same test with l = 1 two-sided only when u_1 jumps above 0: the
    optimality conditions on the cone 0 <= u_1 <= ... <= u_m, which a
    maximizer at the origin boundary (u_1 = 0, S_1 < 0) meets while
    failing ``certified``.
    """
    S = np.cumsum(g[::-1])[::-1]
    alpha = u - np.concatenate([[0.0], u[:-1]])
    eps_jump = 1e-10 * max(1.0, float(u[-1]))
    two_sided = alpha > eps_jump
    kkt_residual = max(float(S.max()), float(np.max(-S[two_sided], initial=-np.inf))) / n
    residual = max(kkt_residual, float(-S[0]) / n)
    return residual <= tol, residual, kkt_residual <= tol


def npmple(d: PanelDataset) -> StepEstimate:
    """Pseudo-likelihood maximizer: weighted isotonic regression of the
    per-grid-point mean cumulative counts, weighted by observation counts."""
    grid = build_time_grid(d)
    flat = flatten_observations(d)
    return _npmple_flat(grid, flat)


def _npmple_flat(grid: TimeGrid, flat: FlatObservations) -> StepEstimate:
    w = np.bincount(flat.rank, minlength=grid.m).astype(float)
    ybar = np.bincount(flat.rank, weights=flat.counts, minlength=grid.m) / w
    values = np.maximum.accumulate(isotonic_regression(ybar, w))
    return StepEstimate(support=grid.points, values=values)


def log_likelihood(d: PanelDataset, e: StepEstimate) -> float:
    """Poisson log-likelihood of ``e`` (parts independent of it dropped),
    with every subject's mean starting from 0 at time 0 as in the solver.

    Returns -inf when some interval carries events but ``e`` does not
    increase over it (infeasible point, distinct from a numeric error).
    """
    grid = build_time_grid(d)
    rows = _event_rows(flatten_observations(d))
    return _loglik(rows, eval_step(e, grid.points))


def gradient_and_curvature(d: PanelDataset, u):
    """Score vector and (floored) negative diagonal curvature of phi at ``u``,
    the values at the points of the dataset's grid."""
    u = np.asarray(u, dtype=float)
    rows = _event_rows(flatten_observations(d))
    if u.size != rows.m:
        raise ValueError("u must have one entry per grid point")
    return _grad_curv(rows, _increments(rows, u))


def _support_rows(rows: _EventRows):
    """The rows of the solve on the likelihood's support.

    The support is the set of grid points that start or end a row with
    events; phi is linear in the value at any other point, with slope minus
    its number of last visits.  Such a point takes the value of the support
    point at or left of it, so its last visits fold into that point, or are
    dropped before the first one, where the value is 0.  Returns
    ``(rows, support)`` with ``support`` a mask over the grid, or the rows
    unchanged and None when every grid point is in the support.
    """
    support = np.zeros(rows.m + 1, dtype=bool)
    support[rows.rank + 1] = True
    support[rows.prev_slot] = True
    support = support[1:]
    if support.all():
        return rows, None
    # slot[j]: 1 + the support index of the support point at or left of
    # grid point j, or 0 (the origin) when there is none
    slot = np.cumsum(support)
    m = int(slot[-1])
    last_slot = slot[rows.last_rank]
    reduced = _EventRows(
        rank=slot[rows.rank] - 1,
        prev_slot=np.concatenate([[0], slot])[rows.prev_slot],
        dN=rows.dN,
        last_rank=last_slot[last_slot > 0] - 1,
        last_count=np.bincount(last_slot, minlength=m + 1)[1:].astype(float),
        m=m,
    )
    return reduced, support


def _icm(rows: _EventRows, u: np.ndarray, n: int, cfg: IcmConfig):
    """The modified ICM from the feasible start ``u``, each step followed by
    a Newton polish.  Returns ``(u, ll, trace, status, residual, iterations)``."""
    du = _increments(rows, u)
    ll = _loglik(rows, u, du)
    trace = [ll]
    rel_change = float("inf")
    status = "max-iterations"
    residual = float("inf")
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        g, c = _grad_curv(rows, du)
        certs_ok, residual, kkt_ok = _certificates(g, u, n, cfg.fenchel_tol)
        if kkt_ok and rel_change < _REL_TOL:
            status = "converged" if certs_ok else "boundary-origin"
            break
        ll_start = ll
        x = np.maximum(isotonic_regression(u + g / c, c), 0.0)
        step = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = u + step * (x - u)
            du_cand = _increments(rows, cand)
            gain = _loglik_diff(rows, cand, du_cand, u, du)
            if gain >= 0:
                accepted = True
                break
            step /= 2.0
        u_start = u
        if accepted:
            u, du, ll = cand, du_cand, ll + gain
            trace.append(ll)
        u, du, ll, polished = _newton_polish(rows, u, du, ll, _MAX_HALVINGS)
        if polished:
            trace.append(ll)
        moved = np.max(np.abs(u - u_start)) > 1e-14 * max(1.0, float(u_start[-1]))
        if not moved:
            # numeric fixed point: nothing can improve, certificates decide
            status = "converged" if certs_ok else "boundary-origin" if kkt_ok else "stalled"
            break
        rel_change = (ll - ll_start) / (1.0 + abs(ll_start))
    else:
        g, _ = _score_and_weights(rows, du)
        _, residual, _ = _certificates(g, u, n, cfg.fenchel_tol)
    return u, ll, trace, status, residual, iterations


def npmle(d: PanelDataset, cfg: IcmConfig = IcmConfig()):
    """Maximum-likelihood mean function via the modified ICM.

    The ICM runs on the likelihood's support (``_support_rows``); every
    other grid point takes the value of the support point at or left of
    it, or 0 before the first.  Status and residual are then certified on
    the full grid.  Returns ``(StepEstimate, SolveDiagnostics)``.  On
    non-convergence the best iterate is returned with ``converged=False``
    and a ``status`` that says why; no exception.
    """
    start = time.perf_counter()
    grid = build_time_grid(d)
    flat = flatten_observations(d)
    pm = _npmple_flat(grid, flat)
    n = flat.n_subjects
    full = _event_rows(flat)
    rows, support = _support_rows(full)
    u0 = pm.values if support is None else pm.values[support]
    if rows.m:
        u0 = u0 + _INIT_SLOPE_EPSILON * np.arange(1, rows.m + 1)
        u, ll, trace, status, residual, iterations = _icm(rows, u0, n, cfg)
    else:
        # no events: phi = -(last visits) . u is largest at u = 0, and the
        # certificates below give the status
        u, ll, trace, status, iterations = u0, 0.0, [0.0], "converged", 0
    if support is not None:
        u = np.concatenate([[0.0], u])[np.cumsum(support)]
        g, _ = _score_and_weights(full, _increments(full, u))
        certs_ok, residual, kkt_ok = _certificates(g, u, n, cfg.fenchel_tol)
        if status != "max-iterations":
            status = "converged" if certs_ok else "boundary-origin" if kkt_ok else "stalled"
    estimate = StepEstimate(support=grid.points, values=np.maximum.accumulate(np.maximum(u, 0.0)))
    diag = SolveDiagnostics(
        iterations=iterations,
        loglik=ll,
        fenchel_residual=residual,
        status=status,
        loglik_trace=tuple(trace),
        seconds=time.perf_counter() - start,
    )
    return estimate, diag


def weighted_score_residual(d: PanelDataset, e: StepEstimate, phi) -> float:
    """sum_l phi(u_l) * (d phi / d u_l) evaluated at ``e``; 0 at an exact NPMLE."""
    grid = build_time_grid(d)
    u = eval_step(e, grid.points)
    g, _ = gradient_and_curvature(d, u)
    phi_vals = np.array([phi(v) for v in u], dtype=float)
    return float(np.dot(phi_vals, g))


def empirical_l2_distance(d: PanelDataset, e1: StepEstimate, e2: StepEstimate) -> float:
    """Empirical L2 distance between two step estimates over all observed times."""
    flat = flatten_observations(d)
    diff = eval_step(e1, flat.times) - eval_step(e2, flat.times)
    return float(np.sqrt(np.sum(diff**2) / flat.n_subjects))
