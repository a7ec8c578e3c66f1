"""Mean-function estimators for panel count data.

Two estimators of the mean function of the counting process, both
nondecreasing step functions on the pooled observation grid:

* the pseudo-likelihood maximizer (``npmple``), which ignores within-subject
  dependence and reduces to a weighted isotonic regression of the observed
  cumulative counts, and
* the full Poisson-likelihood maximizer (``npmle``), computed by a modified
  iterative convex minorant: diagonal-Newton working response, isotonic
  projection, and a line search toward that projection that enforces
  monotone ascent, then a Newton step on the tie-block values.  Both steps
  search the same way (``_ascend``): from the iterate toward a target on the
  cone, first the target itself, then candidates half as far from the
  iterate each time.  Each solve gathers the rows with events and the
  last-visit counts once; both steps read only those (score and per-row
  curvature weights), and the increments of each accepted iterate carry
  forward to the next score.  The Newton system is summed at block level:
  its size is blocks x blocks, not m x m.
  The Newton step holds a first block at the origin.  A Newton step that
  would cross blocks, or take the first below 0, is projected back onto the
  cone, which merges the blocks it crosses, and the search runs toward that
  projection.  The ICM step takes a candidate that loses nothing, the Newton
  step only one that gains.

  A solve starts from the NPMPLE's tie blocks joined by lines: through the
  origin and each block's midpoint, flat after the last.  A group's solve
  in ``fit_all`` starts instead from the pooled NPMLE scaled by the c that
  maximizes phi along it, the group's own level under the pooled shape:
  under the null the pooled fit is close to every group's, and the solve
  needs fewer iterations from it.  The Newton step follows only an ICM step
  that took its PAVA target, so it sees at most the target's blocks; a
  halved ICM candidate blends the target with a tie-free iterate and can
  have a block per grid point.

  One loop (``_icm``) solves a batch of datasets, each a segment of the
  batch's arrays; a single dataset is a batch of one.  ``fit_all`` solves
  its k groups as one batch, cut from the pooled rows (``_group_rows``).
  Element-wise work and bincounts run once over the batch; sums, reversed
  cumulative sums, PAVA and the Newton solves run per segment, so each
  segment gets the bits of its solve alone.  Step halvings, the stop rule,
  status and trace are each segment's own.  A segment leaves the batch at
  one place, the top of an iteration: when it meets the stop rule, when the
  iteration before left its iterate where it was (a numeric fixed point),
  or on the pass after the iteration limit.  One rule covers every segment
  that takes no part in a step: a cut of the batch is permanent, and a step
  that some segments sit out takes a mask (``pending``).  ``_cut`` makes
  every cut, to each group's grid, to the likelihood's support and to the
  segments still solving, and a segment left without a point leaves the
  batch there.

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
from functools import cached_property

import numpy as np

from .core import (
    FlatObservations,
    PanelDataset,
    StepEstimate,
    TimeGrid,
    _is_integer,
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
# (relative); the line search of both steps (_ascend) halves its step toward
# the target at most _MAX_HALVINGS times; the start is the NPMPLE's blocks
# joined by lines, or for a group's solve the scaled pooled fit, plus
# _INIT_SLOPE_EPSILON per grid index, which makes it strictly increasing;
# and the diagonal curvature is floored at _CURVATURE_FLOOR_RATIO times its
# largest entry.
_REL_TOL = 1e-8
_MAX_HALVINGS = 30
_INIT_SLOPE_EPSILON = 1e-4
_CURVATURE_FLOOR_RATIO = 1e-6

# u = 0 at the origin, which slot 0 of the padded values stands for; and
# the first grid point starts a tie block
_ORIGIN = np.zeros(1)
_ORIGIN_SLOT = np.zeros(1, dtype=np.intp)
_FIRST = np.ones(1, dtype=bool)


@dataclass(frozen=True)
class IcmConfig:
    """Limit and tolerance of the iterative convex minorant solver: the
    iteration limit and the certificate tolerance of ``SolveDiagnostics``."""

    max_iterations: int = 500
    fenchel_tol: float = 1e-6

    def __post_init__(self):
        if not _is_integer(self.max_iterations):
            raise ValueError("max_iterations must be an integer")
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
    return _pava(y, w)


def _segmented_pava(y: np.ndarray, w: np.ndarray, segments: "_Segments") -> np.ndarray:
    """The isotonic regression of each segment of ``y`` with weights ``w``,
    unchecked, each by the steps of ``isotonic_regression`` on it alone."""
    return np.concatenate([_pava(y[a:b], w[a:b]) for a, b in segments.pairs])


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The isotonic regression of ``y`` with weights ``w``, unchecked."""
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
    # the sequential stack pass over the blocks left
    sizes = [1] * means.size if block is None else np.bincount(block).tolist()
    stack_means: list[float] = []
    stack_weights: list[float] = []
    stack_sizes: list[int] = []
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


class _Segments:
    """Consecutive runs of a batch's arrays, one run per solve: segment s
    holds items ``bounds[s]:bounds[s + 1]``.

    Sums and reversed cumulative sums run over each run as over a standalone
    array, so every segment gets the bits of its own solve; maxima and
    bincounts are exact in any grouping and run once over the batch.  The
    sums call ``np.add.reduce`` itself, the reduction of ``ndarray.sum``
    without its wrapper, which costs more than a sum at m = 10.
    """

    __slots__ = ("bounds", "starts", "ends", "pairs", "_of")

    def __init__(self, bounds: np.ndarray):
        self.bounds = bounds
        self.starts = bounds[:-1]
        self.ends = bounds[1:]
        self.pairs = list(zip(self.starts.tolist(), self.ends.tolist()))
        self._of = None

    @classmethod
    def of_sizes(cls, sizes: np.ndarray) -> "_Segments":
        bounds = np.zeros(sizes.size + 1, dtype=np.intp)
        np.add.accumulate(sizes, out=bounds[1:])
        return cls(bounds)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def of(self) -> np.ndarray:
        """The segment of each item."""
        if self._of is None:
            self._of = np.arange(len(self)).repeat(self.ends - self.starts)
        return self._of

    def spread(self, v: np.ndarray) -> np.ndarray:
        """Per-segment values ``v`` broadcast to the items of each segment."""
        return v[self.of]

    def sums(self, x: np.ndarray) -> np.ndarray:
        return np.array([np.add.reduce(x[a:b]) for a, b in self.pairs])

    def reversed_cumsums(self, x: np.ndarray) -> np.ndarray:
        """sum_{j >= l} x_j within each segment."""
        out = np.empty_like(x)
        for a, b in self.pairs:
            out[a:b] = np.add.accumulate(x[a:b][::-1])[::-1]
        return out

    def maxima(self, x: np.ndarray) -> np.ndarray:
        """Per-segment maxima; every segment must be nonempty."""
        return np.maximum.reduceat(x, self.starts)

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """The number of items of each segment that ``mask`` marks."""
        marked = np.zeros(mask.size + 1, dtype=np.intp)
        np.add.accumulate(mask, dtype=np.intp, out=marked[1:])
        return marked[self.ends] - marked[self.starts]

    def any(self, mask: np.ndarray) -> np.ndarray:
        """Whether ``mask`` marks an item of each segment; every segment
        must be nonempty."""
        return np.logical_or.reduceat(mask, self.starts)

    def before(self, x: np.ndarray) -> np.ndarray:
        """Each item's predecessor in its segment, 0 for a segment's first."""
        out = np.concatenate((_ORIGIN, x[:-1]))
        out[self.starts] = 0.0
        return out


def _single(size: int) -> _Segments:
    return _Segments(np.array([0, size], dtype=np.intp))


@dataclass(frozen=True, eq=False)
class _EventRows:
    """What the likelihood reads of a batch of datasets, built once per solve.

    Each dataset is a segment of the batch, and a single dataset is a batch
    of one.  Its grid points (``points``), its rows with events (``events``)
    and its subjects' last visits (``lasts``) are consecutive runs of the
    arrays below, in the batch's grid of ``m`` points: the grid index of each
    row's end (``rank``), the padded slot of its start (``prev_slot`` =
    prev_rank + 1, with slot 0 the origin of every segment) and its count
    increment ``dN``, rows in subject-major order.  Rows without events add
    nothing to phi, its score or its curvature.  ``last_rank`` holds each
    subject's last visit; ``last_count``, the number of last visits at each
    grid point, is derived from it.
    """

    rank: np.ndarray
    prev_slot: np.ndarray
    dN: np.ndarray
    last_rank: np.ndarray
    m: int
    points: _Segments
    events: _Segments
    lasts: _Segments

    @cached_property
    def last_count(self) -> np.ndarray:
        return np.bincount(self.last_rank, minlength=self.m).astype(float)


def _event_rows(flat: FlatObservations) -> _EventRows:
    ev = flat.dN > 0
    last_rank = flat.rank[flat.is_last]
    dN = flat.dN[ev]
    return _EventRows(
        rank=flat.rank[ev],
        prev_slot=flat.prev_rank[ev] + 1,
        dN=dN,
        last_rank=last_rank,
        m=flat.m,
        points=_single(flat.m),
        events=_single(dN.size),
        lasts=_single(last_rank.size),
    )


def _cut(rows: _EventRows, keep: np.ndarray) -> _EventRows:
    """``rows`` on the grid points that ``keep`` marks, as a batch of the
    segments that keep a point; a segment that keeps none leaves the batch.

    Every event row of a segment that keeps a point starts and ends at kept
    points.  A last visit moves to the kept point at or left of it in its
    segment, and is dropped when there is none.  Every cut of a batch goes
    through here, and is permanent: to each group's grid (``_group_rows``),
    to the likelihood's support (``_support_rows``) and to the segments
    still solving (``_icm``).
    """
    # slot[j + 1]: 1 + the index of the kept point at or left of grid point
    # j, with slot 0 the origin; slot[start] counts the points kept before a
    # segment
    slot = np.zeros(rows.m + 1, dtype=np.intp)
    np.add.accumulate(keep, dtype=np.intp, out=slot[1:])
    ev = keep[rows.rank]
    last_slot = slot[rows.last_rank + 1]
    last = last_slot > rows.lasts.spread(slot[rows.points.starts])
    kept = np.diff(slot[rows.points.bounds])
    live = kept > 0
    points, events, lasts = (
        _Segments.of_sizes(size[live]) for size in (kept, rows.events.counts(ev), rows.lasts.counts(last))
    )
    return _EventRows(
        rank=slot[rows.rank[ev] + 1] - 1,
        prev_slot=slot[rows.prev_slot[ev]],
        dN=rows.dN[ev],
        last_rank=last_slot[last] - 1,
        m=int(slot[-1]),
        points=points,
        events=events,
        lasts=lasts,
    )


def _group_rows(d: PanelDataset, grid: TimeGrid, flat: FlatObservations):
    """The rows of each group 1..k of ``d``, as the k segments of one batch
    cut from the pooled rows ``flat``; a ValueError names the lowest group
    without rows.

    Each group's rows are laid on a copy of the pooled grid of its own, and
    the batch is cut to the points each group visits: the group's grid.
    Rows, their order and their counts are those of
    ``restrict_to_group(d, l)``.  Returns ``(rows, points, n)``: the batch,
    the groups' grid points end to end, and each group's number of subjects.
    """
    m, k = flat.m, d.k
    row_label = d.groups.repeat(d.sizes)
    kept = np.nonzero((row_label >= 1) & (row_label <= k))[0]
    seg = row_label[kept].astype(int) - 1
    has_rows = np.bincount(seg, minlength=k) > 0
    if not has_rows.all():
        raise ValueError(f"group {int(np.argmin(has_rows)) + 1} has no observations")
    order = seg.argsort(kind="stable")
    kept, seg = kept[order], seg[order]
    rank = seg * m + flat.rank[kept]
    prev = flat.prev_rank[kept]
    dN = flat.dN[kept]
    ev = dN > 0
    last = flat.is_last[kept]
    visited = np.zeros(k * m, dtype=bool)
    visited[rank] = True
    on_copies = _EventRows(
        rank=rank[ev],
        prev_slot=np.where(prev >= 0, seg * m + prev + 1, 0)[ev],
        dN=dN[ev],
        last_rank=rank[last],
        m=k * m,
        points=_Segments.of_sizes(np.full(k, m)),
        events=_Segments.of_sizes(np.bincount(seg[ev], minlength=k)),
        lasts=_Segments.of_sizes(np.bincount(seg[last], minlength=k)),
    )
    points = np.tile(grid.points, k)[visited]
    points.flags.writeable = False
    return _cut(on_copies, visited), points, list(d.group_sizes)


def _increments(rows: _EventRows, u: np.ndarray) -> np.ndarray:
    """Increments of grid values ``u`` over each event row (u = 0 at the origin)."""
    return u[rows.rank] - np.concatenate((_ORIGIN, u))[rows.prev_slot]


def _loglik(rows: _EventRows, u: np.ndarray, du: np.ndarray | None = None) -> np.ndarray:
    """phi(u | X) of each segment with the 0*log(0) = 0 convention; -inf
    where infeasible.  ``du`` is ``_increments(rows, u)`` when the caller
    already has it."""
    if du is None:
        du = _increments(rows, u)
    return _phi(rows, du <= 0, du, u[rows.last_rank])


def _loglik_diff(rows: _EventRows, u_new, du_new, u_old, du_old) -> np.ndarray:
    """phi(u_new) - phi(u_old) of each segment for feasible ``u_old``,
    computed from increment ratios.  Resolves gains far below the float
    granularity of the absolute log-likelihood, which the line searches need
    near the optimum.  -inf where ``u_new`` is infeasible."""
    return _phi(rows, du_new <= 0, du_new / du_old, u_new[rows.last_rank] - u_old[rows.last_rank])


def _phi(rows: _EventRows, bad: np.ndarray, ratio: np.ndarray, at_last: np.ndarray) -> np.ndarray:
    """sum dN log(ratio) - sum at_last of each segment, -inf where a row is
    ``bad``."""
    if not bad.any():
        return rows.events.sums(rows.dN * np.log(ratio)) - rows.lasts.sums(at_last)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = rows.events.sums(rows.dN * np.log(ratio)) - rows.lasts.sums(at_last)
    phi[rows.events.any(bad)] = -np.inf
    return phi


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
    """Score and negative Hessian diagonal of phi at increments ``du``, the
    diagonal floored per segment at a ratio of its largest entry."""
    g, w = _score_and_weights(rows, du)
    c = np.bincount(rows.rank, weights=w, minlength=rows.m)
    c += np.bincount(rows.prev_slot, weights=w, minlength=rows.m + 1)[1:]
    cmax = rows.points.maxima(c)
    c = np.maximum(c, rows.points.spread(_CURVATURE_FLOOR_RATIO * cmax))
    return g, np.where(rows.points.spread(cmax <= 0), 1.0, c)


def _ascend(rows: _EventRows, u, du, ll, target: np.ndarray, pending: list[bool], strict: bool):
    """The projected line search of the modified ICM (Jongbloed 1998): move
    each segment of ``rows`` that ``pending`` marks from ``u`` toward
    ``target``, both on the cone, without losing log-likelihood.

    The candidates are target - (1 - s) (target - u) for s = 1, 1/2, ...,
    at most ``_MAX_HALVINGS`` halvings; at s = 1 the candidate is ``target``
    itself, ties and all.  Each segment takes its first candidate that gains
    (``strict``) or loses nothing, and comes back unchanged when none does.
    ``du`` and ``ll`` are the increments and per-segment log-likelihoods of
    ``u``.  Returns ``(u, du, ll, taken)``: ``ll`` a list, and ``taken`` the
    list of each segment's s, 1.0 where it took ``target`` itself and 0.0
    where it took no candidate.
    """
    ll = list(ll)
    taken = [0.0] * len(ll)
    s = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        cand = target - (1.0 - s) * (target - u)
        du_cand = _increments(rows, cand)
        gain = _loglik_diff(rows, cand, du_cand, u, du).tolist()
        won = [p and (g > 0 if strict else g >= 0) for p, g in zip(pending, gain)]
        if all(won):
            u, du = cand, du_cand
        elif any(won):
            at = np.array(won)
            u = np.where(rows.points.spread(at), cand, u)
            du = np.where(rows.events.spread(at), du_cand, du)
        ll = [l + g if w else l for l, g, w in zip(ll, gain, won)]
        taken = [s if w else t for t, w in zip(taken, won)]
        pending = [p and not w for p, w in zip(pending, won)]
        if not any(pending):
            break
        s /= 2.0
    return u, du, ll, taken


def _newton_polish(rows: _EventRows, u: np.ndarray, du: np.ndarray, ll, pending: list[bool]):
    """One Newton step on the values of the current tie blocks of ``u``, in
    each segment that ``pending`` marks.

    The diagonal-ICM step alone contracts slowly once the active set has
    stabilized; solving the reduced (block-level) Newton system drives the
    stationarity residual to machine precision in a few steps.  ``_icm``
    marks only segments whose ICM step took its PAVA target, so a
    segment's system has at most that target's blocks, not one per grid
    point as a halved candidate can have.  A segment that sits out counts as
    one block and solves nothing, so it adds one row and column to the
    system.  The (blocks x blocks) system is summed directly from the
    per-row weights, each row landing on the blocks of its two ends; no
    grid-level Hessian is formed.  No row joins two segments, so the batch's
    system is block diagonal, and each segment's block of it is solved as
    its own system: a segment gets the bits of its polish alone.
    A first block at the origin (value 0, on the boundary of the cone) keeps
    its value, and the system is solved over the other blocks; otherwise it
    is the full system.  On the likelihood's support (``_support_rows``)
    every block of a feasible iterate ends a row with events, so each
    diagonal entry is positive.  ``_block_step`` keeps the blocks in order:
    a step that would cross blocks is projected onto the cone, and the line
    search runs toward that projection.  Returns ``(u, du, ll, polished)``
    as arrays; a segment that sits out or whose step fails comes back
    unchanged and unpolished.
    """
    points = rows.points
    first_of_block = np.concatenate((_FIRST, u[1:] != u[:-1]))
    first_of_block &= points.spread(np.array(pending))
    first_of_block[points.starts] = True
    block_id = np.add.accumulate(first_of_block, dtype=np.intp) - 1
    n_blocks = int(block_id[-1]) + 1
    blocks = _Segments(np.concatenate((block_id[points.starts], [n_blocks])))
    g, w = _score_and_weights(rows, du)
    g_red = np.bincount(block_id, weights=g, minlength=n_blocks)
    # slot 0 stands for the origin, where u = 0 is not a free value
    size = n_blocks + 1
    slot = np.concatenate((_ORIGIN_SLOT, block_id + 1))
    a, b = slot[rows.rank + 1], slot[rows.prev_slot]
    # each row adds w at (a, a) and (b, b) and -w at (a, b) and (b, a)
    pairs = np.concatenate((a, b, a, b)) * size + np.concatenate((a, b, b, a))
    neg_w = -w
    neg_h = np.bincount(pairs, weights=np.concatenate((w, w, neg_w, neg_w)), minlength=size * size)
    neg_h = neg_h.reshape(size, size)[1:, 1:]
    v = u[first_of_block]
    dv = np.zeros(n_blocks)
    solved = list(pending)
    for s, (lo, hi) in enumerate(blocks.pairs):
        if solved[s]:
            first = lo if v[lo] > 0 else lo + 1
            try:
                dv[first:hi] = np.linalg.solve(neg_h[first:hi, first:hi], g_red[first:hi])
            except np.linalg.LinAlgError:
                solved[s] = False
    return _block_step(rows, u, du, ll, block_id, v, dv, np.diagonal(neg_h), solved, blocks)


def _in_cone(blocks: _Segments, v: np.ndarray) -> list[bool]:
    """Whether each segment's block values ``v`` satisfy
    0 <= v_1 <= ... <= v_blocks."""
    # ordered[i]: v_i >= v_{i-1}; a segment's first block is held only to 0
    ordered = np.concatenate((_FIRST, v[1:] >= v[:-1]))
    ordered[blocks.starts] = True
    return ((v[blocks.starts] >= 0) & np.logical_and.reduceat(ordered, blocks.starts)).tolist()


def _block_step(rows: _EventRows, u, du, ll, block_id, v, dv, h, pending: list[bool], blocks: _Segments):
    """Move the tie-block values ``v`` of ``u`` (grid point i in block
    ``block_id[i]``) toward v + ``dv``, the Newton step, staying on the cone
    0 <= v_1 <= ... <= v_blocks and ascending, in each segment of ``rows``
    that ``pending`` marks; ``blocks`` are the segments' runs of blocks.

    The target is v + dv where that lies on the cone.  Where the step would
    cross blocks or take the first below 0, the target is its projection
    onto the cone in the metric of the block curvatures ``h`` (the Newton
    system's diagonal, floored as in ``_grad_curv``): the isotonic
    regression of v + dv, clipped at 0, which merges the blocks the step
    would cross.  ``_ascend`` searches toward the target and takes only a
    candidate that gains.  Returns ``(u, du, ll, polished)``; a segment where
    no candidate gains comes back unchanged.
    """
    target = v + dv
    for (lo, hi), trying, ok in zip(blocks.pairs, pending, _in_cone(blocks, target)):
        if trying and not ok:
            h_s = np.maximum(h[lo:hi], _CURVATURE_FLOOR_RATIO * np.maximum.reduce(h[lo:hi]))
            target[lo:hi] = np.maximum(isotonic_regression(target[lo:hi], h_s), 0.0)
    u, du, ll, taken = _ascend(rows, u, du, ll, target[block_id], pending, True)
    return u, du, np.array(ll), np.array(taken) > 0


def _certificates(g: np.ndarray, u: np.ndarray, n, tol: float, points: _Segments):
    """Cumulative-gradient stationarity, with S_l = sum_{j >= l} g_j.

    Returns ``(certified, residual, kkt)``.  ``residual`` is the largest
    violation of S_l <= 0 for all l and S_l = 0 at every jump of u and at
    l = 1, divided by n; ``certified`` is ``residual <= tol``.  ``kkt`` is
    the same test with l = 1 two-sided only when u_1 jumps above 0: the
    optimality conditions on the cone 0 <= u_1 <= ... <= u_m, which a
    maximizer at the origin boundary (u_1 = 0, S_1 < 0) meets while failing
    ``certified``.  ``points`` are the segments of the batch and ``n`` the
    list of their numbers of subjects; each of the three is a list with one
    entry per segment, with S summed within the segment.
    """
    S = points.reversed_cumsums(g)
    alpha = u - points.before(u)
    eps_jump = 1e-10 * np.maximum(1.0, u[points.ends - 1])
    two_sided = alpha > points.spread(eps_jump)
    kkt = np.maximum(points.maxima(S), points.maxima(np.where(two_sided, -S, -np.inf))) / n
    residual = np.maximum(kkt, -S[points.starts] / n)
    return (residual <= tol).tolist(), residual.tolist(), (kkt <= tol).tolist()


def _status(certified: bool, kkt: bool) -> str:
    """Why a solve that ends at a point with these certificates ended (see
    ``SolveDiagnostics``)."""
    return "converged" if certified else "boundary-origin" if kkt else "stalled"


def npmple(d: PanelDataset) -> StepEstimate:
    """Pseudo-likelihood maximizer: weighted isotonic regression of the
    per-grid-point mean cumulative counts, weighted by observation counts."""
    grid = build_time_grid(d)
    return StepEstimate(support=grid.points, values=_npmple_values(grid, flatten_observations(d)))


def _npmple_values(grid: TimeGrid, flat: FlatObservations) -> np.ndarray:
    w = np.bincount(flat.rank, minlength=grid.m).astype(float)
    ybar = np.bincount(flat.rank, weights=flat.counts, minlength=grid.m) / w
    return np.maximum.accumulate(isotonic_regression(ybar, w))


def _npmple_start(grid: TimeGrid, flat: FlatObservations) -> np.ndarray:
    """The start of a solve without ``_start``: the NPMPLE's tie blocks
    joined by lines, read at the grid points.  The lines pass through the
    origin and through each block's value at the midpoint of its first and
    last time; the start is flat after the last midpoint.

    Each point is read as a weighted mean of the ends of its line, with the
    weight of the right end its share of the way along, at most 1: a slope
    over two close times could overflow."""
    t = grid.points
    v = _npmple_values(grid, flat)
    first = np.concatenate((_FIRST, v[1:] != v[:-1]))
    last = np.concatenate((first[1:], _FIRST))
    x = np.concatenate((_ORIGIN, t[first] + 0.5 * (t[last] - t[first])))
    y = np.concatenate((_ORIGIN, v[first]))
    # the line from point j - 1 to point j holds t, or the last line past its end
    j = np.minimum(np.searchsorted(x, t, side="right"), x.size - 1)
    share = np.minimum((t - x[j - 1]) / (x[j] - x[j - 1]), 1.0)
    return np.maximum.accumulate((1.0 - share) * y[j - 1] + share * y[j])


def log_likelihood(d: PanelDataset, e: StepEstimate) -> float:
    """Poisson log-likelihood of ``e`` (parts independent of it dropped),
    with every subject's mean starting from 0 at time 0 as in the solver.

    Returns -inf when some interval carries events but ``e`` does not
    increase over it (infeasible point, distinct from a numeric error).
    """
    grid = build_time_grid(d)
    rows = _event_rows(flatten_observations(d))
    return float(_loglik(rows, eval_step(e, grid.points))[0])


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
    point at or left of it in its segment, so its last visits fold into that
    point, or are dropped before the first one, where the value is 0.
    Returns ``(rows, support)`` with ``support`` a mask over the grid, or the
    rows unchanged and None when every grid point is in the support.  The
    segments without events, which have no support, are left out.
    """
    support = np.zeros(rows.m + 1, dtype=bool)
    support[rows.rank + 1] = True
    support[rows.prev_slot] = True
    support = support[1:]
    if support.all():
        return rows, None
    return _cut(rows, support), support


def _icm(rows: _EventRows, u: np.ndarray, n: list[int], cfg: IcmConfig):
    """The modified ICM on every segment of ``rows`` at once, from the
    feasible start ``u``, each step that takes its target followed by a
    Newton polish.

    Both steps move by ``_ascend``: the ICM step toward the PAVA projection
    of the working response, clipped at 0, taking a candidate that loses
    nothing, and the polish toward its block target, taking only a gain.
    A segment polishes only in an iteration whose ICM step took that
    projection itself (s = 1), so the polish sees the projection's blocks;
    a segment whose ICM step halved or stood still sits out the polish (the
    mask ``pending``) and goes on to the next iteration unpolished.  The
    polish runs only in an iteration where some segment polishes.
    Each segment keeps its own halvings of both searches, stop rule, status
    and trace, all read from its own values, so it follows the path of its
    solve alone; each step a segment takes adds one entry to its trace.  A
    segment leaves the batch for good (``_cut``) only at the top of an
    iteration, with the status of its certificates there, when either it
    met the stop rule (the cone's conditions hold after an iteration that
    gained less than ``_REL_TOL``), recorded at this iteration, or the
    iteration before moved its iterate by nothing (a numeric fixed point),
    recorded at that one.
    The loop runs one pass past the limit, where every segment still solving
    leaves as ``"max-iterations"`` unless it is at a fixed point.
    Per-segment scalars are Python floats, whose arithmetic is numpy's.
    Returns, per segment, ``(u, ll, trace, status, residual, iterations)``.
    """
    out = [None] * len(rows.points)
    ids = list(range(len(rows.points)))
    du = _increments(rows, u)
    ll = _loglik(rows, u, du).tolist()
    traces = [[v] for v in ll]
    rel_change = [float("inf")] * len(ids)
    still = [False] * len(ids)
    for iterations in range(1, cfg.max_iterations + 2):
        g, c = _grad_curv(rows, du)
        extra = iterations > cfg.max_iterations
        # the certificates are needed only where a segment can leave
        if extra or any(still) or any(r < _REL_TOL for r in rel_change):
            certs_ok, residual, kkt_ok = _certificates(g, u, n, cfg.fenchel_tol, rows.points)
            done = [extra or s or (kkt and r < _REL_TOL) for s, kkt, r in zip(still, kkt_ok, rel_change)]
            for s, (a, b) in enumerate(rows.points.pairs):
                if done[s]:
                    status = _status(certs_ok[s], kkt_ok[s]) if still[s] or not extra else "max-iterations"
                    at = iterations - 1 if still[s] or extra else iterations
                    out[ids[s]] = (u[a:b], ll[s], traces[ids[s]], status, residual[s], at)
            if all(done):
                break
            if any(done):
                live = ~np.array(done)
                kept = rows.points.spread(live)
                u, du, g, c = u[kept], du[rows.events.spread(live)], g[kept], c[kept]
                rows = _cut(rows, kept)
                ids, ll, rel_change, n = (
                    [x for x, gone in zip(xs, done) if not gone] for xs in (ids, ll, rel_change, n)
                )
        ll_start = ll
        x = np.maximum(_segmented_pava(u + g / c, c, rows.points), 0.0)
        u_start = u
        u, du, ll_icm, taken = _ascend(rows, u, du, ll, x, [True] * len(ids), False)
        pending = [s == 1.0 for s in taken]
        if any(pending):
            u, du, ll, polished = _newton_polish(rows, u, du, ll_icm, pending)
            ll, polished = ll.tolist(), polished.tolist()
        else:
            ll, polished = ll_icm, pending
        for i, a, l_a, b, l_b in zip(ids, taken, ll_icm, polished, ll):
            if a > 0:
                traces[i].append(l_a)
            if b:
                traces[i].append(l_b)
        rel_change = [(l - l0) / (1.0 + abs(l0)) for l, l0 in zip(ll, ll_start)]
        shift = rows.points.maxima(np.abs(u - u_start)).tolist()
        last = u_start[rows.points.ends - 1].tolist()
        still = [not d > 1e-14 * max(1.0, t) for d, t in zip(shift, last)]
    return out


def _scaled_start(start: StepEstimate, points: np.ndarray, rows: _EventRows) -> np.ndarray:
    """``start`` read at ``points`` and scaled, in each segment, by
    c = sum dN / sum of its values at the last visits, the c that maximizes
    phi(c * start): the level of the segment's rows under the shape of
    ``start``.  A segment without events is left unscaled."""
    u = eval_step(start, points)
    at_last = rows.lasts.sums(u[rows.last_rank])
    return u * rows.points.spread(rows.events.sums(rows.dN) / np.where(at_last > 0, at_last, 1.0))


def _solve(full: _EventRows, u0: np.ndarray, n: list[int], points: np.ndarray, cfg: IcmConfig, began: float):
    """The NPMLE of every segment of ``full`` from its start ``u0`` on its
    grid (``points``), in one run of ``_icm``.  Status and residual of a
    segment solved on part of its grid are certified on the full grid.
    Returns one ``(StepEstimate, SolveDiagnostics)`` per segment; each
    ``seconds`` is the wall time since ``began``."""
    rows, support = _support_rows(full)
    # no events: phi = -(last visits) . u is largest at u = 0, and the
    # certificates below give the status
    fits = [(np.zeros(0), 0.0, [0.0], "converged", np.inf, 0)] * len(full.points)
    solving = np.flatnonzero(full.events.ends > full.events.starts).tolist()
    if solving:
        if support is not None:
            u0 = u0[support]
        local = np.arange(1, rows.m + 1) - rows.points.spread(rows.points.starts)
        for s, fit in zip(solving, _icm(rows, u0 + _INIT_SLOPE_EPSILON * local, [n[s] for s in solving], cfg)):
            fits[s] = fit
    u = np.concatenate([fit[0] for fit in fits])
    if support is not None:
        # slot[j] - first[j]: 1 + the segment's support index at or left of
        # grid point j, or 0 when there is none
        slot = np.cumsum(support)
        first = full.points.spread(np.concatenate(([0], slot[full.points.ends[:-1] - 1])))
        u = np.concatenate((_ORIGIN, u))[np.where(slot > first, slot, 0)]
        g, _ = _score_and_weights(full, _increments(full, u))
        certs_ok, residual, kkt_ok = _certificates(g, u, n, cfg.fenchel_tol, full.points)
        for s, partial in enumerate(full.points.any(~support).tolist()):
            if partial:
                u_s, ll, trace, status, _, iterations = fits[s]
                if status != "max-iterations":
                    status = _status(certs_ok[s], kkt_ok[s])
                fits[s] = (u_s, ll, trace, status, residual[s], iterations)
    seconds = time.perf_counter() - began
    return [
        (
            StepEstimate(support=points[a:b], values=np.maximum.accumulate(np.maximum(u[a:b], 0.0))),
            SolveDiagnostics(
                iterations=iterations,
                loglik=ll,
                fenchel_residual=residual,
                status=status,
                loglik_trace=tuple(trace),
                seconds=seconds,
            ),
        )
        for (a, b), (_, ll, trace, status, residual, iterations) in zip(full.points.pairs, fits)
    ]


def npmle(d: PanelDataset, cfg: IcmConfig = IcmConfig(), *, _start: StepEstimate | None = None):
    """Maximum-likelihood mean function via the modified ICM.

    The ICM runs on the likelihood's support (``_support_rows``); every
    other grid point takes the value of the support point at or left of
    it, or 0 before the first.  Status and residual are then certified on
    the full grid.  Returns ``(StepEstimate, SolveDiagnostics)``.  On
    non-convergence the best iterate is returned with ``converged=False``
    and a ``status`` that says why; no exception.

    The solve starts from the NPMPLE's tie blocks joined by lines
    (``_npmple_start``), or, given a step estimate ``_start``, from that
    estimate scaled to the dataset's level (``_scaled_start``); either way
    ``_INIT_SLOPE_EPSILON`` per support point is added.  The dataset is solved
    as a batch of one (``_icm``), where the Newton polish follows only an
    ICM step that took its PAVA target.
    """
    began = time.perf_counter()
    grid = build_time_grid(d)
    flat = flatten_observations(d)
    full = _event_rows(flat)
    if _start is None:
        u0 = _npmple_start(grid, flat)
    else:
        u0 = _scaled_start(_start, grid.points, full)
    ((estimate, diag),) = _solve(full, u0, [flat.n_subjects], grid.points, cfg, began)
    return estimate, diag


def _group_npmles(d: PanelDataset, start: StepEstimate, cfg: IcmConfig):
    """The NPMLE of each group of ``d``, all solved as the k segments of one
    batch (``_group_rows``), each from ``start`` scaled to its group's level.

    Each group's estimate and diagnostics are those of
    ``npmle(restrict_to_group(d, l), cfg, _start=start)``, except that
    ``seconds`` is the wall time of the whole batch.  Returns one
    ``(StepEstimate, SolveDiagnostics)`` per group label 1..k.  A group
    without rows raises a ValueError before any group is solved.
    """
    began = time.perf_counter()
    full, points, n = _group_rows(d, build_time_grid(d), flatten_observations(d))
    return _solve(full, _scaled_start(start, points, full), n, points, cfg, began)


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
