"""Independent reference implementations used to check the library.

Everything here is written directly from the defining formulas with plain
loops (or exhaustive search), deliberately avoiding the library's internal
code paths.  ``npmle_full_grid`` is the exception: the earlier full-grid
solver, kept as the reference for the solve on the likelihood's support and
built on the library's per-row helpers.
"""

from fractions import Fraction
from itertools import product

import numpy as np

from panelcount.core import StepEstimate, build_time_grid, flatten_observations
from panelcount.estimators import (
    _INIT_SLOPE_EPSILON,
    _MAX_HALVINGS,
    _REL_TOL,
    SolveDiagnostics,
    _certificates,
    _event_rows,
    _grad_curv,
    _increments,
    _loglik,
    _loglik_diff,
    _npmple_flat,
    _score_and_weights,
    isotonic_regression,
)


def step_at(support, values, t):
    """Right-continuous step lookup: 0 before the first support point."""
    out = 0.0
    for s, v in zip(support, values):
        if s <= t:
            out = v
        else:
            break
    return out


def loglik_direct(d, support, values):
    """Poisson panel log-likelihood by per-subject loops."""
    total = 0.0
    for p in d.paths:
        prev_t, prev_c = 0.0, 0.0
        for t, c in zip(p.times, p.counts):
            dn = c - prev_c
            du = step_at(support, values, t) - step_at(support, values, prev_t)
            if dn > 0:
                if du <= 0:
                    return float("-inf")
                total += dn * np.log(du)
            prev_t, prev_c = t, c
        total -= step_at(support, values, p.times[-1])
    return total


def brute_force_npmle(d, rounds=40, points=9):
    """Exhaustive refinement search for the likelihood maximizer over the
    monotone cone; valid because the objective is concave there."""
    grid = np.unique(np.concatenate([p.times for p in d.paths]))
    m = grid.size
    rank = {t: i for i, t in enumerate(grid)}
    rows = []  # (subject, rank, prev_rank, dN, is_last)
    for si, p in enumerate(d.paths):
        prev_c = 0.0
        for j, (t, c) in enumerate(zip(p.times, p.counts)):
            rows.append(
                (rank[t], rank[p.times[j - 1]] if j else -1, c - prev_c, j == p.n_visits - 1)
            )
            prev_c = c
    ub = max(float(p.counts[-1]) for p in d.paths) + 3.0
    lo = np.zeros(m)
    hi = np.full(m, ub)
    best_u = np.zeros(m)
    best_ll = _candidate_loglik(rows, best_u[None, :])[0]
    for _ in range(rounds):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(m)]
        cands = np.array([tup for tup in product(*axes) if all(np.diff(tup) >= 0)])
        cands = np.vstack([cands, best_u])
        lls = _candidate_loglik(rows, cands)
        idx = int(np.argmax(lls))
        if lls[idx] > best_ll:
            best_ll, best_u = float(lls[idx]), cands[idx].copy()
        span = (hi - lo) / 4.0
        lo = np.maximum(best_u - span, 0.0)
        hi = np.minimum(best_u + span, ub)
    return best_u, best_ll


def _candidate_loglik(rows, cands):
    lls = np.zeros(cands.shape[0])
    feasible = np.ones(cands.shape[0], dtype=bool)
    for r, pr, dn, last in rows:
        du = cands[:, r] - (cands[:, pr] if pr >= 0 else 0.0)
        if dn > 0:
            bad = du <= 0
            feasible &= ~bad
            with np.errstate(divide="ignore", invalid="ignore"):
                lls += np.where(bad, 0.0, dn * np.log(np.where(bad, 1.0, du)))
        if last:
            lls -= cands[:, r]
    lls[~feasible] = float("-inf")
    return lls


def isotonic_brute_force(y, w):
    """Exact isotonic fit by enumerating all consecutive-block partitions.

    Block means and squared errors are computed in exact rational arithmetic:
    in floats, two partitions whose objectives differ by less than the
    rounding of the sum tie, and the first one found would win."""
    y = [Fraction(v) for v in np.asarray(y, dtype=float).tolist()]
    w = [Fraction(v) for v in np.asarray(w, dtype=float).tolist()]
    m = len(y)
    best = None
    best_sse = None
    for mask in range(2 ** (m - 1)):
        # bit j set: a block boundary between positions j and j+1
        blocks = []
        start = 0
        for j in range(m - 1):
            if mask >> j & 1:
                blocks.append((start, j + 1))
                start = j + 1
        blocks.append((start, m))
        means = [
            sum(wi * yi for wi, yi in zip(w[a:b], y[a:b])) / sum(w[a:b]) for a, b in blocks
        ]
        if any(means[i] > means[i + 1] for i in range(len(means) - 1)):
            continue
        fit = [mu for (a, b), mu in zip(blocks, means) for _ in range(b - a)]
        sse = sum(wi * (fi - yi) ** 2 for wi, fi, yi in zip(w, fit, y))
        if best_sse is None or sse < best_sse:
            best_sse, best = sse, fit
    return np.array([float(v) for v in best])


def isotonic_sequential(y, w):
    """Isotonic fit by the classic one-pass PAVA: each element joins a stack
    of blocks and pools with the top block while the top's mean is larger."""
    means, weights, sizes = [], [], []
    for yi, wi in zip(np.asarray(y, dtype=float), np.asarray(w, dtype=float)):
        mean, weight, size = float(yi), float(wi), 1
        while means and means[-1] > mean:
            pm, pw = means.pop(), weights.pop()
            mean = (pm * pw + mean * weight) / (pw + weight)
            weight += pw
            size += sizes.pop()
        means.append(mean)
        weights.append(weight)
        sizes.append(size)
    return np.repeat(means, sizes)


def _ratio(num, den, eps_den, dn=None):
    if den < eps_den:
        assert num <= eps_den and not (dn is not None and dn > 0), "floored denominator"
        return 1.0
    return num / den


def _bracket(p, weight_at, pooled, numerator_incr, terminal_const, eps_den):
    """One subject's term of the weighted rate-difference statistics."""
    support, values = pooled
    q = []
    prev_t = 0.0
    for j, t in enumerate(p.times):
        den = step_at(support, values, t) - step_at(support, values, prev_t)
        num, dn = numerator_incr(j, prev_t, t)
        q.append(_ratio(num, den, eps_den, dn))
        prev_t = t
    total = 0.0
    for j in range(p.n_visits - 1):
        total += weight_at(p.times[j]) * step_at(support, values, p.times[j]) * (q[j + 1] - q[j])
    t_last = p.times[-1]
    total += weight_at(t_last) * step_at(support, values, t_last) * (terminal_const - q[-1])
    return total


def sigma_sq_direct(d, pooled, weight_at):
    """Direct evaluation of the per-subject variance estimator."""
    eps = 1e-8 * pooled[1][-1] if pooled[1][-1] > 0 else 1.0
    total = 0.0
    for p in d.paths:
        def incr(j, prev_t, t, p=p):
            dn = p.counts[j] - (p.counts[j - 1] if j else 0.0)
            return dn, dn

        total += _bracket(p, weight_at, pooled, incr, 1.0, eps) ** 2
    return total / d.n


def u_stat_direct(d, pooled, group_est, weight_at):
    """Direct evaluation of one U statistic against a group estimate."""
    eps = 1e-8 * pooled[1][-1] if pooled[1][-1] > 0 else 1.0
    gs, gv = group_est
    total = 0.0
    for p in d.paths:
        def incr(j, prev_t, t):
            return step_at(gs, gv, t) - step_at(gs, gv, prev_t), None

        total += _bracket(p, weight_at, pooled, incr, 1.0, eps)
    return total / np.sqrt(d.n)


def v_stat_direct(d, pooled, group1_est, groupl_est, weight_at):
    """Direct evaluation of one V statistic (group 1 vs group l contrast)."""
    eps = 1e-8 * pooled[1][-1] if pooled[1][-1] > 0 else 1.0
    support, values = pooled
    total = 0.0
    for p in d.paths:
        qs = []
        prev_t = 0.0
        for t in p.times:
            den = step_at(support, values, t) - step_at(support, values, prev_t)
            q1 = _ratio(step_at(*group1_est, t) - step_at(*group1_est, prev_t), den, eps)
            ql = _ratio(step_at(*groupl_est, t) - step_at(*groupl_est, prev_t), den, eps)
            qs.append((q1, ql))
            prev_t = t
        for j in range(p.n_visits - 1):
            a = weight_at(p.times[j]) * step_at(support, values, p.times[j])
            total += a * ((qs[j + 1][0] - qs[j][0]) - (qs[j + 1][1] - qs[j][1]))
        t_last = p.times[-1]
        a = weight_at(t_last) * step_at(support, values, t_last)
        total += a * ((1.0 - qs[-1][0]) - (1.0 - qs[-1][1]))
    return total / np.sqrt(d.n)


def loglik_hessian_direct(d, u):
    """Dense Hessian of the Poisson panel log-likelihood in the values ``u``
    at the pooled grid points, by per-subject loops.

    An interval (s, t] with dn > 0 events adds dn * log(u(t) - u(s)), so it
    contributes -dn / du^2 to the (t, t) and (s, s) entries and +dn / du^2
    to (s, t) and (t, s); u(0) = 0 is fixed and has no row.  The exposure
    term -u(t_last) is linear and adds nothing.
    """
    grid = np.unique(np.concatenate([p.times for p in d.paths]))
    rank = {t: i for i, t in enumerate(grid)}
    h = np.zeros((grid.size, grid.size))
    for p in d.paths:
        prev = None
        prev_c = 0.0
        for t, c in zip(p.times, p.counts):
            dn = c - prev_c
            i = rank[t]
            du = u[i] - (u[prev] if prev is not None else 0.0)
            if dn > 0:
                w = dn / du**2
                h[i, i] -= w
                if prev is not None:
                    h[prev, prev] -= w
                    h[i, prev] += w
                    h[prev, i] += w
            prev, prev_c = i, c
    return h


def npmle_full_grid(d, cfg):
    """The NPMLE solved over every grid point: the modified ICM loop and its
    Newton polish as they were before the solve moved to the likelihood's
    support, built on the library's per-row helpers.  The polish holds a
    first block at the origin and every block of zero curvature.  Returns
    ``(StepEstimate, SolveDiagnostics)``."""

    def newton_polish(rows, u, du, ll, max_halvings):
        jumps = u[1:] != u[:-1]
        block_id = np.concatenate([[0], np.cumsum(jumps)])
        n_blocks = int(block_id[-1]) + 1
        g, w = _score_and_weights(rows, du)
        g_red = np.bincount(block_id, weights=g, minlength=n_blocks)
        size = n_blocks + 1
        slot = np.concatenate([[0], block_id + 1])
        a, b = slot[rows.rank + 1], slot[rows.prev_slot]
        pairs = np.concatenate([a * size + a, b * size + b, a * size + b, b * size + a])
        neg_h = np.bincount(pairs, weights=np.concatenate([w, w, -w, -w]), minlength=size * size)
        neg_h = neg_h.reshape(size, size)[1:, 1:]
        v = u[np.concatenate([[0], np.flatnonzero(jumps) + 1])]
        free = np.diagonal(neg_h) > 0
        free[0] &= v[0] > 0
        dv = np.zeros(n_blocks)
        try:
            dv[free] = np.linalg.solve(neg_h[free][:, free], g_red[free])
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

    grid = build_time_grid(d)
    flat = flatten_observations(d)
    pm = _npmple_flat(grid, flat)
    m = grid.m
    n = flat.n_subjects
    rows = _event_rows(flat)
    u = pm.values + _INIT_SLOPE_EPSILON * np.arange(1, m + 1)
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
        u, du, ll, polished = newton_polish(rows, u, du, ll, _MAX_HALVINGS)
        if polished:
            trace.append(ll)
        moved = np.max(np.abs(u - u_start)) > 1e-14 * max(1.0, float(u_start[-1]))
        if not moved:
            status = "converged" if certs_ok else "boundary-origin" if kkt_ok else "stalled"
            break
        rel_change = (ll - ll_start) / (1.0 + abs(ll_start))
    else:
        g, _ = _score_and_weights(rows, du)
        _, residual, _ = _certificates(g, u, n, cfg.fenchel_tol)
    estimate = StepEstimate(support=grid.points, values=np.maximum.accumulate(np.maximum(u, 0.0)))
    diag = SolveDiagnostics(
        iterations=iterations,
        loglik=ll,
        fenchel_residual=residual,
        status=status,
        loglik_trace=tuple(trace),
    )
    return estimate, diag
