"""Monte Carlo data generation and size/power studies.

Panel count data mimicking medical follow-up studies: each subject has a
uniform number of visits on {1,...,10} at distinct integer times, and counts
from a (mixed) Poisson process whose mean function is either proportional
between groups (case 1) or crossing (case 2).  Replications draw from
independent streams derived from (base seed, replication index), so serial
and parallel runs produce identical results.

``generate_dataset`` writes each subject's draws straight into the columns
of an immutable ``PanelDataset``; no per-subject path object is built.  Its
``paths`` are a view built on first read, equal to the paths
``sample_subject`` draws from the same stream: both make their draws through
one helper.

A replication fits its NPMLEs once and gets U, V and sigma^2 for every
weight from one call of the statistic kernel in ``hypotests``; its p-values
equal those of the public tests run one weight at a time.  A replication
that fails is excluded from the rejection fractions and counted by cause
(``FAILURE_CAUSES``).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate

import numpy as np
from scipy.special import ndtri

from .core import ObservationPath, PanelDataset
from .estimators import IcmConfig
from .hypotests import (
    DegenerateCovarianceError,
    DegenerateVarianceError,
    IncrementMismatchError,
    SolverConvergenceError,
    _chi2,
    _statistics,
    _two_sample,
    chi2_u_test,
    chi2_v_test,
    fit_all,
    two_sample_tests,
)
from .weights import WeightKind, WeightSpec

__all__ = [
    "OBSERVATION_TIMES",
    "TrueMean",
    "SimConfig",
    "PowerRow",
    "FAILURE_CAUSES",
    "ThreadCountError",
    "mean_for_group",
    "sample_subject",
    "generate_dataset",
    "run_power_study",
    "qq_study",
]

OBSERVATION_TIMES = np.arange(1, 11)
_OBSERVATION_TIMES_F = OBSERVATION_TIMES.astype(float)

_TWO_SAMPLE_STATS = ("t1", "t2")
_CHI2_METHODS = {"chi2-u": "U-test", "chi2-v": "V-test"}

# Why a replication fails, by the error its solves or statistics raise; the
# cause names are PowerRow fields and ``simulate`` CSV columns.
FAILURE_CAUSES = {
    SolverConvergenceError: "solver_convergence",
    IncrementMismatchError: "increment_mismatch",
    DegenerateCovarianceError: "degenerate_covariance",
    DegenerateVarianceError: "degenerate_variance",
}
_STATISTIC_ERRORS = (IncrementMismatchError, DegenerateCovarianceError, DegenerateVarianceError)


class ThreadCountError(ValueError):
    """``PCT_THREADS`` is set to something other than an integer."""


@dataclass(frozen=True)
class TrueMean:
    """Conditional mean function Lambda(t | nu = 1) of one group.

    Group 1 is the baseline t; group 2 is t*exp(beta) in case 1 and
    sqrt(beta*t) in case 2 (the crossing design, meeting the baseline at
    t = beta).  Any further groups use the baseline, which supports null
    calibration studies with k > 2.
    """

    case: int
    beta: float
    group: int

    def __post_init__(self):
        if self.case not in (1, 2):
            raise ValueError("case must be 1 or 2")
        if self.case == 2 and self.group == 2 and self.beta < 0:
            raise ValueError("case 2 requires beta >= 0")

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if self.group == 2:
            if self.case == 1:
                out = t_arr * np.exp(self.beta)
            else:
                out = np.sqrt(self.beta * t_arr)
        else:
            out = t_arr
        if np.ndim(t) == 0:
            return float(out)
        return out


def mean_for_group(case: int, beta: float, group: int) -> TrueMean:
    return TrueMean(case=case, beta=beta, group=group)


@dataclass(frozen=True)
class SimConfig:
    """One cell of a simulation study."""

    case: int = 1
    beta: float = 0.0
    group_sizes: tuple[int, ...] = (50, 50)
    nu_mode: str = "fixed"
    replications: int = 1000
    base_seed: int = 0
    weight_specs: tuple[WeightSpec, ...] = (WeightSpec(WeightKind.CONST),)
    statistics: tuple[str, ...] = ("t2",)
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(s) for s in self.group_sizes))
        object.__setattr__(self, "weight_specs", tuple(self.weight_specs))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.nu_mode not in ("fixed", "gamma"):
            raise ValueError("nu_mode must be 'fixed' or 'gamma'")
        if any(s < 1 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        k = len(self.group_sizes)
        for stat in self.statistics:
            if stat in _TWO_SAMPLE_STATS and k != 2:
                raise ValueError(f"statistic {stat} requires exactly 2 groups")
            if stat in _CHI2_METHODS and k < 2:
                raise ValueError(f"statistic {stat} requires at least 2 groups")
            if stat not in _TWO_SAMPLE_STATS and stat not in _CHI2_METHODS:
                raise ValueError(f"unknown statistic {stat!r}")
        if not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        # Lambda(10), the mean of a draw over (0, 10], is a group's largest visit mean
        largest = max(_visit_means(mean_for_group(self.case, self.beta, l))[-1] for l in range(1, k + 1))
        try:
            np.random.default_rng(0).poisson(largest)
        except ValueError:
            raise ValueError(
                f"beta = {self.beta} gives a visit mean of {largest:.3g}, "
                "more than numpy's Poisson sampler accepts"
            ) from None


@dataclass(frozen=True)
class PowerRow:
    """Monte Carlo rejection fraction for one (statistic, weight) pair.

    ``failures`` counts the replications excluded from the fraction; the
    last four fields split it by cause (see ``FAILURE_CAUSES``).
    """

    case: int
    beta: float
    group_sizes: tuple[int, ...]
    nu_mode: str
    replications: int
    base_seed: int
    alpha: float
    statistic: str
    weight: str
    rejections: int
    failures: int
    reject_rate: float
    suspect: bool
    solver_convergence: int
    increment_mismatch: int
    degenerate_covariance: int
    degenerate_variance: int


def _replication_rng(base_seed: int, replication_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(replication_index,))
    )


def _visit_means(tm: TrueMean) -> np.ndarray:
    """Lambda at every visit time, as ``tm`` gives it on ``OBSERVATION_TIMES``."""
    return tm(OBSERVATION_TIMES.astype(float))


def _draw_subject(means: np.ndarray, nu_mode: str, rng: np.random.Generator):
    """One subject's visits, as sorted indices into ``OBSERVATION_TIMES``,
    and its cumulative counts; ``means`` from ``_visit_means``.  A
    replication's random stream is the sequence of these draws, subject by
    subject."""
    k_i = int(rng.integers(1, 11))
    # Indices into OBSERVATION_TIMES take the variates a draw from the array
    # itself takes.
    visits = rng.choice(OBSERVATION_TIMES.size, size=k_i, replace=False)
    visits.sort()
    nu = 1.0 if nu_mode == "fixed" else float(rng.gamma(shape=2.0, scale=0.5))
    cum = means[visits].tolist()
    # One draw per visit in visit order: the variates, and the order, of one
    # draw over the array of these Poisson means, at a fraction of its cost.
    increments = [rng.poisson(nu * (c - p)) for c, p in zip(cum, [0.0, *cum[:-1]])]
    return visits, list(accumulate(increments))


def sample_subject(
    tm: TrueMean,
    nu_mode: str,
    rng: np.random.Generator,
    subject_id: str = "s",
) -> ObservationPath:
    """Draw one subject: visit count on U{1..10}, distinct integer visit times,
    and cumulative counts from independent Poisson increments with means
    nu * (Lambda(t_j) - Lambda(t_{j-1}))."""
    visits, counts = _draw_subject(_visit_means(tm), nu_mode, rng)
    return ObservationPath(
        subject_id=subject_id,
        group=tm.group,
        times=_OBSERVATION_TIMES_F[visits],
        counts=np.array(counts, dtype=float),
    )


def generate_dataset(cfg: SimConfig, replication_index: int) -> PanelDataset:
    """The dataset of replication ``replication_index``; fully determined by
    (base seed, replication index).  Subject ``i`` of group ``l`` has the id
    ``g{l}s{i}`` and the draws ``sample_subject`` makes, written into the
    dataset's columns."""
    rng = _replication_rng(cfg.base_seed, replication_index)
    visits, counts, ids = [], [], []
    for group, size in enumerate(cfg.group_sizes, start=1):
        means = _visit_means(mean_for_group(cfg.case, cfg.beta, group))
        for i in range(size):
            subject_visits, subject_counts = _draw_subject(means, cfg.nu_mode, rng)
            visits.append(subject_visits)
            counts.extend(subject_counts)
            ids.append(f"g{group}s{i}")
    k = len(cfg.group_sizes)
    return PanelDataset.from_columns(
        times=_OBSERVATION_TIMES_F[np.concatenate(visits)],
        counts=counts,
        sizes=[v.size for v in visits],
        groups=np.repeat(np.arange(1, k + 1), cfg.group_sizes),
        subject_ids=ids,
        k=k,
    )


def _replication_pvalues(cfg: SimConfig, replication_index: int) -> np.ndarray:
    """p-value matrix of one replication, shape (statistics, weights).

    One statistic-kernel call gives U, V and sigma^2 for every weight; each
    p-value is read from its weight's row in weight-major order, so a
    failing replication raises the error the public tests raise first.
    """
    d = generate_dataset(cfg, replication_index)
    fits = fit_all(d)
    try:
        _, _, u, v, sigma2 = _statistics(d, cfg.weight_specs, IcmConfig(), fits)
        out = np.empty((len(cfg.statistics), len(cfg.weight_specs)))
        for w_idx in range(len(cfg.weight_specs)):
            row = (u[w_idx], v[w_idx], sigma2[w_idx])
            two_sample = None
            for s_idx, stat in enumerate(cfg.statistics):
                if stat in _TWO_SAMPLE_STATS:
                    if two_sample is None:
                        two_sample = _two_sample(*row, d.group_sizes, d.n)[1]
                    out[s_idx, w_idx] = two_sample[stat.upper()]
                else:
                    out[s_idx, w_idx] = _chi2(_CHI2_METHODS[stat], *row, d.group_sizes)[1]
    except _STATISTIC_ERRORS:
        # Rare: replay the replication through the public tests, one weight
        # at a time.  They raise the same error, and raise it where callers
        # of those tests, the benchmark's tracer among them, see it.
        for spec in cfg.weight_specs:
            for stat in cfg.statistics:
                _public_test(stat)(d, spec, fits=fits)
        raise
    return out


def _public_test(stat: str):
    """The public test function of a statistic name, looked up at call time."""
    if stat in _TWO_SAMPLE_STATS:
        return two_sample_tests
    return chi2_u_test if stat == "chi2-u" else chi2_v_test


def _replication_worker(args):
    """A replication's p-value matrix, or the cause name of its failure."""
    cfg, rep = args
    try:
        return _replication_pvalues(cfg, rep)
    except tuple(FAILURE_CAUSES) as exc:
        return FAILURE_CAUSES[type(exc)]


def _thread_count() -> int:
    raw = os.environ.get("PCT_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ThreadCountError(f"PCT_THREADS must be an integer, got {raw!r}") from None


# Set in each worker process of a parallel map; see ``_map_replications``.
_stop_event = None


def _init_worker(stop) -> None:
    global _stop_event
    _stop_event = stop


def _unless_stopped(worker, job):
    """``worker(job)``, or None once the parent has seen a replication fail."""
    if _stop_event.is_set():
        return None
    return worker(job)


def _map_replications(cfg: SimConfig, worker):
    """``worker`` over every replication of ``cfg``, in order, on
    ``PCT_THREADS`` processes but no more than there are replications.  A
    failure raises as soon as every earlier replication has returned, as in
    a serial run: ``Executor.map`` then drops the chunks no worker holds, and
    the stop event makes the held chunks skip their remaining replications."""
    jobs = [(cfg, rep) for rep in range(cfg.replications)]
    threads = min(_thread_count(), cfg.replications)
    if threads > 1:
        stop = multiprocessing.Event()
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_worker, initargs=(stop,)
        ) as pool:
            chunk = max(1, cfg.replications // (8 * threads))
            try:
                return list(pool.map(partial(_unless_stopped, worker), jobs, chunksize=chunk))
            except BaseException:
                stop.set()
                raise
    return [worker(job) for job in jobs]


def run_power_study(cfgs) -> list[PowerRow]:
    """Rejection fractions over the study grid, one row per (statistic, weight).

    Replications whose solves fail (non-convergence or degenerate statistics)
    are excluded and counted; a cell with more than 1% failures is suspect.
    """
    rows: list[PowerRow] = []
    for cfg in cfgs:
        if not cfg.statistics:
            raise ValueError("run_power_study needs at least one statistic")
        results = _map_replications(cfg, _replication_worker)
        failed = [r for r in results if isinstance(r, str)]
        causes = {cause: failed.count(cause) for cause in FAILURE_CAUSES.values()}
        valid = [r for r in results if not isinstance(r, str)]
        failures = len(failed)
        rejections = np.zeros((len(cfg.statistics), len(cfg.weight_specs)), dtype=int)
        if valid:
            rejections = np.sum([r < cfg.alpha for r in valid], axis=0)
        n_valid = len(valid)
        suspect = failures > 0.01 * cfg.replications
        for s_idx, stat in enumerate(cfg.statistics):
            for w_idx, spec in enumerate(cfg.weight_specs):
                rej = int(rejections[s_idx, w_idx])
                rows.append(
                    PowerRow(
                        case=cfg.case,
                        beta=cfg.beta,
                        group_sizes=cfg.group_sizes,
                        nu_mode=cfg.nu_mode,
                        replications=cfg.replications,
                        base_seed=cfg.base_seed,
                        alpha=cfg.alpha,
                        statistic=stat,
                        weight=spec.name,
                        rejections=rej,
                        failures=failures,
                        reject_rate=rej / n_valid if n_valid else float("nan"),
                        suspect=suspect,
                        **causes,
                    )
                )
    return rows


def _qq_worker(args):
    cfg, rep = args
    d = generate_dataset(cfg, rep)
    report = two_sample_tests(d, cfg.weight_specs[0])
    return report.statistics[cfg.statistics[0].upper()]


def qq_study(cfg: SimConfig, statistic: str = "t2") -> np.ndarray:
    """Null replicate values of a two-sample statistic against standard-normal
    quantiles; returns an (R, 2) array (theoretical, ordered empirical)."""
    if cfg.beta != 0.0:
        raise ValueError("qq_study requires the null design beta = 0")
    if statistic not in _TWO_SAMPLE_STATS:
        raise ValueError("qq_study supports the two-sample statistics t1 and t2")
    cfg = replace(cfg, weight_specs=cfg.weight_specs[:1], statistics=(statistic,))
    values = np.sort(np.asarray(_map_replications(cfg, _qq_worker), dtype=float))
    r = cfg.replications
    theoretical = ndtri((np.arange(1, r + 1) - 0.5) / r)
    return np.column_stack([theoretical, values])
