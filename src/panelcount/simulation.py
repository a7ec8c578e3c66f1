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

Both studies read a replication one way (``_replication_reading``): one
fit of the NPMLEs, one call of the statistic kernel in ``hypotests`` for U,
V and sigma^2 of every weight, and one call of the tests' reader per method
for the statistics and p-values, equal to those of the public tests run one
weight at a time.  The power study counts rejections from the p-values, the
QQ study sorts the statistics.  For either study a failing replication is
replayed through the public tests, excluded and counted by cause, as
``hypotests.FAILURE_CAUSES`` names them.

Chi-square p-values come from ``hypotests.chisq_sf`` and ``qq_study``'s
normal quantiles from ``statistics.NormalDist``: the runtime dependencies
are numpy and click.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import ObservationPath, PanelDataset, _is_integer
from .hypotests import (
    FAILURE_CAUSES,
    _read,
    _statistics,
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
    "ThreadCountError",
    "mean_for_group",
    "sample_subject",
    "generate_dataset",
    "run_power_study",
    "qq_study",
]

OBSERVATION_TIMES = np.arange(1, 11)
_OBSERVATION_TIMES_F = OBSERVATION_TIMES.astype(float)

# Each statistic name: the method of the test that reports it, and its key
# in that report's statistics and p-values.
_STATISTICS = {
    "t1": ("two-sample-T12", "T1"),
    "t2": ("two-sample-T12", "T2"),
    "chi2-u": ("U-test", "chi2"),
    "chi2-v": ("V-test", "chi2"),
}


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
        if not _is_integer(self.case) or self.case not in (1, 2):
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
        sizes = (("group size", s) for s in self.group_sizes)
        for name, value in (("replications", self.replications), ("base_seed", self.base_seed), *sizes):
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "group_sizes", tuple(int(s) for s in self.group_sizes))
        object.__setattr__(self, "weight_specs", tuple(self.weight_specs))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.group_sizes:
            raise ValueError("group_sizes must hold at least one group")
        if not self.weight_specs:
            raise ValueError("weight_specs must hold at least one weight")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if self.nu_mode not in ("fixed", "gamma"):
            raise ValueError("nu_mode must be 'fixed' or 'gamma'")
        if any(s < 1 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        k = len(self.group_sizes)
        for spec in self.weight_specs:
            if spec.group is not None and not (1 <= spec.group <= k):
                raise ValueError(f"weight group {spec.group} outside 1..{k}")
        for stat in self.statistics:
            if stat not in _STATISTICS:
                raise ValueError(f"unknown statistic {stat!r}")
            if _STATISTICS[stat][0] == "two-sample-T12" and k != 2:
                raise ValueError(f"statistic {stat} requires exactly 2 groups")
            if k < 2:
                raise ValueError(f"statistic {stat} requires at least 2 groups")
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
    last four fields split it by cause, in ``FAILURE_CAUSES`` order.
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


def _replication_reading(cfg: SimConfig, replication_index: int) -> np.ndarray:
    """Statistics and p-values of one replication, shape (2, statistics,
    weights), from one statistic-kernel call and one call of the tests'
    reader (``_read``) per method, so T1 and T2 share a reading.  A failure
    is replayed through the public tests, one weight at a time in
    weight-major order as they run, until one raises; callers of the public
    tests, the benchmark's tracer among them, see it there.
    """
    d = generate_dataset(cfg, replication_index)
    fits = fit_all(d)
    stats = [_STATISTICS[stat] for stat in cfg.statistics]
    try:
        _, _, u, v, sigma2 = _statistics(d, cfg.weight_specs, fits)
        readings = {m: _read(m, d, u, v, sigma2)[:2] for m in dict.fromkeys(m for m, _ in stats)}
    except tuple(FAILURE_CAUSES):
        for spec in cfg.weight_specs:
            for method, _ in stats:
                _public_test(method)(d, spec, fits=fits)
        raise
    return np.array([[readings[method][part][key] for method, key in stats] for part in (0, 1)])


def _public_test(method: str):
    """The public test function of a method, looked up at call time."""
    if method == "two-sample-T12":
        return two_sample_tests
    return chi2_u_test if method == "U-test" else chi2_v_test


def _replication_worker(job):
    """The reading of a job ``(cfg, rep)`` (``_replication_reading``), or the
    cause name of its failure."""
    try:
        return _replication_reading(*job)
    except tuple(FAILURE_CAUSES) as exc:
        return FAILURE_CAUSES[type(exc)]


def _thread_count() -> int:
    raw = os.environ.get("PCT_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ThreadCountError(f"PCT_THREADS must be an integer, got {raw!r}") from None


# The process pool class, imported by the first parallel map
# (``_map_replications``).
ProcessPoolExecutor = None


def _map_replications(cfg: SimConfig, worker):
    """``worker`` over every replication of ``cfg``, in order, on
    ``PCT_THREADS`` processes but no more than there are replications."""
    global ProcessPoolExecutor
    jobs = [(cfg, rep) for rep in range(cfg.replications)]
    threads = min(_thread_count(), cfg.replications)
    if threads > 1:
        # imported here so that importing panelcount or a serial run does not
        # pay for the process pool
        if ProcessPoolExecutor is None:
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, cfg.replications // (8 * threads))
            return list(pool.map(worker, jobs, chunksize=chunk))
    return [worker(job) for job in jobs]


def _run_replications(cfg: SimConfig):
    """Every replication of ``cfg``: the readings of those that did not fail,
    in order, stacked to shape (R, 2, statistics, weights), and the number
    of failures of each cause, in ``FAILURE_CAUSES`` order."""
    results = _map_replications(cfg, _replication_worker)
    failed = [r for r in results if isinstance(r, str)]
    causes = {cause: failed.count(cause) for cause in FAILURE_CAUSES.values()}
    valid = [r for r in results if not isinstance(r, str)]
    return np.reshape(valid, (-1, 2, len(cfg.statistics), len(cfg.weight_specs))), causes


def run_power_study(cfgs) -> list[PowerRow]:
    """Rejection fractions over the study grid, one row per (statistic, weight).

    Replications whose solves fail (non-convergence or degenerate statistics)
    are excluded and counted; a cell with more than 1% failures is suspect.
    """
    rows: list[PowerRow] = []
    for cfg in cfgs:
        if not cfg.statistics:
            raise ValueError("run_power_study needs at least one statistic")
        readings, causes = _run_replications(cfg)
        failures = sum(causes.values())
        rejections = (readings[:, 1] < cfg.alpha).sum(axis=0)
        n_valid = len(readings)
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


def qq_study(cfg: SimConfig) -> tuple[np.ndarray, dict[str, int]]:
    """Null replicate values of the two-sample statistic ``cfg.statistics``,
    which must be ``("t1",)`` or ``("t2",)``, under the one weight of
    ``cfg.weight_specs``, against standard-normal quantiles; returns an
    (R, 2) array (theoretical, ordered empirical) over the R replications
    that did not fail, and the failures by cause."""
    if cfg.beta != 0.0:
        raise ValueError("qq_study requires the null design beta = 0")
    if cfg.statistics not in (("t1",), ("t2",)):
        raise ValueError(f"qq_study takes one two-sample statistic, t1 or t2, got {cfg.statistics}")
    if len(cfg.weight_specs) != 1:
        raise ValueError(f"qq_study takes one weight, got {len(cfg.weight_specs)}")
    readings, failures = _run_replications(cfg)
    values = np.sort(readings[:, 0, 0, 0])
    # imported here so that importing panelcount does not pay for the statistics module
    from statistics import NormalDist

    r = values.size
    theoretical = np.array([NormalDist().inv_cdf((i - 0.5) / r) for i in range(1, r + 1)])
    return np.column_stack([theoretical, values]), failures
