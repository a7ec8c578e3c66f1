"""Workloads of the panelcount benchmark: their inputs, one operation each,
and the checks on what the program returns.

Two Monte Carlo workloads run blocks of replications through
``run_power_study``; one analysis workload reads a large continuous-time
dataset from CSV and runs the two-sample tests on it.  Inputs depend only on
the workload seed.  ``check_reference`` compares the program's outputs at the
fixed ``REFERENCE_SEED`` with ``reference.json``, recorded by
``record_reference.py``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module objects, never through names imported from
# them, so that the tracer's rebinding of module attributes sees every call.
import panelcount as pc
from panelcount import cli

REFERENCE_SEED = 20090415
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

NAMED_ERRORS = (
    pc.SolverConvergenceError,
    pc.IncrementMismatchError,
    pc.DegenerateCovarianceError,
    pc.DegenerateVarianceError,
)


class BenchmarkError(Exception):
    """The program returned something the benchmark's checks reject."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BenchmarkError(message)


@dataclass(frozen=True)
class Outcome:
    """What one operation did: work units attempted, units failed with a
    named error, and a signature of its outputs for exact comparison."""

    units: int
    failed: int
    signature: tuple


@dataclass(frozen=True)
class MonteCarloSpec:
    name: str
    case: int
    beta: float
    group_sizes: tuple[int, ...]
    nu_mode: str
    weights: tuple[str, ...]
    statistics: tuple[str, ...]
    reps_per_op: int
    reference_reps: int


@dataclass(frozen=True)
class AnalysisSpec:
    name: str
    subjects_per_group: int
    max_visits: int
    horizon: float
    beta: float
    weights: tuple[str, ...]
    # Solver time depends on the data (grid size, tie blocks), so operations
    # cycle over several datasets to keep a run's figures steady across seeds.
    datasets: int


def _mc_specs(sizes: int, reps_per_op: int, reference_reps: int) -> list[MonteCarloSpec]:
    return [
        MonteCarloSpec(
            name="mc_power_2s",
            case=1,
            beta=0.2,
            group_sizes=(sizes, sizes),
            nu_mode="fixed",
            weights=("w1", "w2", "w3", "w4"),
            statistics=("t1", "t2"),
            reps_per_op=reps_per_op,
            reference_reps=reference_reps,
        ),
        MonteCarloSpec(
            name="mc_chi2_k3",
            case=1,
            beta=0.0,
            group_sizes=(sizes, sizes, sizes),
            nu_mode="gamma",
            weights=("const", "pooled-risk", "complement", "group-risk:3"),
            statistics=("chi2-u", "chi2-v"),
            reps_per_op=reps_per_op,
            reference_reps=reference_reps,
        ),
    ]


def _analysis_spec(subjects_per_group: int, datasets: int) -> AnalysisSpec:
    return AnalysisSpec(
        name="analysis_large_m",
        subjects_per_group=subjects_per_group,
        max_visits=10,
        horizon=10.0,
        beta=0.2,
        weights=("w1", "w2", "w3", "w4"),
        datasets=datasets,
    )


# Full size is what the benchmark measures; tiny size keeps the self-test fast.
SPECS = {s.name: s for s in _mc_specs(50, 10, 50) + [_analysis_spec(150, 4)]}
TINY_SPECS = {s.name: s for s in _mc_specs(10, 2, 4) + [_analysis_spec(15, 2)]}


def op_seed(seed: int, index: int) -> int:
    """Seed of the replication block run by operation ``index`` (Monte Carlo)
    or of dataset ``index`` (analysis)."""
    return seed * 1_000_000 + index


class MonteCarlo:
    """Each operation is one ``run_power_study`` call over a block of
    ``reps_per_op`` replications with its own base seed."""

    unit = "replication"

    def __init__(self, spec: MonteCarloSpec, seed: int):
        self.spec = spec
        self.seed = seed
        k = len(spec.group_sizes)
        self.weight_specs = tuple(cli.parse_weight_spec(w, k) for w in spec.weights)

    def _run(self, base_seed: int, replications: int):
        cfg = pc.SimConfig(
            case=self.spec.case,
            beta=self.spec.beta,
            group_sizes=self.spec.group_sizes,
            nu_mode=self.spec.nu_mode,
            replications=replications,
            base_seed=base_seed,
            weight_specs=self.weight_specs,
            statistics=self.spec.statistics,
        )
        rows = pc.run_power_study([cfg])
        expected = [(s, w.name) for s in self.spec.statistics for w in self.weight_specs]
        _require(
            [(r.statistic, r.weight) for r in rows] == expected,
            f"{self.spec.name}: rows {[(r.statistic, r.weight) for r in rows]} != {expected}",
        )
        failures = rows[0].failures
        for r in rows:
            _require(r.replications == replications, f"{self.spec.name}: wrong replication count")
            _require(r.failures == failures, f"{self.spec.name}: failure counts differ between rows")
            valid = replications - failures
            _require(0 <= r.rejections <= valid, f"{self.spec.name}: rejections outside 0..{valid}")
            if valid:
                _require(r.reject_rate == r.rejections / valid, f"{self.spec.name}: inconsistent reject_rate")
        return Outcome(
            units=replications,
            failed=failures,
            signature=tuple((r.statistic, r.weight, r.rejections, r.failures) for r in rows),
        )

    def op(self, op_index: int) -> Outcome:
        return self._run(op_seed(self.seed, op_index), self.spec.reps_per_op)

    def reference(self) -> dict:
        out = self._run(REFERENCE_SEED, self.spec.reference_reps)
        return {"replications": self.spec.reference_reps, "rows": [list(r) for r in out.signature]}

    def check_reference(self, recorded: dict) -> None:
        got = self.reference()
        _require(
            got == recorded,
            f"{self.spec.name}: rejections/failures at seed {REFERENCE_SEED} are {got['rows']}, "
            f"reference {recorded['rows']}",
        )


def write_analysis_csv(spec: AnalysisSpec, seed: int, path: Path) -> None:
    """Two groups of subjects with 1..max_visits visits at continuous
    U(0, horizon] times and Poisson counts with mean t (group 1) and
    t * exp(beta) (group 2).

    Visit counts are a random permutation of 1..max_visits repeated over the
    group, so every dataset has the same grid size m.  Solve time grows with
    m, and a uniform draw per subject would make it swing by a third between
    seeds."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "group", "time", "count"])
        for group, scale in ((1, 1.0), (2, math.exp(spec.beta))):
            cycle = np.arange(1, spec.max_visits + 1)
            visits = rng.permutation(np.resize(cycle, spec.subjects_per_group))
            for i, n_visits in enumerate(visits):
                times = np.sort(spec.horizon * (1.0 - rng.random(n_visits)))
                counts = np.cumsum(rng.poisson(scale * np.diff(times, prepend=0.0)))
                for t, c in zip(times, counts):
                    writer.writerow([f"g{group}s{i}", group, repr(float(t)), int(c)])


class Analysis:
    """Each operation is one analysis of a CSV file: read, validate, fit all
    NPMLEs once, then the two-sample tests for every weight.  Operation ``i``
    analyses dataset ``i`` modulo the number of datasets."""

    unit = "analysis"

    def __init__(self, spec: AnalysisSpec, seed: int, out_dir: Path):
        self.spec = spec
        self.out_dir = out_dir
        stem = f"{spec.name}-n{spec.subjects_per_group}-seed{seed}"
        self.paths = [out_dir / f"{stem}-{j}.csv" for j in range(spec.datasets)]
        for j, path in enumerate(self.paths):
            write_analysis_csv(spec, op_seed(seed, j), path)
        self.weight_specs = tuple(cli.parse_weight_spec(w, 2) for w in spec.weights)

    def op(self, op_index: int) -> Outcome:
        d = cli.read_dataset_csv(str(self.paths[op_index % len(self.paths)]))
        report = pc.validate_dataset(d)
        _require(report.ok, f"{self.spec.name}: generated dataset invalid: {report.errors}")
        try:
            fits = pc.fit_all(d)
            reports = [pc.two_sample_tests(d, w, fits=fits) for w in self.weight_specs]
        except pc.SolverConvergenceError as exc:
            diag = exc.diagnostics
            trace = np.asarray(diag.loglik_trace)
            _require(
                bool(np.all(np.isfinite(trace))) and bool(np.all(np.diff(trace) >= 0)),
                f"{self.spec.name}: loglik trace of the failed solve is not finite and nondecreasing",
            )
            return Outcome(1, 1, ("SolverConvergenceError", diag.iterations, diag.loglik))
        except NAMED_ERRORS as exc:
            return Outcome(1, 1, (type(exc).__name__,))
        stats = []
        for r in reports:
            for name in ("T1", "T2"):
                stat, p = r.statistics[name], r.p_values[name]
                _require(math.isfinite(stat) and 0.0 <= p <= 1.0, f"{self.spec.name}: bad {name}")
                stats.append(stat)
        return Outcome(1, 0, ("ok", *stats))

    def reference(self) -> dict:
        """Pooled NPMLE of the reference dataset, checked as it is computed."""
        path = self.out_dir / f"{self.spec.name}-n{self.spec.subjects_per_group}-reference.csv"
        write_analysis_csv(self.spec, REFERENCE_SEED, path)
        d = cli.read_dataset_csv(str(path))
        est, diag = pc.npmle(d)
        values = est.values
        _require(bool(np.all(np.isfinite(values))), f"{self.spec.name}: non-finite NPMLE values")
        _require(bool(np.all(np.diff(values) >= 0)), f"{self.spec.name}: NPMLE values decrease")
        _require(
            bool(np.all(np.diff(diag.loglik_trace) >= 0)),
            f"{self.spec.name}: loglik trace decreases",
        )
        ll_mle = pc.log_likelihood(d, est)
        ll_mple = pc.log_likelihood(d, pc.npmple(d))
        _require(
            ll_mle >= ll_mple - 1e-9,
            f"{self.spec.name}: NPMLE loglik {ll_mle!r} below NPMPLE loglik {ll_mple!r}",
        )
        _require(
            not diag.converged or diag.fenchel_residual <= pc.IcmConfig().fenchel_tol,
            f"{self.spec.name}: converged with Fenchel residual {diag.fenchel_residual!r}",
        )
        return {
            "loglik": ll_mle,
            "m": int(values.size),
            "iterations": diag.iterations,
            "converged": diag.converged,
        }

    def check_reference(self, recorded: dict) -> None:
        got = self.reference()
        _require(got["m"] == recorded["m"], f"{self.spec.name}: grid size {got['m']} != {recorded['m']}")
        floor = recorded["loglik"] - 1e-6 * abs(recorded["loglik"])
        _require(
            got["loglik"] >= floor,
            f"{self.spec.name}: NPMLE loglik {got['loglik']!r} more than 1e-6 below the "
            f"reference {recorded['loglik']!r}",
        )


def build(name: str, seed: int, tiny: bool, out_dir: Path):
    """The workload's inputs, ready for its first operation."""
    spec = (TINY_SPECS if tiny else SPECS)[name]
    if isinstance(spec, MonteCarloSpec):
        return MonteCarlo(spec, seed)
    return Analysis(spec, seed, out_dir)


def reference_key(name: str, tiny: bool) -> str:
    return f"{name}@tiny" if tiny else name
