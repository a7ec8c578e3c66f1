"""Command-line front door: validation, estimation, testing, and simulation.

Datasets are long-format CSV files with header ``subject,group,time,count``,
one row per visit, counts cumulative.  Reports are JSON; tabular output is
CSV.  Exit statuses: 0 success, 1 validation failure, 2 usage/IO error,
3 solver non-convergence, 4 degenerate statistics.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict

import click
import numpy as np

from .core import (
    PanelDataset,
    restrict_to_group,
    validate_dataset,
)
from .estimators import log_likelihood, npmle, npmple
from .hypotests import (
    DegenerateCovarianceError,
    DegenerateVarianceError,
    IncrementMismatchError,
    SolverConvergenceError,
    TestReport,
    chi2_u_test,
    chi2_v_test,
    two_sample_tests,
)
from .simulation import FAILURE_CAUSES, SimConfig, ThreadCountError, qq_study, run_power_study
from .weights import WeightKind, WeightSpec

__all__ = [
    "main",
    "DatasetFormatError",
    "read_dataset_csv",
    "write_dataset_csv",
    "parse_weight_spec",
    "report_to_dict",
    "report_from_dict",
]

_REQUIRED_COLUMNS = ("subject", "group", "time", "count")

_WEIGHT_ALIASES = {
    "w1": "const",
    "w2": "pooled-risk",
    "w3": "risk-product:2",
    "w4": "complement",
}


class DatasetFormatError(Exception):
    """The file cannot be parsed into a panel count dataset."""


def read_dataset_csv(path: str) -> PanelDataset:
    """Parse a DatasetFile; structural validity is checked separately.

    Columns are found by header name, in any order; other columns are
    ignored, and a repeated name reads its last column.  Blank lines are
    skipped and do not count in the line numbers of error messages.  Each
    subject's rows are sorted by (time, count).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _REQUIRED_COLUMNS if c not in header]
        if missing:
            raise DatasetFormatError(f"missing header column(s): {', '.join(missing)}")
        column = {name: i for i, name in enumerate(header)}
        i_subject, i_group, i_time, i_count = (column[c] for c in _REQUIRED_COLUMNS)
        by_subject: dict[str, tuple[int, list]] = {}
        for lineno, row in enumerate(filter(None, reader), start=2):
            try:
                subject = row[i_subject].strip()
                group_raw = float(row[i_group])
                time = float(row[i_time])
                count = float(row[i_count])
                group = int(group_raw)
            except (IndexError, ValueError, OverflowError) as exc:
                raise DatasetFormatError(f"line {lineno}: unparseable row") from exc
            if group_raw != group:
                raise DatasetFormatError(f"line {lineno}: group must be an integer")
            first_group, rows = by_subject.setdefault(subject, (group, []))
            if first_group != group:
                raise DatasetFormatError(
                    f"line {lineno}: subject {subject} appears in groups "
                    f"{first_group} and {group}"
                )
            rows.append((time, count))
    if not by_subject:
        raise DatasetFormatError("file contains no data rows")
    groups, sizes, visits = [], [], []
    for group, rows in by_subject.values():
        rows.sort()
        groups.append(group)
        sizes.append(len(rows))
        visits.extend(rows)
    times, counts = np.array(visits, dtype=float).T
    return PanelDataset.from_columns(
        times=times, counts=counts, sizes=sizes, groups=groups, subject_ids=list(by_subject)
    )


def write_dataset_csv(d: PanelDataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_REQUIRED_COLUMNS)
        for p in d.paths:
            for t, c in zip(p.times, p.counts):
                writer.writerow([p.subject_id, p.group, repr(float(t)), repr(float(c))])


def parse_weight_spec(token: str, k: int) -> WeightSpec:
    """Parse a weight name: aliases w1..w4 or ``kind[:group]`` keywords."""
    token = _WEIGHT_ALIASES.get(token.strip().lower(), token.strip().lower())
    kind_name, _, group_part = token.partition(":")
    try:
        kind = WeightKind(kind_name)
    except ValueError:
        raise DatasetFormatError(f"unknown weight {token!r}") from None
    group = None
    if group_part:
        try:
            group = int(group_part)
        except ValueError:
            raise DatasetFormatError(f"bad group in weight {token!r}") from None
        if not (1 <= group <= k):
            raise DatasetFormatError(f"weight group {group} outside 1..{k}")
    try:
        return WeightSpec(kind=kind, group=group)
    except ValueError as exc:
        raise DatasetFormatError(str(exc)) from None


def report_to_dict(report: TestReport, config_echo: dict | None = None) -> dict:
    out = asdict(report)
    out["covariance"] = (
        None if report.covariance is None else [list(row) for row in report.covariance]
    )
    out["weights"] = list(report.weights)
    out["group_sizes"] = list(report.group_sizes)
    out["config"] = config_echo or {}
    return out


def report_from_dict(data: dict) -> TestReport:
    return TestReport(
        method=data["method"],
        weights=tuple(data["weights"]),
        statistics={k: float(v) for k, v in data["statistics"].items()},
        p_values={k: float(v) for k, v in data["p_values"].items()},
        variance={k: float(v) for k, v in data["variance"].items()},
        covariance=(
            None
            if data["covariance"] is None
            else tuple(tuple(float(x) for x in row) for row in data["covariance"])
        ),
        df=data["df"],
        n=data["n"],
        group_sizes=tuple(data["group_sizes"]),
        diagnostics=data["diagnostics"],
    )


def _fail(message: str, code: int):
    click.echo(message, err=True)
    sys.exit(code)


def _load_dataset(path: str) -> PanelDataset:
    try:
        return read_dataset_csv(path)
    except (OSError, DatasetFormatError) as exc:
        _fail(f"error: {exc}", 2)


def _load_valid_dataset(path: str) -> PanelDataset:
    d = _load_dataset(path)
    report = validate_dataset(d)
    if not report.ok:
        for err in report.errors:
            click.echo(f"error: {err}", err=True)
        sys.exit(1)
    return d


@contextmanager
def _output(out: str):
    """The file ``out`` opened for writing ('-' for stdout).  An IO error in
    opening or writing it ends the command with ``error: <reason>``, exit 2."""
    if out == "-":
        yield sys.stdout
        return
    try:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        _fail(f"error: {exc}", 2)


@contextmanager
def _test_errors():
    """A failed solve ends the command with ``error: <message>``, exit 3;
    a degenerate statistic does so with exit 4."""
    try:
        yield
    except SolverConvergenceError as exc:
        _fail(f"error: {exc}", 3)
    except (DegenerateCovarianceError, DegenerateVarianceError, IncrementMismatchError) as exc:
        _fail(f"error: {exc}", 4)


def _write_csv(out: str, header, rows) -> None:
    """Write a header and rows as CSV to ``out`` ('-' for stdout)."""
    with _output(out) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@click.group()
def main():
    """Nonparametric estimation and k-sample tests for panel count data."""


@main.command()
@click.argument("input_path", metavar="INPUT", type=click.Path())
def validate(input_path):
    """Check a dataset file; exit 0 only if structurally valid."""
    d = _load_dataset(input_path)
    report = validate_dataset(d)
    for err in report.errors:
        click.echo(f"error: {err}")
    for warn in report.warnings:
        click.echo(f"warning: {warn}")
    click.echo(
        f"{'OK' if report.ok else 'INVALID'}: {d.n} subjects in {d.k} group(s)"
    )
    sys.exit(0 if report.ok else 1)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["npmle", "npmple"]), default="npmle")
@click.option("--group", default="all", help="'all' for pooled data or a group index")
@click.option("--out", default="-", help="output CSV path ('-' for stdout)")
def estimate(input_path, method, group, out):
    """Estimate the mean function; writes a time,value CSV."""
    d = _load_valid_dataset(input_path)
    if group != "all":
        try:
            l = int(group)
        except ValueError:
            _fail(f"error: bad group {group!r}", 2)
        try:
            d = restrict_to_group(d, l)
        except ValueError as exc:
            _fail(f"error: {exc}", 2)
    status = 0
    if method == "npmple":
        est = npmple(d)
    else:
        est, diag = npmle(d)
        pm = npmple(d)
        click.echo(
            f"npmle: iterations={diag.iterations} fenchel_residual={diag.fenchel_residual:.3e} "
            f"converged={diag.converged} status={diag.status}",
            err=True,
        )
        click.echo(
            f"log-likelihood: npmle={log_likelihood(d, est):.6f} "
            f"npmple={log_likelihood(d, pm):.6f}",
            err=True,
        )
        if not diag.converged:
            click.echo(
                f"warning: solver did not converge ({diag.status}); writing best iterate",
                err=True,
            )
            status = 3
    _write_csv(
        out,
        ["time", "value"],
        ([repr(float(t)), repr(float(v))] for t, v in zip(est.support, est.values)),
    )
    sys.exit(status)


@main.command("test")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--weight", default="w1", help="w1..w4 or kind[:group] keyword")
@click.option("--stat", type=click.Choice(["u", "v", "t12"]), default="t12")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--out", default=None, type=click.Path(), help="write the JSON report here")
def test_command(input_path, weight, stat, alpha, out):
    """Run a k-sample test and print a one-line summary."""
    d = _load_valid_dataset(input_path)
    if d.k < 2:
        _fail("error: testing requires k >= 2 groups", 2)
    if stat == "t12" and d.k != 2:
        _fail("error: --stat t12 requires exactly 2 groups", 2)
    try:
        spec = parse_weight_spec(weight, d.k)
    except DatasetFormatError as exc:
        _fail(f"error: {exc}", 2)
    with _test_errors():
        if stat == "t12":
            report = two_sample_tests(d, spec)
        elif stat == "u":
            report = chi2_u_test(d, spec)
        else:
            report = chi2_v_test(d, spec)
    pieces = [
        f"{name} = {value:.6g} (p = {report.p_values[name]:.4g})"
        for name, value in report.statistics.items()
    ]
    suffix = f" df={report.df}" if report.df is not None else ""
    click.echo(f"{report.method}: {'; '.join(pieces)}  [weight {spec.name}, n={report.n}{suffix}]")
    if out:
        payload = report_to_dict(
            report,
            config_echo={"input": input_path, "weight": weight, "stat": stat, "alpha": alpha},
        )
        with _output(out) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    sys.exit(0)


@main.command()
@click.option("--case", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--n1", type=int, default=50, show_default=True)
@click.option("--n2", type=int, default=50, show_default=True)
@click.option("--nu", type=click.Choice(["fixed", "gamma"]), default="fixed")
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--weights", default="w1", help="comma-separated weight names")
@click.option("--stat", "stats", default="t2", help="comma-separated: t1,t2,chi2-u,chi2-v")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--out", default="-", help="output CSV path ('-' for stdout)")
def simulate(case, beta, n1, n2, nu, reps, seed, weights, stats, alpha, out):
    """Monte Carlo size/power study; one CSV row per (statistic, weight)."""
    try:
        specs = tuple(parse_weight_spec(tok, 2) for tok in weights.split(","))
        cfg = SimConfig(
            case=case,
            beta=beta,
            group_sizes=(n1, n2),
            nu_mode=nu,
            replications=reps,
            base_seed=seed,
            weight_specs=specs,
            statistics=tuple(s.strip() for s in stats.split(",")),
            alpha=alpha,
        )
    except (ValueError, DatasetFormatError) as exc:
        _fail(f"error: {exc}", 2)
    try:
        rows = run_power_study([cfg])
    except ThreadCountError as exc:
        _fail(f"error: {exc}", 2)
    _write_csv(
        out,
        [
            "case",
            "beta",
            "group_sizes",
            "nu",
            "replications",
            "seed",
            "alpha",
            "statistic",
            "weight",
            "rejections",
            "failures",
            "reject_rate",
            "suspect",
            *FAILURE_CAUSES.values(),
        ],
        (
            [
                row.case,
                repr(row.beta),
                "+".join(str(s) for s in row.group_sizes),
                row.nu_mode,
                row.replications,
                row.base_seed,
                repr(row.alpha),
                row.statistic,
                row.weight,
                row.rejections,
                row.failures,
                repr(row.reject_rate),
                int(row.suspect),
                *(getattr(row, cause) for cause in FAILURE_CAUSES.values()),
            ]
            for row in rows
        ),
    )
    sys.exit(0)


@main.command()
@click.option("--n", type=int, default=200, show_default=True, help="total sample size")
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--stat", type=click.Choice(["t1", "t2"]), default="t2")
@click.option("--out", default="-", help="output CSV path ('-' for stdout)")
def qq(n, reps, seed, stat, out):
    """Null quantile pairs of a two-sample statistic vs the standard normal."""
    if n < 2:
        _fail("error: --n must be at least 2", 2)
    try:
        cfg = SimConfig(
            case=1,
            beta=0.0,
            group_sizes=(n // 2, n - n // 2),
            nu_mode="fixed",
            replications=reps,
            base_seed=seed,
            weight_specs=(WeightSpec(WeightKind.CONST),),
            statistics=(stat,),
        )
    except ValueError as exc:
        _fail(f"error: {exc}", 2)
    try:
        with _test_errors():
            table = qq_study(cfg, statistic=stat)
    except ThreadCountError as exc:
        _fail(f"error: {exc}", 2)
    _write_csv(
        out,
        ["theoretical", "empirical"],
        ([repr(float(theo)), repr(float(emp))] for theo, emp in table),
    )
    sys.exit(0)


if __name__ == "__main__":
    main()
