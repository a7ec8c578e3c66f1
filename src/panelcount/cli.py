"""Command-line front door: validation, estimation, testing, and simulation.

Datasets are long-format CSV files with header ``subject,group,time,count``,
one row per visit, counts cumulative.  Reports are JSON; tabular output is
CSV.  Exit statuses: 0 success, 1 validation failure, 2 usage/IO error,
3 solver non-convergence, 4 any other named failure of
``hypotests.FAILURE_CAUSES``.  ``test``, ``simulate`` and ``qq`` map those
errors, and a bad ``PCT_THREADS`` (exit 2), through one context manager.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields

import click
import numpy as np

from .core import (
    PanelDataset,
    restrict_to_group,
    validate_dataset,
)
from .estimators import log_likelihood, npmle, npmple
from .hypotests import (
    FAILURE_CAUSES,
    SolverConvergenceError,
    TestReport,
    chi2_u_test,
    chi2_v_test,
    two_sample_tests,
)
from .simulation import PowerRow, SimConfig, ThreadCountError, qq_study, run_power_study
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

# numpy's float parser skips these around a number and Python's float() does
# not, so a field padded with one would parse on one path only
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

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

    The file is UTF-8 text, with or without a byte-order mark.  Columns are
    found by header name, in any order; other columns are ignored, and a
    repeated name reads its last column.  Fields are quoted as in RFC 4180.
    Blank lines are skipped and do not count in the line numbers of error
    messages.  Each subject's rows are sorted by (time, count).

    Two paths read the rows.  numpy's C parser (``np.loadtxt``) reads them
    all in one call, and vectorized checks accept what it read.  Where it
    cannot parse a row or a check fails, ``_read_rows`` reads the file again
    in a loop over rows with Python's ``float``: it names the offending
    line, or returns the dataset where ``float`` accepts a field that numpy
    does not (such as ``1_0``).  Both paths give the same dataset, bit for
    bit, except on a field over the csv module's size limit (131,072
    characters), which numpy reads and the loop rejects with its line.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            columns = _columns(csv.reader(fh))
            body = fh.read()
    except UnicodeDecodeError:
        raise DatasetFormatError("file is not UTF-8 text") from None
    # loadtxt would warn on a file without data rows and return none; the loop names it
    if body.strip() and not any(c in body for c in _NUMPY_ONLY_SPACE):
        try:
            parsed = np.loadtxt(
                io.StringIO(body),
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
                usecols=columns,
                dtype="O,f8,f8,f8",
                unpack=True,
            )
        except ValueError:
            pass
        else:
            d = _dataset(*parsed)
            if d is not None:
                return d
    return _read_rows(path)


def _columns(reader) -> tuple[int, int, int, int]:
    """The indices of the subject, group, time and count columns, read from
    the header, the first row of the csv ``reader``."""
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise DatasetFormatError(f"line 1: {exc}") from None
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DatasetFormatError(f"missing header column(s): {', '.join(missing)}")
    column = {name: i for i, name in enumerate(header)}
    return tuple(column[c] for c in _REQUIRED_COLUMNS)


def _dataset(subject, group, time, count) -> PanelDataset | None:
    """The dataset of parsed rows, each subject's sorted as ``_read_rows``
    sorts them; None where a row needs the loop: a group that is not a
    finite integer, a subject in two groups, or a time or count that is not
    finite, which the loop's tuple sort would leave in place."""
    finite = np.isfinite(group).all() and np.isfinite(time).all() and np.isfinite(count).all()
    if not (finite and (group == np.trunc(group)).all()):
        return None
    ids: dict[str, int] = {}
    code = np.array([ids.setdefault(s.strip(), len(ids)) for s in subject.tolist()])
    order = np.lexsort((count, time, code))
    sizes = np.bincount(code)
    group = group[order]
    groups = group[np.cumsum(sizes) - sizes]
    if not np.array_equal(group, np.repeat(groups, sizes)):
        return None
    return PanelDataset.from_columns(
        times=time[order],
        counts=count[order],
        sizes=sizes,
        groups=[int(g) for g in groups.tolist()],
        subject_ids=list(ids),
    )


def _read_rows(path: str) -> PanelDataset:
    """``read_dataset_csv`` as a loop over rows, the reader's error path."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        i_subject, i_group, i_time, i_count = _columns(reader)
        by_subject: dict[str, tuple[int, list]] = {}
        for lineno, row in _data_rows(reader):
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


def _data_rows(reader):
    """The rows of the csv ``reader`` that are not blank, numbered from line
    2; a row it cannot read, such as one with a field over the csv module's
    size limit, raises ``DatasetFormatError``."""
    lineno = 1
    try:
        for row in filter(None, reader):
            lineno += 1
            yield lineno, row
    except csv.Error as exc:
        raise DatasetFormatError(f"line {lineno + 1}: {exc}") from None


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
    """A named failure ends the command with ``error: <message>``: a bad
    ``PCT_THREADS`` with exit 2, a failed solve with exit 3 and every other
    error of ``FAILURE_CAUSES`` with exit 4."""
    try:
        yield
    except ThreadCountError as exc:
        _fail(f"error: {exc}", 2)
    except tuple(FAILURE_CAUSES) as exc:
        _fail(f"error: {exc}", 3 if isinstance(exc, SolverConvergenceError) else 4)


# The ``simulate`` CSV columns are the ``PowerRow`` fields in order, these two renamed.
_SIMULATE_COLUMNS = {"nu_mode": "nu", "base_seed": "seed"}


def _csv_cell(value):
    """A ``PowerRow`` field as written to the CSV: a bool as 0/1, a float by
    ``repr``, group sizes joined by '+'."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return value


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
@click.option("--out", default=None, type=click.Path(), help="write the JSON report here")
def test_command(input_path, weight, stat, out):
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
            config_echo={"input": input_path, "weight": weight, "stat": stat},
        )
        with _output(out) as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    sys.exit(0)


def _parse_sizes(text: str) -> tuple[int, ...]:
    """Group sizes from ``simulate --sizes``."""
    try:
        sizes = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes takes comma-separated positive integers, got {text!r}")
    return sizes


@main.command()
@click.option("--case", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--sizes", default="50,50", show_default=True,
              help="comma-separated group sizes, one per group")
@click.option("--nu", type=click.Choice(["fixed", "gamma"]), default="fixed")
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--weights", default="w1", help="comma-separated weight names")
@click.option("--stat", "stats", default="t2", help="comma-separated: t1,t2,chi2-u,chi2-v")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--out", default="-", help="output CSV path ('-' for stdout)")
def simulate(case, beta, sizes, nu, reps, seed, weights, stats, alpha, out):
    """Monte Carlo size/power study; one CSV row per (statistic, weight)."""
    try:
        group_sizes = _parse_sizes(sizes)
        specs = tuple(parse_weight_spec(tok, len(group_sizes)) for tok in weights.split(","))
        cfg = SimConfig(
            case=case,
            beta=beta,
            group_sizes=group_sizes,
            nu_mode=nu,
            replications=reps,
            base_seed=seed,
            weight_specs=specs,
            statistics=tuple(s.strip() for s in stats.split(",")),
            alpha=alpha,
        )
    except (ValueError, DatasetFormatError) as exc:
        _fail(f"error: {exc}", 2)
    with _test_errors():
        rows = run_power_study([cfg])
    _write_csv(
        out,
        [_SIMULATE_COLUMNS.get(f.name, f.name) for f in fields(PowerRow)],
        ([_csv_cell(getattr(row, f.name)) for f in fields(PowerRow)] for row in rows),
    )
    sys.exit(0)


@main.command()
@click.option("--n", type=int, default=200, show_default=True, help="total sample size")
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--stat", type=click.Choice(["t1", "t2"]), default="t2")
@click.option("--out", default="-", help="output CSV path ('-' for stdout)")
def qq(n, reps, seed, stat, out):
    """Null quantile pairs of the --stat statistic, under weight w1, vs the
    standard normal.

    Failed replications are left out of the table and counted on stderr."""
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
    with _test_errors():
        table, failures = qq_study(cfg)
    _write_csv(
        out,
        ["theoretical", "empirical"],
        ([repr(float(theo)), repr(float(emp))] for theo, emp in table),
    )
    if len(table) < reps:
        causes = ", ".join(f"{cause} {count}" for cause, count in failures.items() if count)
        failed = f"{reps - len(table)} of {reps} replications failed ({causes})"
        click.echo(f"warning: {failed}; the table has the other {len(table)}", err=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
