import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from panelcount import PanelDataset, SimConfig, WeightKind, WeightSpec, run_power_study
from panelcount.cli import (
    DatasetFormatError,
    _read_rows,
    main,
    parse_weight_spec,
    read_dataset_csv,
    report_from_dict,
    report_to_dict,
    write_dataset_csv,
)
from panelcount.hypotests import TestReport as Report
from conftest import path, random_dataset
from test_pipeline import BAD_FIELDS, CONTINUOUS_TIMES, HALF_INTEGER_TIMES


@pytest.fixture
def runner():
    return CliRunner()


def write_csv(tmp_path, name, rows, header="subject,group,time,count"):
    f = tmp_path / name
    f.write_text("\n".join([header] + rows) + "\n")
    return str(f)


@pytest.fixture
def two_group_file(tmp_path):
    rows = []
    rng = np.random.default_rng(5)
    d = random_dataset(rng, 24, k=2, rate=1.3)
    for p in d.paths:
        for t, c in zip(p.times, p.counts):
            rows.append(f"{p.subject_id},{p.group},{t},{int(c)}")
    return write_csv(tmp_path, "two_group.csv", rows)


@pytest.fixture
def duplicated_group_file(tmp_path):
    rows = []
    rng = np.random.default_rng(11)
    base = random_dataset(rng, 12, k=1, rate=1.2)
    for g in (1, 2):
        for p in base.paths:
            for t, c in zip(p.times, p.counts):
                rows.append(f"{p.subject_id}g{g},{g},{t},{int(c)}")
    return write_csv(tmp_path, "dup.csv", rows)


@pytest.fixture
def invalid_file(tmp_path):
    return write_csv(tmp_path, "bad.csv", ["a,1,1,3", "a,1,2,2", "b,2,1,0"])


class TestValidateCommand:
    def test_well_formed(self, runner, tmp_path):
        f = write_csv(tmp_path, "ok.csv", ["a,1,1,0", "a,1,2,3", "b,2,1.5,2"])
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 0
        assert "OK" in result.output

    def test_decreasing_counts_names_subject(self, runner, tmp_path):
        f = write_csv(tmp_path, "bad.csv", ["a,1,1,3", "a,1,2,2", "b,2,1,0"])
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 1
        assert "subject a" in result.output
        assert "counts decreasing" in result.output

    def test_nan_time_exit_1(self, runner, tmp_path):
        f = write_csv(tmp_path, "nan.csv", ["a,1,1,0", "a,1,nan,3", "b,2,1,0"])
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 1
        assert "subject a: non-finite observation time" in result.output

    def test_missing_header_column(self, runner, tmp_path):
        f = write_csv(tmp_path, "noheader.csv", ["a,1,1"], header="subject,group,time")
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 2

    def test_unreadable_file(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "missing.csv")])
        assert result.exit_code == 2

    def test_inconsistent_group(self, runner, tmp_path):
        f = write_csv(tmp_path, "grp.csv", ["a,1,1,0", "a,2,2,1"])
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 2

    def test_one_warning_for_every_gap_without_pooled_events(self, runner, tmp_path):
        f = write_csv(tmp_path, "gaps.csv", ["a,1,1,0", "a,1,2,0", "b,2,1.5,2", "b,2,3,2"])
        result = runner.invoke(main, ["validate", f])
        assert result.exit_code == 0
        assert result.output == (
            "warning: no pooled events on 3 of the 4 inter-observation gaps, the first ending at t=1\n"
            "OK: 2 subjects in 2 group(s)\n"
        )


class TestEstimateCommand:
    def test_single_subject_npmle_equals_counts(self, runner, tmp_path):
        f = write_csv(tmp_path, "one.csv", ["a,1,1,2", "a,1,2,5"])
        out = tmp_path / "est.csv"
        result = runner.invoke(main, ["estimate", "--input", f, "--method", "npmle", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values, [2.0, 5.0], atol=1e-5)

    def test_npmple_nondecreasing(self, runner, two_group_file, tmp_path):
        out = tmp_path / "pm.csv"
        result = runner.invoke(
            main, ["estimate", "--input", two_group_file, "--method", "npmple", "--out", str(out)]
        )
        assert result.exit_code == 0
        values = [float(l.split(",")[1]) for l in out.read_text().strip().splitlines()[1:]]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_loglik_ordering_printed(self, runner, two_group_file):
        result = runner.invoke(main, ["estimate", "--input", two_group_file])
        assert result.exit_code == 0
        stderr = result.stderr
        lls = {}
        for token in ("npmle=", "npmple="):
            line = next(l for l in stderr.splitlines() if token in l)
            lls[token] = float(line.split(token)[1].split()[0])
        assert lls["npmle="] >= lls["npmple="] - 1e-9

    def test_group_restriction(self, runner, two_group_file, tmp_path):
        out = tmp_path / "g2.csv"
        result = runner.invoke(
            main, ["estimate", "--input", two_group_file, "--group", "2", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert (tmp_path / "g2.csv").exists()

    def test_nonconvergence_exit_3_with_output(self, runner, tmp_path):
        f = write_csv(tmp_path, "boundary.csv", ["a,1,1,0", "a,1,2,2"])
        out = tmp_path / "best.csv"
        result = runner.invoke(main, ["estimate", "--input", f, "--out", str(out)])
        assert result.exit_code == 3
        assert "did not converge" in result.stderr
        values = [float(l.split(",")[1]) for l in out.read_text().strip().splitlines()[1:]]
        np.testing.assert_allclose(values, [0.0, 2.0], atol=1e-6)

    def test_nonconvergence_names_status(self, runner, tmp_path):
        f = write_csv(tmp_path, "boundary.csv", ["a,1,1,0", "a,1,2,2"])
        result = runner.invoke(main, ["estimate", "--input", f, "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 3
        assert "converged=False status=boundary-origin" in result.stderr
        assert "did not converge (boundary-origin)" in result.stderr

    def test_invalid_file_exit_1_errors_on_stderr(self, runner, invalid_file):
        result = runner.invoke(main, ["estimate", "--input", invalid_file])
        assert result.exit_code == 1
        assert result.stderr == "error: subject a: counts decreasing\n"
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "group, message", [("x", "error: bad group 'x'"), ("3", "error: group 3 outside 1..2")]
    )
    def test_bad_group_exit_2(self, runner, two_group_file, group, message):
        result = runner.invoke(main, ["estimate", "--input", two_group_file, "--group", group])
        assert result.exit_code == 2
        assert message in result.output


class TestTestCommand:
    def test_duplicated_groups_p_value_one(self, runner, duplicated_group_file):
        result = runner.invoke(main, ["test", "--input", duplicated_group_file, "--weight", "w1"])
        assert result.exit_code == 0
        assert "p = 1" in result.output

    def test_three_group_u_df2(self, runner, tmp_path):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, 24, k=3, rate=1.4)
        rows = [
            f"{p.subject_id},{p.group},{t},{int(c)}"
            for p in d.paths
            for t, c in zip(p.times, p.counts)
        ]
        f = write_csv(tmp_path, "three.csv", rows)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["test", "--input", f, "--stat", "u", "--out", str(out)]
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["df"] == 2
        assert payload["method"] == "U-test"
        # the round trip keeps the 3 x 3 covariance
        report = report_from_dict(payload)
        assert [len(row) for row in report.covariance] == [3, 3, 3]
        assert report_to_dict(report, payload["config"]) == payload

    def test_report_round_trip(self, runner, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        report = report_from_dict(payload)
        assert isinstance(report, Report)
        assert report_to_dict(report, payload["config"]) == payload
        assert 0.0 <= report.p_values["T1"] <= 1.0

    def test_v_statistic(self, runner, two_group_file):
        result = runner.invoke(main, ["test", "--input", two_group_file, "--stat", "v"])
        assert result.exit_code == 0
        assert result.output.startswith("V-test: chi2 = ")
        assert "df=1]" in result.output

    def test_invalid_file_exit_1_errors_on_stderr(self, runner, invalid_file):
        result = runner.invoke(main, ["test", "--input", invalid_file])
        assert result.exit_code == 1
        assert result.stderr == "error: subject a: counts decreasing\n"
        assert result.stdout == ""

    def test_one_group_exit_2(self, runner, tmp_path):
        f = write_csv(tmp_path, "one_group.csv", ["a,1,1,1", "a,1,2,2", "b,1,1,0"])
        result = runner.invoke(main, ["test", "--input", f, "--stat", "u"])
        assert result.exit_code == 2
        assert "error: testing requires k >= 2 groups" in result.output

    def test_report_config_echoes_the_options(self, runner, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--stat", "v", "--out", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["config"] == {"input": two_group_file, "weight": "w1", "stat": "v"}

    def test_alpha_is_no_option_exit_2(self, runner, two_group_file, tmp_path):
        # no statistic, p-value or decision depends on a level
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--alpha", "0.05", "--out", str(out)])
        assert result.exit_code == 2
        # click words it "No such option: --alpha" or "No such option '--alpha'"
        assert "No such option" in result.stderr and "--alpha" in result.stderr
        assert result.stdout == ""
        assert not out.exists()

    def test_report_carries_solver_status(self, runner, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--out", str(out)])
        assert result.exit_code == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        solves = [diagnostics["pooled"], *diagnostics["groups"]]
        assert [s["status"] for s in solves] == ["converged"] * 3

    def test_report_carries_solve_time(self, runner, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--out", str(out)])
        assert result.exit_code == 0
        diagnostics = json.loads(out.read_text())["diagnostics"]
        solves = [diagnostics["pooled"], *diagnostics["groups"]]
        assert all(isinstance(s["seconds"], float) and s["seconds"] > 0 for s in solves)

    def test_boundary_origin_exit_3_names_status(self, runner, tmp_path):
        rows = ["a,1,1,0", "a,1,2,2", "b,2,1,0", "b,2,3,1"]
        f = write_csv(tmp_path, "boundary2.csv", rows)
        result = runner.invoke(main, ["test", "--input", f])
        assert result.exit_code == 3
        assert "pooled NPMLE did not converge (boundary-origin)" in result.output

    def test_t12_requires_two_groups(self, runner, tmp_path):
        rows = ["a,1,1,1", "b,2,1,0", "c,3,1,2"]
        f = write_csv(tmp_path, "three_small.csv", rows)
        result = runner.invoke(main, ["test", "--input", f, "--stat", "t12"])
        assert result.exit_code == 2

    def test_degenerate_weight_exit_4(self, runner, tmp_path):
        rows = [
            "a,1,1,1", "a,1,2,2",
            "b,1,1,0", "b,1,2,3",
            "c,2,1,2", "c,2,2,2",
            "d,2,1,1", "d,2,2,1",
        ]
        f = write_csv(tmp_path, "deg.csv", rows)
        result = runner.invoke(main, ["test", "--input", f, "--weight", "complement"])
        assert result.exit_code == 4

    def test_unknown_weight_exit_2(self, runner, two_group_file):
        result = runner.invoke(main, ["test", "--input", two_group_file, "--weight", "nope"])
        assert result.exit_code == 2

    def test_group_on_ungrouped_weight_exit_2(self, runner, two_group_file):
        result = runner.invoke(
            main, ["test", "--input", two_group_file, "--weight", "pooled-risk:2"]
        )
        assert result.exit_code == 2
        assert "error: weight kind pooled-risk takes no group index" in result.output


class TestSimulateCommand:
    def test_single_replication(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            [
                "simulate", "--case", "1", "--beta", "0", "--sizes", "12,12",
                "--reps", "1", "--seed", "7", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        rate = float(lines[1].split(",")[11])
        assert rate in (0.0, 1.0)

    def test_deterministic(self, runner, tmp_path):
        args = [
            "simulate", "--sizes", "10,10", "--reps", "2", "--seed", "3",
            "--weights", "w1,w4", "--stat", "t1,t2",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_text() == out2.read_text()
        assert len(out1.read_text().strip().splitlines()) == 5

    def test_output_bytes(self, runner, tmp_path):
        # every column, float formatting, group sizes, suspect and failure causes
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--case", "2", "--beta", "1.5", "--nu", "gamma", "--sizes", "5,4",
            "--reps", "12", "--seed", "99", "--weights", "w1,w4",
            "--stat", "t1,t2,chi2-u", "--alpha", "0.2", "--out", str(out),
        ]
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_bytes() == (
            b"case,beta,group_sizes,nu,replications,seed,alpha,statistic,weight,"
            b"rejections,failures,reject_rate,suspect,solver_convergence,"
            b"increment_mismatch,degenerate_covariance,degenerate_variance\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,t1,const,6,5,0.8571428571428571,1,2,3,0,0\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,t1,complement,5,5,0.7142857142857143,1,2,3,0,0\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,t2,const,6,5,0.8571428571428571,1,2,3,0,0\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,t2,complement,6,5,0.8571428571428571,1,2,3,0,0\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,chi2-u,const,6,5,0.8571428571428571,1,2,3,0,0\r\n"
            b"2,1.5,5+4,gamma,12,99,0.2,chi2-u,complement,5,5,0.7142857142857143,1,2,3,0,0\r\n"
        )

    def test_default_sizes_are_50_50(self, runner):
        args = ["simulate", "--reps", "2", "--seed", "3", "--out", "-"]
        default = runner.invoke(main, args)
        assert default.exit_code == 0
        assert default.stdout_bytes == runner.invoke(main, args + ["--sizes", "50,50"]).stdout_bytes
        assert default.stdout.splitlines()[1].split(",")[2] == "50+50"

    def test_bad_stat_exit_2(self, runner):
        result = runner.invoke(main, ["simulate", "--stat", "bogus", "--reps", "1"])
        assert result.exit_code == 2

    def test_failures_by_cause_columns(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--sizes", "4,4", "--reps", "12", "--seed", "99"]
        assert runner.invoke(main, args + ["--out", str(out)]).exit_code == 0
        header, row = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert header[-4:] == [
            "solver_convergence",
            "increment_mismatch",
            "degenerate_covariance",
            "degenerate_variance",
        ]
        assert row[header.index("failures")] == "5"
        assert row[-4:] == ["4", "1", "0", "0"]

    def test_sizes_three_groups_chi_square(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "--sizes", "8,8,8", "--beta", "0.5", "--reps", "6", "--seed", "4",
            "--weights", "w1,group-risk:3", "--stat", "chi2-u,chi2-v", "--out", str(out),
        ]
        assert runner.invoke(main, args).exit_code == 0
        cfg = SimConfig(
            beta=0.5,
            group_sizes=(8, 8, 8),
            replications=6,
            base_seed=4,
            weight_specs=(WeightSpec(WeightKind.CONST), WeightSpec(WeightKind.GROUP_RISK, 3)),
            statistics=("chi2-u", "chi2-v"),
        )
        header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert [row[header.index("group_sizes")] for row in rows] == ["8+8+8"] * 4
        assert [row[header.index("weight")] for row in rows] == ["const", "group-risk:3"] * 2
        assert [float(row[header.index("reject_rate")]) for row in rows] == [
            row.reject_rate for row in run_power_study([cfg])
        ]

    @pytest.mark.parametrize(
        "args, message",
        [
            # group sizes are set by --sizes alone
            (["--n1", "5"], "No such option"),
            (["--n2", "5"], "No such option"),
            (["--sizes", "5,x"], "error: --sizes takes comma-separated positive integers, got '5,x'"),
            (["--sizes", "5,0,5"], "error: --sizes takes comma-separated positive integers"),
            (["--sizes", "5,2.5"], "error: --sizes takes comma-separated positive integers"),
            (["--sizes", "5,5,5", "--stat", "chi2-u,t2"], "error: statistic t2 requires exactly 2 groups"),
            (["--sizes", "5", "--stat", "chi2-v"], "error: statistic chi2-v requires at least 2 groups"),
            (["--sizes", "5,5", "--weights", "group-risk:3"], "error: weight group 3 outside 1..2"),
        ],
    )
    def test_bad_sizes_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["simulate", "--reps", "1", *args])
        assert result.exit_code == 2
        assert message in result.output

    def test_bad_thread_count_exit_2(self, runner, monkeypatch):
        monkeypatch.setenv("PCT_THREADS", "two")
        result = runner.invoke(main, ["simulate", "--sizes", "5,5", "--reps", "2"])
        assert result.exit_code == 2
        assert "error: PCT_THREADS must be an integer, got 'two'" in result.output

    def test_negative_seed_exit_2(self, runner):
        result = runner.invoke(main, ["simulate", "--sizes", "5,5", "--reps", "2", "--seed", "-1"])
        assert result.exit_code == 2
        assert "error: base_seed must be >= 0, got -1" in result.output
        assert "Traceback" not in result.output


    @pytest.mark.parametrize(
        "args, message",
        [
            (["--beta", "50"], "error: beta = 50.0 gives a visit mean of 5.18e+22, more than numpy's"),
            (["--case", "2", "--beta", "nan"], "error: beta must be finite, got nan"),
        ],
    )
    def test_bad_beta_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["simulate", "--reps", "1", "--sizes", "3,3", *args])
        assert result.exit_code == 2
        assert message in result.output


class TestQqCommand:
    def test_rows_and_sorted(self, runner, tmp_path):
        out = tmp_path / "qq.csv"
        result = runner.invoke(
            main, ["qq", "--n", "24", "--reps", "6", "--seed", "2", "--out", str(out)]
        )
        assert result.exit_code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "theoretical,empirical"
        assert len(lines) == 7
        emp = [float(l.split(",")[1]) for l in lines[1:]]
        assert emp == sorted(emp)

    def test_deterministic(self, runner, tmp_path):
        args = ["qq", "--n", "20", "--reps", "4", "--seed", "5"]
        out1, out2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_text() == out2.read_text()

    def test_zero_reps_exit_2(self, runner):
        result = runner.invoke(main, ["qq", "--n", "20", "--reps", "0"])
        assert result.exit_code == 2
        assert "error: replications must be >= 1" in result.output

    def test_one_subject_exit_2(self, runner):
        result = runner.invoke(main, ["qq", "--n", "1", "--reps", "2"])
        assert result.exit_code == 2
        assert "error: --n must be at least 2" in result.output

    def test_bad_thread_count_exit_2(self, runner, monkeypatch):
        monkeypatch.setenv("PCT_THREADS", "two")
        result = runner.invoke(main, ["qq", "--n", "10", "--reps", "2"])
        assert result.exit_code == 2
        assert "error: PCT_THREADS must be an integer, got 'two'" in result.output

    def test_negative_seed_exit_2(self, runner):
        result = runner.invoke(main, ["qq", "--n", "10", "--reps", "2", "--seed", "-3"])
        assert result.exit_code == 2
        assert "error: base_seed must be >= 0, got -3" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nonconvergence_excluded_and_counted(self, runner, monkeypatch, threads):
        # 2+2 subjects: solves that end at the origin boundary and degenerate
        # statistics; with two workers the counts come back from worker processes
        monkeypatch.setenv("PCT_THREADS", threads)
        result = runner.invoke(main, ["qq", "--n", "4", "--reps", "40", "--seed", "0"])
        assert result.exit_code == 0
        assert result.stderr == (
            "warning: 21 of 40 replications failed (solver_convergence 14, "
            "increment_mismatch 7); the table has the other 19\n"
        )
        lines = result.stdout.splitlines()
        assert lines[0] == "theoretical,empirical"
        assert len(lines) == 20

    def test_degenerate_statistic_excluded_and_counted(self, runner):
        # replication 1 is the first to fail, on a pooled increment beneath its floor
        result = runner.invoke(main, ["qq", "--n", "8", "--reps", "60", "--seed", "1"])
        assert result.exit_code == 0
        assert result.stderr == (
            "warning: 15 of 60 replications failed (solver_convergence 11, "
            "increment_mismatch 4); the table has the other 45\n"
        )
        assert len(result.stdout.splitlines()) == 46

    def test_every_replication_failed_header_only(self, runner):
        result = runner.invoke(main, ["qq", "--n", "2", "--reps", "3", "--seed", "11"])
        assert result.exit_code == 0
        assert result.stdout == "theoretical,empirical\n"
        assert result.stderr == (
            "warning: 3 of 3 replications failed (solver_convergence 1, "
            "increment_mismatch 2); the table has the other 0\n"
        )

    def test_no_failure_no_warning(self, runner):
        result = runner.invoke(main, ["qq", "--n", "24", "--reps", "6", "--seed", "2"])
        assert result.exit_code == 0
        assert result.stderr == ""


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--input", "DATA"],
            ["test", "--input", "DATA"],
            ["simulate", "--sizes", "5,5", "--reps", "1"],
            ["qq", "--n", "10", "--reps", "1"],
        ],
        ids=["estimate", "test", "simulate", "qq"],
    )
    def test_io_error_exit_2_with_reason(self, runner, two_group_file, tmp_path, args):
        out = tmp_path / "missing" / "out"
        args = [two_group_file if a == "DATA" else a for a in args]
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: [Errno 2] No such file or directory: '{out}'" in result.output
        assert "Traceback" not in result.output


class TestDatasetRoundTrip:
    def test_write_then_read_identity(self, tmp_path, rng):
        d = random_dataset(rng, 9, k=2)
        f = tmp_path / "round.csv"
        write_dataset_csv(d, str(f))
        d2 = read_dataset_csv(str(f))
        assert d2.k == d.k
        assert PanelDataset.from_paths(sorted(d2.paths, key=lambda p: p.subject_id)) == (
            PanelDataset.from_paths(sorted(d.paths, key=lambda p: p.subject_id))
        )

    def test_rows_sorted_on_read(self, tmp_path):
        f = write_csv(tmp_path, "unsorted.csv", ["a,1,2,3", "a,1,1,1"])
        d = read_dataset_csv(f)
        assert d.paths[0].times.tolist() == [1.0, 2.0]
        assert d.paths[0].counts.tolist() == [1.0, 3.0]

    def test_unparseable_row(self, tmp_path):
        for row in ["a,1,xyz,1", "a,inf,1,1", "a,nan,1,1"]:
            f = write_csv(tmp_path, "badrow.csv", [row])
            with pytest.raises(DatasetFormatError):
                read_dataset_csv(f)


class TestReadDatasetErrors:
    """Each DatasetFormatError text, line number included.  Blank lines are
    skipped and do not advance the line count."""

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            ("subject,group,time", ["a,1,1"], "missing header column(s): count"),
            ("subject,time", ["a,1"], "missing header column(s): group, count"),
            ("", [], "missing header column(s): subject, group, time, count"),
            (None, ["a,1,xyz,1"], "line 2: unparseable row"),
            (None, ["a,1,1,0", "a,1,2,abc"], "line 3: unparseable row"),
            (None, ["a,1,1,0", "a,1,2"], "line 3: unparseable row"),
            (None, ["a,inf,1,1"], "line 2: unparseable row"),
            (None, ["a,nan,1,1"], "line 2: unparseable row"),
            (None, ["a,1,1,0", "b,1.5,1,0"], "line 3: group must be an integer"),
            (None, ["a,1,1,0", "b,2,1,0", "a,2,2,1"], "line 4: subject a appears in groups 1 and 2"),
            (None, [], "file contains no data rows"),
            (None, ["", ""], "file contains no data rows"),
            (None, ["a,1,1,0", "", "", "a,1,xyz,1"], "line 3: unparseable row"),
            (None, ["", "a,1,1,0", "", "b,1,2"], "line 3: unparseable row"),
        ],
    )
    def test_message(self, tmp_path, header, rows, message):
        header = "subject,group,time,count" if header is None else header
        f = write_csv(tmp_path, "bad.csv", rows, header=header)
        with pytest.raises(DatasetFormatError) as exc:
            read_dataset_csv(f)
        assert str(exc.value) == message

    def test_extra_columns_ignored_and_rows_sorted(self, tmp_path):
        f = write_csv(
            tmp_path,
            "extra.csv",
            ["a,1,2,3,x,y", "", "a,1,1,1,z", " b ,2,1,0,w"],
            header="subject,group,time,count,note",
        )
        d = read_dataset_csv(f)
        assert [(p.subject_id, p.group) for p in d.paths] == [("a", 1), ("b", 2)]
        assert d.paths[0].times.tolist() == [1.0, 2.0]
        assert d.paths[0].counts.tolist() == [1.0, 3.0]

    def test_columns_in_any_order(self, tmp_path):
        f = write_csv(tmp_path, "order.csv", ["2,1,a,1", "1,0,a,1"], header="time,count,subject,group")
        (p,) = read_dataset_csv(f).paths
        assert (p.subject_id, p.group, p.times.tolist(), p.counts.tolist()) == ("a", 1, [1.0, 2.0], [0.0, 1.0])


def _field(draw, text):
    """``text`` padded, then quoted where it must be and sometimes where it
    need not be."""
    pad = st.sampled_from(["", " ", "  ", "\t"])
    text = draw(pad) + text + draw(pad)
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _number(draw, x):
    return draw(st.sampled_from([repr(x), f"{x:.3f}", f"{x:e}", f"{x:.17g}"]))


REQUIRED = ("subject", "group", "time", "count")
# other columns, or a required one repeated so that its last copy is read
EXTRA_COLUMNS = st.lists(st.sampled_from(["note", "x", "subject", "group", "time", "count"]), max_size=2)
# ids with commas, doubled quotes and newlines; padded ids read as one id
SUBJECT_IDS = st.text(alphabet='ab ,"\n', max_size=3)
TIED_TIMES = st.sampled_from([0.0, -0.0, 0.5, 1.0])


@st.composite
def dataset_texts(draw):
    """CSV text of a dataset: columns permuted, repeated or extra; fields
    padded and quoted; blank lines; LF or CRLF endings; rows interleaved
    across subjects; perhaps a bad field, a subject in two groups or a row
    short of a field."""
    names = draw(st.permutations(list(REQUIRED) + draw(EXTRA_COLUMNS)))
    column = {name: i for i, name in enumerate(names)}
    rows = []
    for subject in draw(st.lists(SUBJECT_IDS, min_size=1, max_size=5, unique_by=str.strip)):
        group = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 4))):
            time = draw(st.one_of(HALF_INTEGER_TIMES, CONTINUOUS_TIMES, TIED_TIMES))
            count = draw(st.integers(0, 20))
            values = {
                "subject": subject,
                "group": draw(st.sampled_from([str(group), f"{group}.0", f"{group}e0"])),
                "time": _number(draw, time),
                "count": draw(st.sampled_from([str(count), _number(draw, float(count))] + ["-0"] * (count == 0))),
            }
            rows.append(
                [values[n] if column.get(n) == i and n in values else draw(SUBJECT_IDS) for i, n in enumerate(names)]
            )
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[column[draw(st.sampled_from(REQUIRED))]] = draw(st.one_of(BAD_FIELDS, st.just("1_0"), st.just("nan")))
    if draw(st.booleans()):
        draw(st.sampled_from(rows))[column["group"]] = "4"
    lines = [",".join(names)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 2))
        fields = [_field(draw, f) for f in row]
        if draw(st.integers(0, 9)) == 9:
            fields.pop()
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _outcome(read, path):
    """The dataset ``read`` gives, with its columns' bytes, or its error."""
    try:
        d = read(path)
    except DatasetFormatError as exc:
        return str(exc)
    return d.subject_ids, d.groups.tolist(), d.sizes.tolist(), d.k, d.times.tobytes(), d.counts.tobytes()


@pytest.fixture(scope="module")
def reader_path(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "data.csv"


class TestReaderPaths:
    """``_read_rows``, a loop over rows, is the oracle of ``read_dataset_csv``."""

    @settings(max_examples=300, deadline=None)
    @given(text=dataset_texts())
    def test_equals_row_loop(self, reader_path, text):
        reader_path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_dataset_csv, str(reader_path)) == _outcome(_read_rows, str(reader_path))

    @pytest.mark.parametrize("pad", ["\x1c", "\x1f"])
    def test_number_padded_with_a_separator_unparseable(self, tmp_path, pad):
        # numpy's parser skips this padding; Python's float() does not
        f = write_csv(tmp_path, "pad.csv", ["a,1,1,0", f"a,1,{pad}2,1"])
        with pytest.raises(DatasetFormatError, match="^line 3: unparseable row$"):
            read_dataset_csv(f)

    def test_header_only_no_warning(self, tmp_path):
        f = write_csv(tmp_path, "header.csv", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="^file contains no data rows$"):
                read_dataset_csv(f)


class TestInputEncoding:
    def test_byte_order_mark_ignored(self, tmp_path, two_group_file):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(two_group_file).read_bytes())
        assert _outcome(read_dataset_csv, str(marked)) == _outcome(read_dataset_csv, two_group_file)

    @pytest.mark.parametrize("args", [["validate"], ["estimate", "--input"], ["test", "--input"]])
    def test_not_utf8_exit_2(self, runner, tmp_path, args):
        f = tmp_path / "latin.csv"
        f.write_bytes(b"subject,group,time,count\na\xff,1,1,0\n")
        result = runner.invoke(main, args + [str(f)])
        assert result.exit_code == 2
        assert result.stderr == "error: file is not UTF-8 text\n"


class TestFieldOverTheCsvLimit:
    """A field longer than the csv module's limit, 131,072 characters, is an
    error of its line, not a traceback."""

    LONG = "x" * 200_000

    @pytest.mark.parametrize("args", [["validate"], ["estimate", "--input"], ["test", "--input"]])
    def test_in_the_header_exit_2(self, runner, tmp_path, args):
        f = write_csv(tmp_path, "long.csv", ["a,1,1,0"], header=f"subject,group,time,count,{self.LONG}")
        result = runner.invoke(main, args + [f])
        assert result.exit_code == 2
        assert result.stderr == "error: line 1: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("args", [["validate"], ["estimate", "--input"], ["test", "--input"]])
    def test_in_a_data_row_exit_2(self, runner, tmp_path, args):
        # no number: the row loop reads the file, and the blank line is not counted
        f = write_csv(tmp_path, "long.csv", ["a,1,1,0", "", f"a,1,{self.LONG},1"])
        result = runner.invoke(main, args + [f])
        assert result.exit_code == 2
        assert result.stderr == "error: line 3: field larger than field limit (131072)\n"


class TestParseWeightSpec:
    def test_aliases(self):
        assert parse_weight_spec("w1", 2).kind is WeightKind.CONST
        assert parse_weight_spec("w2", 2).kind is WeightKind.POOLED_RISK
        w3 = parse_weight_spec("w3", 2)
        assert w3.kind is WeightKind.RISK_PRODUCT and w3.group == 2
        assert parse_weight_spec("w4", 2).kind is WeightKind.COMPLEMENT

    def test_keyword_forms(self):
        spec = parse_weight_spec("group-risk:2", 3)
        assert spec.kind is WeightKind.GROUP_RISK and spec.group == 2

    def test_bad_group_range(self):
        with pytest.raises(DatasetFormatError):
            parse_weight_spec("group-risk:5", 2)

    def test_group_not_an_integer(self):
        with pytest.raises(DatasetFormatError, match="^bad group in weight 'group-risk:x'$"):
            parse_weight_spec("group-risk:x", 2)

    @pytest.mark.parametrize("token", ["const:1", "pooled-risk:2", "complement:1"])
    def test_group_on_ungrouped_kind(self, token):
        with pytest.raises(DatasetFormatError, match="takes no group index"):
            parse_weight_spec(token, 2)
