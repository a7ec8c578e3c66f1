import json

import numpy as np
import pytest
from click.testing import CliRunner

from panelcount import PanelDataset, WeightKind
from panelcount.cli import (
    DatasetFormatError,
    main,
    parse_weight_spec,
    read_dataset_csv,
    report_from_dict,
    report_to_dict,
    write_dataset_csv,
)
from panelcount.hypotests import TestReport as Report
from conftest import path, random_dataset


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

    def test_report_round_trip(self, runner, two_group_file, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["test", "--input", two_group_file, "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        report = report_from_dict(payload)
        assert isinstance(report, Report)
        assert report_to_dict(report, payload["config"]) == payload
        assert 0.0 <= report.p_values["T1"] <= 1.0

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


class TestSimulateCommand:
    def test_single_replication(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            [
                "simulate", "--case", "1", "--beta", "0", "--n1", "12", "--n2", "12",
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
            "simulate", "--n1", "10", "--n2", "10", "--reps", "2", "--seed", "3",
            "--weights", "w1,w4", "--stat", "t1,t2",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert out1.read_text() == out2.read_text()
        assert len(out1.read_text().strip().splitlines()) == 5

    def test_bad_stat_exit_2(self, runner):
        result = runner.invoke(main, ["simulate", "--stat", "bogus", "--reps", "1"])
        assert result.exit_code == 2

    def test_failures_by_cause_columns(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--n1", "4", "--n2", "4", "--reps", "12", "--seed", "99"]
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

    def test_bad_thread_count_exit_2(self, runner, monkeypatch):
        monkeypatch.setenv("PCT_THREADS", "two")
        result = runner.invoke(main, ["simulate", "--n1", "5", "--n2", "5", "--reps", "2"])
        assert result.exit_code == 2
        assert "error: PCT_THREADS must be an integer, got 'two'" in result.output


    @pytest.mark.parametrize(
        "args, message",
        [
            (["--beta", "50"], "error: beta = 50.0 gives a visit mean of 5.18e+22, more than numpy's"),
            (["--case", "2", "--beta", "nan"], "error: beta must be finite, got nan"),
        ],
    )
    def test_bad_beta_exit_2(self, runner, args, message):
        result = runner.invoke(main, ["simulate", "--reps", "1", "--n1", "3", "--n2", "3", *args])
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

    def test_bad_thread_count_exit_2(self, runner, monkeypatch):
        monkeypatch.setenv("PCT_THREADS", "two")
        result = runner.invoke(main, ["qq", "--n", "10", "--reps", "2"])
        assert result.exit_code == 2
        assert "error: PCT_THREADS must be an integer, got 'two'" in result.output

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nonconvergence_exit_3(self, runner, monkeypatch, threads):
        # 2+2 subjects: a group 2 solve ends at the origin boundary; with
        # two workers the error comes back from a worker process
        monkeypatch.setenv("PCT_THREADS", threads)
        result = runner.invoke(main, ["qq", "--n", "4", "--reps", "40", "--seed", "0"])
        assert result.exit_code == 3
        assert "error: group 2 NPMLE did not converge (boundary-origin)" in result.output
        assert "Traceback" not in result.output

    def test_degenerate_statistic_exit_4(self, runner):
        result = runner.invoke(main, ["qq", "--n", "8", "--reps", "60", "--seed", "1"])
        assert result.exit_code == 4
        assert "error: pooled increment beneath floor" in result.output


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "--input", "DATA"],
            ["test", "--input", "DATA"],
            ["simulate", "--n1", "5", "--n2", "5", "--reps", "1"],
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
