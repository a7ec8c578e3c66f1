"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_per_layer_names_match_benchmark_json():
    assert list(run.per_layer_units()) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def _bindings(modules):
    return {(mod.__name__, attr): value for mod in modules for attr, value in vars(mod).items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_match_and_wrappers_are_restored(workload, tmp_path):
    run._import_source()
    import panelcount
    import workloads
    from tracer import OP_SPAN, Tracer

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "panelcount"]
    before = _bindings(modules)
    call_before = panelcount.WeightFn.__dict__["__call__"]
    wl = workloads.build(workload, 11, True, tmp_path)
    plain = [wl.op(i) for i in range(3)]
    with Tracer() as tracer:
        assert panelcount.fit_all is not before[("panelcount", "fit_all")]
        assert panelcount.hypotests.npmle is not before[("panelcount.hypotests", "npmle")]
        traced = []
        for i in range(3):
            with tracer.op():
                traced.append(wl.op(i))
    assert traced == plain
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert panelcount.WeightFn.__dict__["__call__"] is call_before

    calls, total_ns, self_ns = tracer.self_times_ns()
    assert calls[OP_SPAN] == 3
    units = sum(o.units for o in traced)
    assert calls["hypotests.fit_all"] == units
    assert calls["estimators.npmle"] >= units
    assert all(v >= 0 for v in self_ns.values())
    assert sum(self_ns.values()) == total_ns[OP_SPAN]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
