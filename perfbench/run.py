"""Layered benchmark of panelcount: Monte Carlo throughput and large-m
analysis latency, with a traced run that splits each operation by layer.

Run from the repository root:

    python3 perfbench/run.py --workload mc_power_2s --seed 1 --seconds 30 --trace 0

One caller drives the public API in a closed loop: the next operation starts
when the previous one returns.  Everything runs serially: ``PCT_THREADS`` is
removed from the environment and OpenBLAS gets one thread, because
wall-clock scaling across the cores of a shared machine is not steady.  ``--trace 0`` times the operations and prints
the end-to-end metrics.  ``--trace 1`` runs each operation twice, untraced and
then with every public panelcount function wrapped by ``tracer.Tracer``, and
prints the per-layer metrics together with the tracing overhead.  Every run first checks the
program's outputs at the reference seed against ``reference.json`` and checks
every operation's outputs as they arrive.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance.  The full result and, for traced runs, every span are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from tracer import FAILURE_CAUSES, OP_SPAN, Tracer, span_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median over this many fresh processes, each timing the import
# of panelcount and the building of the workload's inputs.
SETUP_PROBES = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes, not measured")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_source():
    """Put this checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "panelcount" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'panelcount'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))


def _timed_setup(args) -> float:
    """Seconds to import panelcount and build the workload's inputs, in a
    process that has not imported panelcount yet."""
    t0 = time.perf_counter()
    import workloads

    workloads.build(args.workload, args.seed, args.tiny, OUT_DIR)
    return time.perf_counter() - t0


def _probe_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", "0"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _timed_op(wl, index: int, tracer=None):
    """(seconds, outcome) of operation ``index``, inside a root span when traced."""
    t0 = time.perf_counter()
    with tracer.op() if tracer else nullcontext():
        outcome = wl.op(index)
    return time.perf_counter() - t0, outcome


def _end_to_end(samples, setup_samples) -> dict:
    units = sum(o.units for _, o in samples)
    return {
        "ops_per_s": units / sum(s for s, _ in samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in a fixed order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
        if name == "estimators.npmle":
            units[f"{name}.iterations"] = "iter/call"
            units[f"{name}.iterations_max"] = "iter"
            units[f"{name}.converged_frac"] = "ratio"
            units[f"{name}.ms_per_iter"] = "ms/iter"
    for cause in FAILURE_CAUSES.values():
        units[f"hypotests.fail.{cause}"] = "fails/op"
    units["fail_frac"] = "ratio"
    units["trace.ops"] = "count"
    units["trace.op_ms"] = "ms/op"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    return units


def _per_layer(tracer, plain, traced) -> dict:
    from workloads import BenchmarkError

    units = sum(o.units for _, o in traced)
    plain_failed = sum(o.failed for _, o in plain)
    counted = sum(tracer.failures.values())
    unexpected = set(tracer.failures) - set(FAILURE_CAUSES)
    if unexpected or counted != plain_failed:
        raise BenchmarkError(
            f"traced failure counts {dict(tracer.failures)} disagree with "
            f"{plain_failed} failed units in the untraced run"
        )
    calls, total_ns, self_ns = tracer.self_times_ns()
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = calls[name] / units
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / units
        if name == "estimators.npmle":
            iterations = [it for it, _, _ in tracer.solves]
            n = len(iterations)
            out[f"{name}.iterations"] = sum(iterations) / n if n else 0.0
            out[f"{name}.iterations_max"] = max(iterations, default=0)
            out[f"{name}.converged_frac"] = sum(c for _, c, _ in tracer.solves) / n if n else 0.0
            out[f"{name}.ms_per_iter"] = total_ns[name] / 1e6 / sum(iterations) if n else 0.0
    for type_name, cause in FAILURE_CAUSES.items():
        out[f"hypotests.fail.{cause}"] = tracer.failures[type_name] / units
    out["fail_frac"] = plain_failed / sum(o.units for _, o in plain)
    traced_s = sum(s for s, _ in traced)
    out["trace.ops"] = units
    out["trace.op_ms"] = 1000.0 * traced_s / units
    out["trace.overhead_frac"] = traced_s / sum(s for s, _ in plain) - 1.0
    out["trace.unattributed_frac"] = self_ns[OP_SPAN] / total_ns[OP_SPAN]
    return out


def _blas_info() -> dict:
    """OpenBLAS version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "panelcount").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _provenance(args, pct_threads_at_start, blas_threads_at_start) -> dict:
    import numpy as np
    import scipy

    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": workloads.REFERENCE_SEED,
        "op_seeds": "seed * 1000000 + index of the replication block or dataset",
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "PCT_THREADS_at_start": pct_threads_at_start,
        "PCT_THREADS_in_run": os.environ.get("PCT_THREADS"),
        "OPENBLAS_NUM_THREADS_at_start": blas_threads_at_start,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_source()
    pct_threads_at_start = os.environ.pop("PCT_THREADS", None)
    blas_threads_at_start = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        print(repr(_timed_setup(args)))
        return 0

    import workloads

    if args.workload not in workloads.SPECS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}")
    setup_samples = _probe_setup(args)
    wl = workloads.build(args.workload, args.seed, args.tiny, OUT_DIR)

    reference = json.loads(workloads.REFERENCE_FILE.read_text())
    correct = True
    metrics: dict = {}
    samples: list = []
    try:
        # Also the warm-up: caches fill and lazy imports finish before timing.
        wl.check_reference(reference[workloads.reference_key(args.workload, args.tiny)])
        start = time.perf_counter()
        if args.trace == 0:
            while not samples or time.perf_counter() - start < args.seconds:
                samples.append(_timed_op(wl, len(samples)))
            metrics = _end_to_end(samples, setup_samples)
            units = END_TO_END_UNITS
        else:
            # Each operation runs untraced, then traced, so that both sides of
            # the overhead see the same machine state.
            tracer = Tracer()
            plain, traced = [], []
            while not plain or time.perf_counter() - start < args.seconds:
                plain.append(_timed_op(wl, len(traced)))
                with tracer:
                    traced.append(_timed_op(wl, len(traced), tracer))
            if [o for _, o in traced] != [o for _, o in plain]:
                raise workloads.BenchmarkError("traced outputs differ from untraced outputs")
            samples = plain + traced
            metrics = _per_layer(tracer, plain, traced)
            units = per_layer_units()
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps(tracer.dump()))
    except workloads.BenchmarkError as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        correct = False
        units = {}

    result = {
        "correct": correct,
        "attempted": sum(o.units for _, o in samples),
        "failed": sum(o.failed for _, o in samples),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    provenance = _provenance(args, pct_threads_at_start, blas_threads_at_start)
    detail = dict(result, provenance=provenance, unit=wl.unit, setup_samples_s=setup_samples)
    detail["op_samples"] = [[s, o.units, o.failed] for s, o in samples]
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
