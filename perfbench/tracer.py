"""Span tracer that times panelcount's layers from outside the package.

``Tracer`` wraps the public functions of each panelcount module (layer) and
rebinds every name that refers to them in every loaded ``panelcount`` module,
so ``hypotests.npmle`` is traced as well as ``estimators.npmle``.  Each call
records a span (name, parent, start, end).  Spans nest on a stack, so a
span's self time is its duration minus the durations of its children.  Spans
stay in memory until the benchmark writes them out; ``restore`` puts every
original function back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# Public functions wrapped per module; "Class.method" wraps a method on a class.
LAYERS = {
    "simulation": ("run_power_study", "generate_dataset", "sample_subject"),
    "estimators": ("npmle", "npmple", "isotonic_regression"),
    "core": (
        "build_time_grid",
        "flatten_observations",
        "restrict_to_group",
        "eval_step",
        "validate_dataset",
    ),
    "hypotests": (
        "fit_all",
        "two_sample_tests",
        "u_statistics",
        "v_statistics",
        "chi2_u_test",
        "chi2_v_test",
    ),
    "weights": ("make_weight", "WeightFn.__call__"),
    "cli": ("read_dataset_csv",),
}

# Calls at which failed tests surface; an exception is counted once, at the
# outermost of these boundaries it passes through.
FAILURE_BOUNDARIES = frozenset(
    {
        "hypotests.fit_all",
        "hypotests.two_sample_tests",
        "hypotests.chi2_u_test",
        "hypotests.chi2_v_test",
    }
)
FAILURE_CAUSES = {
    "SolverConvergenceError": "solver_convergence",
    "IncrementMismatchError": "increment_mismatch",
    "DegenerateCovarianceError": "degenerate_covariance",
    "DegenerateVarianceError": "degenerate_variance",
}

OP_SPAN = "bench.op"


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    """Records spans of wrapped panelcount calls; use as a context manager."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN] + span_names()
        self._name_id = {name: i for i, name in enumerate(self.names)}
        # One column per span field.  Arrays of machine integers, unlike lists
        # of span objects, give the cyclic garbage collector nothing to scan.
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.failures: Counter = Counter()
        # (iterations, converged, duration_ns) of every npmle call.
        self.solves: list[tuple[int, bool, int]] = []
        self._stack: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "panelcount" or name.startswith("panelcount.")
        ]
        try:
            for module, names in LAYERS.items():
                home = sys.modules[f"panelcount.{module}"]
                for name in names:
                    full = f"{module}.{name}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__[meth]
                        self._replace(cls, meth, orig, self._wrap(full, orig))
                        continue
                    orig = getattr(home, name)
                    wrapper = self._wrap(full, orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._replace(mod, attr, orig, wrapper)
        except BaseException:
            self.restore()
            raise

    def _replace(self, owner, attr: str, orig, wrapper) -> None:
        self._replaced.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._replaced:
            owner, attr, orig = self._replaced.pop()
            setattr(owner, attr, orig)

    def _open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(index)
        return index

    def _wrap(self, full_name: str, fn):
        name_id = self._name_id[full_name]
        starts, ends, stack = self.span_start, self.span_end, self._stack
        boundary = full_name in FAILURE_BOUNDARIES
        solve = full_name == "estimators.npmle"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if boundary and not self._inside_boundary():
                    self.failures[type(exc).__name__] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if solve:
                diag = result[1]
                self.solves.append((diag.iterations, diag.converged, ends[index] - starts[index]))
            return result

        return wrapper

    def _inside_boundary(self) -> bool:
        return any(self.names[self.span_name[i]] in FAILURE_BOUNDARIES for i in self._stack[:-1])

    @contextmanager
    def op(self):
        """Root span around one benchmark operation."""
        if self._stack:
            raise RuntimeError("operations must not nest")
        index = self._open(0)
        self.span_start[index] = time.perf_counter_ns()
        try:
            yield
        finally:
            self.span_end[index] = time.perf_counter_ns()
            self._stack.pop()

    def self_times_ns(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total duration and total self time (ns)."""
        duration = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0] * len(duration)
        for parent, dur in zip(self.span_parent, duration):
            if parent >= 0:
                child[parent] += dur
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        for name_id, dur, child_ns in zip(self.span_name, duration, child):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += dur
            self_ns[name] += dur - child_ns
        return calls, total, self_ns

    def dump(self) -> dict:
        """Column form of the recorded spans, for writing out as JSON."""
        return {
            "names": self.names,
            "name_id": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": self.span_start.tolist(),
            "end_ns": self.span_end.tolist(),
            "failures": dict(self.failures),
            "solves": self.solves,
        }
