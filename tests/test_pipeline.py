"""Whole-pipeline property: CSV text -> read -> validate -> estimates -> tests.

Every input ends in exactly one of three ways: a ``DatasetFormatError``
from the reader, a failed validation, or finite estimates followed by
finite statistics with p-values in [0, 1].  The four named errors of the
test layer are the only other allowed ending.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelcount import (
    DegenerateCovarianceError,
    DegenerateVarianceError,
    IncrementMismatchError,
    SolverConvergenceError,
    chi2_u_test,
    chi2_v_test,
    fit_all,
    npmle,
    npmple,
    two_sample_tests,
    validate_dataset,
)
from panelcount.cli import DatasetFormatError, parse_weight_spec, read_dataset_csv

NAMED_ERRORS = (
    SolverConvergenceError,
    IncrementMismatchError,
    DegenerateCovarianceError,
    DegenerateVarianceError,
)

HALF_INTEGER_TIMES = st.integers(1, 20).map(lambda k: k / 2)
CONTINUOUS_TIMES = st.floats(0.0, 10.0, exclude_min=True)
BAD_FIELDS = st.sampled_from(["nan", "inf", "-1", "1e400", "x", ""])


@st.composite
def csv_texts(draw):
    rows = []
    for i in range(draw(st.integers(1, 8))):
        group = draw(st.integers(1, 3))
        visits = draw(st.integers(1, 5))
        times = draw(
            st.lists(
                st.one_of(HALF_INTEGER_TIMES, CONTINUOUS_TIMES),
                min_size=visits,
                max_size=visits,
                unique=True,
            )
        )
        counts = draw(st.lists(st.integers(0, 20), min_size=visits, max_size=visits))
        for t, c in zip(sorted(times), sorted(counts)):
            rows.append([f"s{i}", str(group), repr(t), str(c)])
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 3))] = draw(BAD_FIELDS)
    return "\n".join(["subject,group,time,count"] + [",".join(r) for r in rows]) + "\n"


def run_pipeline(path):
    """The ending of one input: "format", "invalid", "named" or "finite"."""
    try:
        d = read_dataset_csv(path)
    except DatasetFormatError:
        return "format"
    if not validate_dataset(d).ok:
        return "invalid"
    mle, diag = npmle(d)
    for est in (npmple(d), mle):
        assert np.all(np.isfinite(est.values))
    assert diag.status in ("converged", "boundary-origin", "max-iterations", "stalled")
    if d.k < 2:
        return "finite"
    try:
        fits = fit_all(d)
        specs = [parse_weight_spec(w, d.k) for w in ("w1", "w2", "w4")]
        reports = [test(d, w, fits=fits) for test in (chi2_u_test, chi2_v_test) for w in specs]
        if d.k == 2:
            specs.append(parse_weight_spec("w3", 2))
            reports += [two_sample_tests(d, w, fits=fits) for w in specs]
    except NAMED_ERRORS:
        return "named"
    for report in reports:
        for name, stat in report.statistics.items():
            assert math.isfinite(stat), (report.method, name)
            assert 0.0 <= report.p_values[name] <= 1.0, (report.method, name)
    return "finite"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("pipeline") / "data.csv"


@settings(max_examples=150, deadline=None)
@given(text=csv_texts())
def test_every_input_ends_in_a_named_way(csv_path, text):
    csv_path.write_text(text)
    assert run_pipeline(str(csv_path)) in ("format", "invalid", "named", "finite")
