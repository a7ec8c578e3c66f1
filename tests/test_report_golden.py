"""Golden check on every field of the public tests' reports.

A SHA-256 digest over the JSON that ``report_to_dict`` gives pins each
report's statistics, p-values, variances, covariance, degrees of freedom,
weight names, sizes and solve diagnostics; only the solves' wall-clock
``seconds`` are left out.  It covers T1/T2 under w1-w4, the chi-square
U- and V-tests under the k = 3 benchmark weights, a user-built ``WeightFn``
and per-group weight lists.
"""

import hashlib
import json

from panelcount import (
    SimConfig,
    WeightFn,
    chi2_u_test,
    chi2_v_test,
    fit_all,
    generate_dataset,
    two_sample_tests,
)
from panelcount.cli import parse_weight_spec, report_to_dict

RAMP = WeightFn("ramp", lambda t: t / (1.0 + t))


def dataset(k, base_seed):
    cfg = SimConfig(
        case=1,
        beta=0.3,
        group_sizes=(40,) * k,
        nu_mode="gamma",
        replications=1,
        base_seed=base_seed,
        statistics=("chi2-u",),
    )
    return generate_dataset(cfg, 0)


def reports():
    d2 = dataset(2, 11)
    fits2 = fit_all(d2)
    for w in ("w1", "w2", "w3", "w4"):
        yield two_sample_tests(d2, parse_weight_spec(w, 2), fits=fits2)
    yield two_sample_tests(d2, RAMP, fits=fits2)
    yield two_sample_tests(d2, [RAMP, parse_weight_spec("w2", 2)], fits=fits2)
    yield two_sample_tests(d2, parse_weight_spec("w1", 2))

    d3 = dataset(3, 12)
    fits3 = fit_all(d3)
    per_group = [parse_weight_spec(w, 3) for w in ("w1", "w2", "w4")]
    weight_args = [
        *(parse_weight_spec(w, 3) for w in ("const", "pooled-risk", "complement", "group-risk:3")),
        RAMP,
        per_group,
        [RAMP, per_group[1], RAMP],
    ]
    for weights in weight_args:
        yield chi2_u_test(d3, weights, fits=fits3)
        yield chi2_v_test(d3, weights, fits=fits3)


def report_digest():
    h = hashlib.sha256()
    for report in reports():
        payload = report_to_dict(report)
        for diag in (payload["diagnostics"]["pooled"], *payload["diagnostics"]["groups"]):
            del diag["seconds"]
        h.update(json.dumps(payload, sort_keys=True).encode())
    return h.hexdigest()


REPORT_DIGEST = "03ff732257e9c249635028b9379238b91b478331b19e55b98463bc6e5fe814f5"


def test_reports_match_digest():
    assert report_digest() == REPORT_DIGEST
