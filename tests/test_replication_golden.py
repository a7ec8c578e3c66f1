"""Golden checks on one Monte Carlo replication.

The simulated datasets are pinned by SHA-256 digests of their contents, so a
change to the generator that alters the random stream fails here, not as a
drift in the acceptance tables.  Another digest pins the p-values and every
solve's diagnostics of the benchmark designs' replications.  The statistics
and p-values of a replication must be exactly what the public test
functions give one weight at a time, and a failing replication must raise
the error those functions raise first.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from panelcount import (
    DegenerateCovarianceError,
    DegenerateVarianceError,
    IncrementMismatchError,
    PanelDataset,
    SimConfig,
    SolverConvergenceError,
    chi2_u_test,
    chi2_v_test,
    fit_all,
    generate_dataset,
    npmle,
    two_sample_tests,
)
from panelcount import simulation
from panelcount.cli import parse_weight_spec

# sha256 over replications 0-19 of each design, 50 subjects per group
DATASET_DIGESTS = {
    (1, "fixed", 2): "f765726b5752563e6811fc7d881e815f089a53a151032a36e4f812626e0f7b2f",
    (1, "fixed", 3): "2fdbfa4bcb80af642635c8e9fa3054971ce380033a233e5e88a90def0d75f7b4",
    (1, "gamma", 2): "365c9a95dca1683f60535c434eac0f5dbc33c9eedd57e63fa10cba99d969c4fa",
    (1, "gamma", 3): "ef3b810beccdf81860ade5b1a988b91c5c979ef6d200992a97c913946b96aee5",
    (2, "fixed", 2): "141770927e1823ad5837c2ad9a33a227561c4471e2d3a90d9c43759488f359a7",
    (2, "fixed", 3): "d26ee12b5e3f03277092b1c2f47583740e5e6a38af98af89b6e9dbd6cddd2b3a",
    (2, "gamma", 2): "8f577f5b45430599e0bbd0ad9b455968c0bfff756a866dc3d21f3292b2e963cf",
    (2, "gamma", 3): "2960c1291ad0b30549366078b17872b990a579af23b0319659cdb933ba44c90f",
}


def dataset_digest(cfg, replications):
    h = hashlib.sha256()
    for rep in range(replications):
        d = generate_dataset(cfg, rep)
        h.update(f"{d.k}:{d.n}".encode())
        for p in d.paths:
            h.update(f"{p.subject_id}:{p.group}:{p.n_visits}".encode())
            h.update(np.ascontiguousarray(p.times, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(p.counts, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case, nu_mode, k", sorted(DATASET_DIGESTS))
def test_generated_datasets_match_digest(case, nu_mode, k):
    cfg = SimConfig(
        case=case,
        beta=0.2 if case == 1 else 5.0,
        group_sizes=(50,) * k,
        nu_mode=nu_mode,
        replications=20,
        base_seed=20090415,
        statistics=("chi2-u",),
    )
    assert dataset_digest(cfg, 20) == DATASET_DIGESTS[(case, nu_mode, k)]


def mc_cfg(design, group_size=50, base_seed=20090415, replications=20, **kw):
    """The two Monte Carlo designs of the benchmark: the Table 1 power cell
    and the k = 3 mixed-Poisson chi-square cell."""
    if design == "power_2s":
        k, weights = 2, ("w1", "w2", "w3", "w4")
        defaults = dict(case=1, beta=0.2, nu_mode="fixed", statistics=("t1", "t2"))
    else:
        k, weights = 3, ("const", "pooled-risk", "complement", "group-risk:3")
        defaults = dict(case=1, beta=0.0, nu_mode="gamma", statistics=("chi2-u", "chi2-v"))
    defaults.update(kw)
    weights = defaults.pop("weights", weights)
    return SimConfig(
        group_sizes=(group_size,) * k,
        replications=replications,
        base_seed=base_seed,
        weight_specs=tuple(parse_weight_spec(w, k) for w in weights),
        **defaults,
    )


def per_weight_reading(cfg, rep):
    """The statistics and p-values from the public tests, shape (2,
    statistics, weights), one weight and statistic at a time, in
    weight-major order."""
    d = generate_dataset(cfg, rep)
    fits = fit_all(d)
    out = np.empty((2, len(cfg.statistics), len(cfg.weight_specs)))
    for w_idx, spec in enumerate(cfg.weight_specs):
        for s_idx, stat in enumerate(cfg.statistics):
            if stat in ("t1", "t2"):
                report, key = two_sample_tests(d, spec, fits=fits), stat.upper()
            elif stat == "chi2-u":
                report, key = chi2_u_test(d, spec, fits=fits), "chi2"
            else:
                report, key = chi2_v_test(d, spec, fits=fits), "chi2"
            out[:, s_idx, w_idx] = report.statistics[key], report.p_values[key]
    return out


# sha256 over replications 0-19 of each benchmark design: every solve's
# SolveDiagnostics (iterations, status, log-likelihood, Fenchel residual and
# trace, as float64 bytes) and the p-value part of the replication's reading
REPLICATION_DIGESTS = {
    "power_2s": "2a60d0ad39678bddbea7c8eb5018c26607f1becc03890e079aa6cf43b12663f5",
    "chi2_k3": "6e8d1ad8e09f3b4895e65abbd34bc3ee1fb33866cebe6c31c826751f8baad6be",
}


def replication_digest(cfg, replications):
    h = hashlib.sha256()
    for rep in range(replications):
        try:
            fits = fit_all(generate_dataset(cfg, rep))
            diags = (fits.pooled_diag, *fits.group_diags)
        except SolverConvergenceError as exc:
            diags = (exc.diagnostics,)
        for diag in diags:
            h.update(f"{diag.iterations}:{diag.status}".encode())
            floats = [diag.loglik, diag.fenchel_residual, *diag.loglik_trace]
            h.update(np.array(floats, dtype="<f8").tobytes())
        result = simulation._replication_worker((cfg, rep))
        if isinstance(result, str):
            h.update(result.encode())
        else:
            h.update(np.ascontiguousarray(result[1], dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("design", sorted(REPLICATION_DIGESTS))
def test_replications_match_digest(design):
    cfg = mc_cfg(design)
    assert replication_digest(cfg, cfg.replications) == REPLICATION_DIGESTS[design]


@pytest.mark.parametrize("design", ["power_2s", "chi2_k3"])
def test_replication_pvalues_equal_per_weight_tests(design):
    # the statistics part as well as the p-values
    cfg = mc_cfg(design)
    for rep in range(cfg.replications):
        np.testing.assert_array_equal(
            simulation._replication_reading(cfg, rep), per_weight_reading(cfg, rep)
        )


# Replications of a 2+2 design that fail, each with the error the public
# tests raise first; statistic order decides between the two degenerate cases.
FAILING = [
    (("t1", "chi2-u", "chi2-v"), 62, DegenerateVarianceError),
    (("chi2-v", "t2"), 62, DegenerateCovarianceError),
    (("chi2-u", "chi2-v"), 4, IncrementMismatchError),
    (("t2",), 0, SolverConvergenceError),
]


@pytest.mark.parametrize("statistics, rep, error", FAILING)
def test_failing_replication_raises_the_per_weight_error(statistics, rep, error):
    cfg = mc_cfg(
        "power_2s",
        group_size=2,
        base_seed=3,
        beta=0.0,
        nu_mode="gamma",
        weights=("w1", "complement", "group-risk:2"),
        statistics=statistics,
    )
    with pytest.raises(error):
        per_weight_reading(cfg, rep)
    with pytest.raises(error):
        simulation._replication_reading(cfg, rep)


def fits_by_paths(d):
    """``fit_all``'s solves on path-built datasets: the pooled NPMLE, then one
    per group over that group's paths relabeled to 1, started from the pooled
    NPMLE, each checked in turn."""
    pooled = npmle(PanelDataset.from_paths(d.paths, k=d.k))
    if not pooled[1].converged:
        raise SolverConvergenceError(f"pooled NPMLE did not converge ({pooled[1].status})", pooled[1])
    groups = []
    for l in range(1, d.k + 1):
        kept = [replace(p, group=1) for p in d.paths if p.group == l]
        est, diag = npmle(PanelDataset.from_paths(kept, k=1), _start=pooled[0])
        if not diag.converged:
            raise SolverConvergenceError(f"group {l} NPMLE did not converge ({diag.status})", diag)
        groups.append((est, diag))
    return pooled, groups


def assert_same_fit(a, b):
    (est_a, diag_a), (est_b, diag_b) = a, b
    np.testing.assert_array_equal(est_a.support, est_b.support)
    np.testing.assert_array_equal(est_a.values, est_b.values)
    assert diag_a == diag_b


@pytest.mark.parametrize(
    "cfg",
    [
        mc_cfg("power_2s", group_size=2, base_seed=3, beta=0.0, nu_mode="gamma", replications=80),
        mc_cfg("chi2_k3", group_size=5, replications=20),
    ],
    ids=["2+2", "5+5+5"],
)
def test_group_fits_are_npmle_of_restricted_groups(cfg):
    raised = 0
    for rep in range(cfg.replications):
        d = generate_dataset(cfg, rep)
        try:
            expected = fits_by_paths(d)
        except SolverConvergenceError as exc:
            raised += 1
            with pytest.raises(SolverConvergenceError) as got:
                fit_all(d)
            assert str(got.value) == str(exc)
            assert got.value.diagnostics == exc.diagnostics
            continue
        fits = fit_all(d)
        assert_same_fit((fits.pooled, fits.pooled_diag), expected[0])
        for l in range(d.k):
            assert_same_fit((fits.groups[l], fits.group_diags[l]), expected[1][l])
    assert cfg.group_sizes[0] > 2 or raised > 0
