"""Acceptance suite: quantitative exit criteria for the whole package.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The Monte Carlo cells are shared through module-scoped fixtures and run on
every core unless ``PCT_THREADS`` is set; everything is seeded and
deterministic, serially or in parallel.  The two external-data checks at the
end are skipped unless the corresponding environment variables point at
local CSV copies of the published datasets.
"""

import math
import os

import numpy as np
import pytest
import scipy.stats

from panelcount import (
    IcmConfig,
    PanelDataset,
    SimConfig,
    StepEstimate,
    WeightKind,
    WeightSpec,
    build_time_grid,
    chi2_u_test,
    chi2_v_test,
    empirical_l2_distance,
    generate_dataset,
    weighted_score_residual,
    log_likelihood,
    npmle,
    npmple,
    qq_study,
    run_power_study,
    two_sample_tests,
)
from panelcount.cli import read_dataset_csv
from conftest import random_dataset
from _oracles import brute_force_npmle, isotonic_brute_force

W1 = WeightSpec(WeightKind.CONST)
W2 = WeightSpec(WeightKind.POOLED_RISK)
W3 = WeightSpec(WeightKind.RISK_PRODUCT, 2)
W4 = WeightSpec(WeightKind.COMPLEMENT)
TIGHT = IcmConfig(fenchel_tol=1e-10)

REPS = 1000
SEED = 20260811


def report(num, name, ok, detail):
    print(f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def rates_by_weight(rows, statistic="t2"):
    return {r.weight: r.reject_rate for r in rows if r.statistic == statistic}


@pytest.fixture(scope="module", autouse=True)
def studies_on_every_core():
    """Run this module's studies on every core unless ``PCT_THREADS`` is set;
    serial and parallel studies give identical results."""
    with pytest.MonkeyPatch.context() as mp:
        if "PCT_THREADS" not in os.environ:
            mp.setenv("PCT_THREADS", str(os.cpu_count() or 1))
        yield


@pytest.fixture(scope="module")
def table1_cells():
    cfgs = [
        SimConfig(
            case=1, beta=0.0, group_sizes=(50, 50), nu_mode="fixed",
            replications=REPS, base_seed=SEED, weight_specs=(W1, W2, W3, W4),
            statistics=("t2",),
        )
    ] + [
        SimConfig(
            case=1, beta=b, group_sizes=(50, 50), nu_mode="fixed",
            replications=REPS, base_seed=SEED + i, weight_specs=(W1,),
            statistics=("t2",),
        )
        for i, b in enumerate([0.1, 0.2, 0.3], start=1)
    ]
    rows = run_power_study(cfgs)
    return {
        "null": rates_by_weight([r for r in rows if r.beta == 0.0]),
        "power": {r.beta: r.reject_rate for r in rows if r.weight == "const"},
        "failures": max(r.failures for r in rows),
        "suspect": any(r.suspect for r in rows),
    }


@pytest.fixture(scope="module")
def table3_cell():
    cfg = SimConfig(
        case=2, beta=5.0, group_sizes=(50, 50), nu_mode="fixed",
        replications=REPS, base_seed=SEED + 40, weight_specs=(W1, W2, W4),
        statistics=("t2",),
    )
    rows = run_power_study([cfg])
    return rates_by_weight(rows), any(r.suspect for r in rows)


@pytest.fixture(scope="module")
def table2_cell():
    cfg = SimConfig(
        case=1, beta=0.3, group_sizes=(100, 100), nu_mode="gamma",
        replications=REPS, base_seed=SEED + 50, weight_specs=(W1,),
        statistics=("t2",),
    )
    (row,) = run_power_study([cfg])
    return row


@pytest.fixture(scope="module")
def qq_table():
    cfg = SimConfig(
        case=1, beta=0.0, group_sizes=(100, 100), nu_mode="fixed",
        replications=REPS, base_seed=SEED + 60, weight_specs=(W1,),
        statistics=("t2",),
    )
    table, failures = qq_study(cfg)
    assert sum(failures.values()) == 0, failures
    return table


@pytest.mark.slow
def test_criterion_01_table1_null_size(table1_cells):
    targets = {"const": 0.060, "pooled-risk": 0.058, "risk-product:2": 0.058, "complement": 0.056}
    got = table1_cells["null"]
    ok = all(abs(got[w] - t) <= 0.025 for w, t in targets.items())
    ok = ok and not table1_cells["suspect"]
    detail = ", ".join(f"{w}={got[w]:.3f} (target {t})" for w, t in targets.items())
    report(1, "Table 1 null size, T2 w1-w4", ok, detail)


@pytest.mark.slow
def test_criterion_02_table1_power(table1_cells):
    power = table1_cells["power"]
    curve = [power[b] for b in (0.0, 0.1, 0.2, 0.3)]
    ok = abs(power[0.2] - 0.858) <= 0.05
    ok = ok and all(a < b for a, b in zip(curve, curve[1:]))
    detail = f"beta=0.2 -> {power[0.2]:.3f} (target 0.858); curve {['%.3f' % c for c in curve]}"
    report(2, "Table 1 power and monotonicity in beta", ok, detail)


@pytest.mark.slow
def test_criterion_03_table3_crossing_means(table3_cell):
    rates, suspect = table3_cell
    ok = (
        rates["complement"] >= 0.99
        and abs(rates["pooled-risk"] - 0.080) <= 0.05
        and abs(rates["const"] - 0.969) <= 0.05
        and not suspect
    )
    detail = (
        f"w4={rates['complement']:.3f} (>=0.99), w2={rates['pooled-risk']:.3f} "
        f"(target 0.080), w1={rates['const']:.3f} (target 0.969)"
    )
    report(3, "Table 3 weight-sensitivity pattern", ok, detail)


@pytest.mark.slow
def test_criterion_04_table2_mixed_poisson(table2_cell):
    ok = abs(table2_cell.reject_rate - 0.708) <= 0.06 and not table2_cell.suspect
    report(
        4,
        "Table 2 mixed-Poisson power",
        ok,
        f"T2 w1 = {table2_cell.reject_rate:.3f} (target 0.708 +/- 0.06)",
    )


@pytest.mark.slow
def test_criterion_05_qq_normality(qq_table):
    theo, emp = qq_table[:, 0], qq_table[:, 1]
    slope = float(np.polyfit(theo, emp, 1)[0])
    ks = float(scipy.stats.kstest(emp, "norm").statistic)
    ok = 0.9 <= slope <= 1.1 and ks <= 0.05
    report(5, "QQ normality of null T2 (n=200)", ok, f"slope={slope:.3f}, KS={ks:.3f}")


@pytest.mark.slow
def test_qq_null_median_near_zero(qq_table):
    assert abs(float(np.median(qq_table[:, 1]))) <= 0.1


def test_criterion_06_oracle_equivalence():
    from conftest import path as mkpath

    rng = np.random.default_rng(SEED + 70)
    worst_gap = 0.0
    for _ in range(50):
        paths = []
        for i in range(int(rng.integers(1, 4))):
            n_visits = int(rng.integers(1, 4))
            times = np.sort(rng.choice([1.0, 2.0, 3.0], size=n_visits, replace=False))
            counts = np.cumsum(rng.poisson(1.0, size=n_visits)).astype(float)
            paths.append(mkpath(f"s{i}", 1, times, counts))
        d = PanelDataset.from_paths(paths)
        est, _ = npmle(d, TIGHT)
        _, oracle_ll = brute_force_npmle(d)
        gap = abs(log_likelihood(d, est) - oracle_ll)
        worst_gap = max(worst_gap, gap)
        pm = npmple(d)
        grid = build_time_grid(d)
        w = np.zeros(grid.m)
        ybar = np.zeros(grid.m)
        points = grid.points.tolist()
        for p in d.paths:
            for t, c in zip(p.times, p.counts):
                ell = points.index(t)
                w[ell] += 1
                ybar[ell] += c
        ybar /= w
        brute = isotonic_brute_force(ybar, w)
        np.testing.assert_allclose(pm.values, brute, rtol=0, atol=1e-12)
    ok = worst_gap <= 1e-6
    report(6, "NPMLE/NPMPLE oracle equivalence (50 tiny instances)", ok, f"worst ll gap {worst_gap:.2e}")


def test_criterion_07_certificate_suite():
    rng = np.random.default_rng(SEED + 80)
    n_runs = 0
    n_converged = 0
    worst_score = 0.0
    worst_resid = 0.0
    for trial in range(40):
        if trial % 2:
            d = random_dataset(rng, int(rng.integers(5, 60)), k=1, rate=1.2)
        else:
            cfg = SimConfig(
                case=1, beta=0.2, group_sizes=(15, 15), replications=1,
                base_seed=SEED + 81 + trial,
            )
            d = generate_dataset(cfg, 0)
        est, diag = npmle(d, TIGHT)
        n_runs += 1
        assert log_likelihood(d, est) >= log_likelihood(d, npmple(d)) - 1e-9
        assert np.all(np.diff(diag.loglik_trace) >= 0)
        if diag.converged:
            n_converged += 1
            worst_resid = max(worst_resid, diag.fenchel_residual)
            for phi in (lambda x: 1.0, lambda x: x, lambda x: x * x):
                worst_score = max(worst_score, abs(weighted_score_residual(d, est, phi)) / d.n)
    ok = n_converged >= 0.95 * n_runs and worst_score <= 1e-6 and worst_resid <= TIGHT.fenchel_tol
    report(
        7,
        "Certificates on every converged solve",
        ok,
        f"{n_converged}/{n_runs} converged, worst score residual/n {worst_score:.2e}",
    )


@pytest.mark.slow
def test_criterion_08_k3_chi2_calibration():
    cfg = SimConfig(
        case=1, beta=0.0, group_sizes=(50, 50, 50), nu_mode="fixed",
        replications=REPS, base_seed=SEED + 90, weight_specs=(W1,),
        statistics=("chi2-u", "chi2-v"),
    )
    rows = run_power_study([cfg])
    rates = {r.statistic: r.reject_rate for r in rows}
    ok = all(abs(rates[s] - 0.05) <= 0.02 for s in ("chi2-u", "chi2-v"))
    ok = ok and not any(r.suspect for r in rows)
    report(
        8,
        "k=3 chi-square size at alpha=0.05",
        ok,
        f"U-test {rates['chi2-u']:.3f}, V-test {rates['chi2-v']:.3f}",
    )


@pytest.mark.slow
def test_criterion_09_d1_consistency_trend():
    medians = {}
    for n, seed_off in ((100, 100), (400, 101)):
        cfg = SimConfig(
            case=1, beta=0.0, group_sizes=(n,), nu_mode="fixed",
            replications=200, base_seed=SEED + seed_off, statistics=(),
        )
        dists = []
        for rep in range(200):
            d = generate_dataset(cfg, rep)
            est, _ = npmle(d)
            grid = build_time_grid(d)
            truth = StepEstimate(support=grid.points, values=grid.points)
            dists.append(empirical_l2_distance(d, est, truth))
        medians[n] = float(np.median(dists))
    ratio = medians[400] / medians[100]
    ok = ratio <= 0.75
    report(
        9,
        "d1 consistency trend (n=400 vs n=100)",
        ok,
        f"medians {medians[100]:.4f} -> {medians[400]:.4f}, ratio {ratio:.3f} (expect ~0.63)",
    )


GALLSTONE = os.environ.get("PANELCOUNT_GALLSTONE_CSV")
BLADDER = os.environ.get("PANELCOUNT_BLADDER_CSV")


@pytest.mark.skipif(not GALLSTONE, reason="external gallstone dataset not supplied")
def test_criterion_10a_gallstone_two_sample():
    d = read_dataset_csv(GALLSTONE)
    rep = two_sample_tests(d, W1)
    ok = (
        abs(rep.statistics["T1"] - 0.175) <= 0.005
        and abs(rep.statistics["T2"] - 0.206) <= 0.005
        and abs(rep.p_values["T1"] - 0.861) <= 0.005
        and abs(rep.p_values["T2"] - 0.837) <= 0.005
    )
    report(
        10,
        "Gallstone two-sample reproduction",
        ok,
        f"T1={rep.statistics['T1']:.3f}, T2={rep.statistics['T2']:.3f}",
    )


@pytest.mark.skipif(not BLADDER, reason="external bladder dataset not supplied")
def test_criterion_10b_bladder_chi2():
    d = read_dataset_csv(BLADDER)
    u_rep = chi2_u_test(d, W1)
    v_rep = chi2_v_test(d, W1)
    ok = (
        abs(u_rep.statistics["chi2"] - 3.617) <= 0.005
        and abs(v_rep.statistics["chi2"] - 3.269) <= 0.005
        and abs(u_rep.p_values["chi2"] - 0.164) <= 0.005
        and abs(v_rep.p_values["chi2"] - 0.195) <= 0.005
    )
    report(
        10,
        "Bladder chi-square reproduction",
        ok,
        f"chi2 U={u_rep.statistics['chi2']:.3f}, V={v_rep.statistics['chi2']:.3f}",
    )
