import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from panelcount import (
    SimConfig,
    ThreadCountError,
    TrueMean,
    WeightKind,
    WeightSpec,
    generate_dataset,
    mean_for_group,
    qq_study,
    run_power_study,
    sample_subject,
    validate_dataset,
)
from panelcount import simulation

CONST = WeightSpec(WeightKind.CONST)


def failure_causes(row):
    return (
        row.solver_convergence,
        row.increment_mismatch,
        row.degenerate_covariance,
        row.degenerate_variance,
    )


def fail_first_record_rest(job):
    """Fails on replication 0; every other replication takes 20 ms and leaves
    a file named after it in the directory ``$RAN_DIR``."""
    _, rep = job
    if rep == 0:
        raise RuntimeError("replication 0 failed")
    time.sleep(0.02)
    (Path(os.environ["RAN_DIR"]) / str(rep)).touch()


def small_cfg(**kw):
    defaults = dict(
        case=1,
        beta=0.0,
        group_sizes=(12, 12),
        nu_mode="fixed",
        replications=4,
        base_seed=99,
        weight_specs=(CONST,),
        statistics=("t2",),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestTrueMean:
    def test_case1_groups(self):
        assert mean_for_group(1, 0.2, 1)(3.0) == 3.0
        assert math.isclose(mean_for_group(1, 0.2, 2)(3.0), 3.0 * math.exp(0.2))

    def test_case2_crosses_baseline_at_beta(self):
        tm = mean_for_group(2, 5.0, 2)
        assert math.isclose(tm(5.0), 5.0)
        assert tm(4.0) > 4.0
        assert tm(6.0) < 6.0

    def test_null_identity(self):
        g1 = mean_for_group(1, 0.0, 1)
        g2 = mean_for_group(1, 0.0, 2)
        ts = np.linspace(0, 10, 20)
        np.testing.assert_allclose(g1(ts), g2(ts))

    def test_nondecreasing_and_zero_at_origin(self):
        for tm in (mean_for_group(1, 0.3, 2), mean_for_group(2, 5.0, 2)):
            ts = np.linspace(0.0, 10.0, 50)
            assert tm(0.0) == 0.0
            assert np.all(np.diff(tm(ts)) >= 0)

    def test_invalid_case(self):
        with pytest.raises(ValueError):
            TrueMean(case=3, beta=0.0, group=1)


class TestSampleSubject:
    def test_path_shape_and_support(self, rng):
        tm = mean_for_group(1, 0.0, 1)
        for _ in range(200):
            p = sample_subject(tm, "fixed", rng)
            assert 1 <= p.n_visits <= 10
            assert np.all(np.diff(p.times) > 0)
            assert set(p.times.tolist()) <= set(float(t) for t in range(1, 11))
            assert np.all(np.diff(p.counts) >= 0)
            assert p.counts[0] >= 0

    def test_poisson_increment_moments(self, rng):
        # case 1 baseline: N(t) is Poisson(t), so the mean count at t is t
        tm = mean_for_group(1, 0.0, 1)
        by_time = {t: [] for t in range(1, 11)}
        for _ in range(10_000):
            p = sample_subject(tm, "fixed", rng)
            for t, c in zip(p.times, p.counts):
                by_time[int(t)].append(c)
        for t in range(1, 11):
            vals = np.asarray(by_time[t])
            se = math.sqrt(t / vals.size)
            assert abs(vals.mean() - t) <= 3 * se

    def test_mixed_poisson_mean_preserved(self, rng):
        # E[nu] = 1 under Gamma(shape 2, scale 1/2), so E[N(10)] = 10 e^0.2
        tm = mean_for_group(1, 0.2, 2)
        target = 10.0 * math.exp(0.2)
        vals = []
        for _ in range(8000):
            p = sample_subject(tm, "gamma", rng)
            if p.times[-1] == 10.0:
                vals.append(p.counts[-1])
        vals = np.asarray(vals)
        # Var(N(10)) = target + target^2 * Var(nu) with Var(nu) = 1/2
        se = math.sqrt((target + 0.5 * target**2) / vals.size)
        assert abs(vals.mean() - target) <= 3 * se

    def test_gamma_parameterization_moments(self, rng):
        draws = rng.gamma(shape=2.0, scale=0.5, size=100_000)
        assert abs(draws.mean() - 1.0) <= 3 * math.sqrt(0.5 / draws.size)
        assert abs(draws.var() - 0.5) <= 3 * math.sqrt(2.0 / draws.size)

    def test_overdispersion_under_mixing(self, rng):
        tm = mean_for_group(1, 0.0, 1)
        fixed, mixed = [], []
        for _ in range(4000):
            p = sample_subject(tm, "fixed", rng)
            if p.times[-1] == 10.0:
                fixed.append(p.counts[-1])
            p = sample_subject(tm, "gamma", rng)
            if p.times[-1] == 10.0:
                mixed.append(p.counts[-1])
        assert np.var(mixed) > 1.5 * np.var(fixed)


class TestGenerateDataset:
    @pytest.mark.parametrize("nu_mode", ["fixed", "gamma"])
    @pytest.mark.parametrize("case", [1, 2])
    def test_draws_are_those_of_sample_subject(self, case, nu_mode):
        beta = 0.2 if case == 1 else 5.0
        cfg = small_cfg(
            case=case, beta=beta, nu_mode=nu_mode, group_sizes=(7, 5, 6), statistics=("chi2-u",)
        )
        for rep in range(4):
            rng = simulation._replication_rng(cfg.base_seed, rep)
            replayed = tuple(
                sample_subject(mean_for_group(case, beta, g), nu_mode, rng, subject_id=f"g{g}s{i}")
                for g, size in enumerate(cfg.group_sizes, start=1)
                for i in range(size)
            )
            paths = generate_dataset(cfg, rep).paths
            assert paths == replayed
            for p, q in zip(paths, replayed):
                assert (p.group, p.times.dtype, p.counts.dtype) == (q.group, q.times.dtype, q.counts.dtype)

    def test_deterministic(self):
        cfg = small_cfg()
        d1 = generate_dataset(cfg, 3)
        d2 = generate_dataset(cfg, 3)
        assert d1 == d2

    def test_different_replications_differ(self):
        cfg = small_cfg()
        assert generate_dataset(cfg, 0) != generate_dataset(cfg, 1)

    def test_group_sizes_honored(self):
        cfg = small_cfg(group_sizes=(5, 9))
        d = generate_dataset(cfg, 0)
        assert d.group_sizes == (5, 9)

    def test_generated_data_validate(self):
        for rep in range(5):
            report = validate_dataset(generate_dataset(small_cfg(), rep))
            assert report.ok

    def test_three_groups_supported(self):
        cfg = small_cfg(group_sizes=(4, 4, 4), statistics=("chi2-u",))
        d = generate_dataset(cfg, 0)
        assert d.k == 3
        assert validate_dataset(d).ok


class TestRunPowerStudy:
    def test_reproducible(self):
        cfg = small_cfg(replications=6, group_sizes=(15, 15))
        rows1 = run_power_study([cfg])
        rows2 = run_power_study([cfg])
        assert rows1 == rows2

    def test_single_replication_zero_or_one(self):
        rows = run_power_study([small_cfg(replications=1, group_sizes=(15, 15))])
        assert rows[0].reject_rate in (0.0, 1.0)

    def test_row_per_statistic_weight(self):
        cfg = small_cfg(
            replications=2,
            group_sizes=(15, 15),
            weight_specs=(CONST, WeightSpec(WeightKind.POOLED_RISK)),
            statistics=("t1", "t2"),
        )
        rows = run_power_study([cfg])
        assert len(rows) == 4
        assert {(r.statistic, r.weight) for r in rows} == {
            ("t1", "const"),
            ("t1", "pooled-risk"),
            ("t2", "const"),
            ("t2", "pooled-risk"),
        }

    def test_chi2_statistics_three_groups(self):
        cfg = small_cfg(group_sizes=(10, 10, 10), statistics=("chi2-u", "chi2-v"), replications=3)
        rows = run_power_study([cfg])
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= r.reject_rate <= 1.0
            assert not r.suspect

    def test_two_sample_stats_require_two_groups(self):
        with pytest.raises(ValueError):
            small_cfg(group_sizes=(5, 5, 5), statistics=("t2",))

    def test_parallel_matches_serial(self, monkeypatch):
        # the second cell's tiny groups make some replications fail
        cfgs = [
            small_cfg(replications=6, group_sizes=(15, 15)),
            small_cfg(replications=12, group_sizes=(4, 4)),
        ]
        serial = run_power_study(cfgs)
        monkeypatch.setenv("PCT_THREADS", "2")
        parallel = run_power_study(cfgs)
        assert serial == parallel
        assert [failure_causes(r) for r in parallel] == [failure_causes(r) for r in serial]
        assert failure_causes(serial[1]) == (4, 1, 0, 0)

    @pytest.mark.parametrize(
        "statistics, causes",
        [(("chi2-v", "t2"), (29, 12, 2, 0)), (("t2",), (29, 12, 0, 2))],
    )
    def test_failures_by_cause(self, statistics, causes):
        # 2+2 subjects: most replications fail, one of them on a zero weight.
        # Replication 50 fails on a degenerate (co)variance too: time 8
        # starts and ends no row with events, so group 1's estimate takes its
        # value at time 7 there and does not grow where the pooled one is flat.
        cfg = small_cfg(
            group_sizes=(2, 2),
            nu_mode="gamma",
            replications=63,
            base_seed=3,
            weight_specs=(CONST, WeightSpec(WeightKind.COMPLEMENT), WeightSpec(WeightKind.GROUP_RISK, 2)),
            statistics=statistics,
        )
        rows = run_power_study([cfg])
        for r in rows:
            assert failure_causes(r) == causes
            assert r.failures == sum(causes)
            assert r.suspect

    def test_bad_thread_count_is_named(self, monkeypatch):
        monkeypatch.setenv("PCT_THREADS", "two")
        with pytest.raises(ThreadCountError, match="PCT_THREADS must be an integer, got 'two'"):
            run_power_study([small_cfg(replications=2)])


class TestQqStudy:
    def test_shape_and_sorted(self):
        cfg = small_cfg(replications=8, group_sizes=(15, 15))
        table = qq_study(cfg, "t2")
        assert table.shape == (8, 2)
        assert np.all(np.diff(table[:, 1]) >= 0)
        assert np.all(np.diff(table[:, 0]) > 0)

    def test_requires_null(self):
        with pytest.raises(ValueError):
            qq_study(small_cfg(beta=0.1, replications=2), "t2")

    def test_deterministic(self):
        cfg = small_cfg(replications=5, group_sizes=(15, 15))
        np.testing.assert_array_equal(qq_study(cfg, "t2"), qq_study(cfg, "t2"))

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = small_cfg(replications=6, group_sizes=(15, 15))
        serial = qq_study(cfg, "t1")
        monkeypatch.setenv("PCT_THREADS", "2")
        np.testing.assert_array_equal(qq_study(cfg, "t1"), serial)


class TestMapReplications:
    def test_failure_stops_remaining_replications(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RAN_DIR", str(tmp_path))
        monkeypatch.setenv("PCT_THREADS", "2")
        cfg = small_cfg(replications=400)
        with pytest.raises(RuntimeError, match="replication 0 failed"):
            simulation._map_replications(cfg, fail_first_record_rest)
        # 16 chunks of 25: without the stop, the chunks held by the workers
        # when replication 0 fails (100 replications) run to their end.
        assert len(list(tmp_path.iterdir())) < 25

    def test_no_more_processes_than_replications(self, monkeypatch):
        started = []

        class SerialExecutor:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialExecutor)
        monkeypatch.setattr(simulation, "_stop_event", None)
        monkeypatch.setenv("PCT_THREADS", "64")
        for reps in (3, 1):
            result = simulation._map_replications(small_cfg(replications=reps), lambda job: job[1])
            assert result == list(range(reps))
        assert started == [3]
