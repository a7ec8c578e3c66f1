import math

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
    two_sample_tests,
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


class TestSimConfig:
    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(base_seed=-1), "base_seed must be >= 0, got -1"),
            (dict(base_seed=1.5), "base_seed must be an integer, got 1.5"),
            (dict(base_seed=True), "base_seed must be an integer, got True"),
            (dict(replications=2.5), "replications must be an integer, got 2.5"),
            (dict(group_sizes=(2.5, 3)), "group size must be an integer, got 2.5"),
            (dict(group_sizes=(3, False)), "group size must be an integer, got False"),
        ],
    )
    def test_rejects_seeds_and_counts_that_are_no_nonnegative_integers(self, kw, message):
        with pytest.raises(ValueError, match=message):
            small_cfg(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(alpha=1), r"alpha must lie in \(0, 1\)"),
            (dict(nu_mode="x"), "nu_mode must be 'fixed' or 'gamma'"),
            (dict(group_sizes=(0, 5)), "group sizes must be positive"),
            (dict(weight_specs=()), "weight_specs must hold at least one weight"),
            (dict(group_sizes=(), statistics=()), "group_sizes must hold at least one group"),
            (dict(weight_specs=(WeightSpec(WeightKind.GROUP_RISK, 0),)), r"weight group 0 outside 1\.\.2"),
            (dict(weight_specs=(WeightSpec(WeightKind.GROUP_RISK, 3),)), r"weight group 3 outside 1\.\.2"),
        ],
    )
    def test_rejects_values_out_of_range(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_cfg(**kw)

    def test_numpy_integers_are_integers(self):
        cfg = small_cfg(group_sizes=(np.int64(3), 4), base_seed=np.int64(0), replications=np.int32(2))
        assert cfg.group_sizes == (3, 4)
        assert type(cfg.group_sizes[0]) is int


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

    @pytest.mark.parametrize("case", [True, 2.0, 1.0])
    def test_case_must_be_an_integer(self, case):
        with pytest.raises(ValueError, match="case must be 1 or 2"):
            TrueMean(case=case, beta=0.0, group=1)
        with pytest.raises(ValueError, match="case must be 1 or 2"):
            small_cfg(case=case)

    def test_case_2_needs_a_nonnegative_beta(self):
        with pytest.raises(ValueError, match="^case 2 requires beta >= 0$"):
            TrueMean(case=2, beta=-1, group=2)

    def test_numpy_integer_case(self):
        assert TrueMean(case=np.int64(2), beta=1.0, group=2)(4.0) == 2.0
        assert small_cfg(case=np.int64(2)).case == 2


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

    def test_needs_a_statistic(self):
        with pytest.raises(ValueError, match="^run_power_study needs at least one statistic$"):
            run_power_study([small_cfg(statistics=())])


class TestQqStudy:
    def test_shape_and_sorted(self):
        cfg = small_cfg(replications=8, group_sizes=(15, 15))
        table, failures = qq_study(cfg)
        assert table.shape == (8, 2)
        assert sum(failures.values()) == 0
        assert np.all(np.diff(table[:, 1]) >= 0)
        assert np.all(np.diff(table[:, 0]) > 0)

    def test_requires_null(self):
        with pytest.raises(ValueError):
            qq_study(small_cfg(beta=0.1, replications=2))

    def test_two_sample_statistics_only(self):
        with pytest.raises(ValueError, match=r"^qq_study takes one two-sample statistic, t1 or t2, got \('chi2-u',\)$"):
            qq_study(small_cfg(replications=2, statistics=("chi2-u",)))

    @pytest.mark.parametrize("statistics", [("t1", "t2"), ()])
    def test_statistic_read_from_cfg_alone(self, statistics):
        with pytest.raises(ValueError, match="^qq_study takes one two-sample statistic, t1 or t2"):
            qq_study(small_cfg(replications=2, statistics=statistics))

    def test_one_weight_only(self):
        weights = (CONST, WeightSpec(WeightKind.COMPLEMENT))
        with pytest.raises(ValueError, match="^qq_study takes one weight, got 2$"):
            qq_study(small_cfg(replications=2, weight_specs=weights))

    @pytest.mark.parametrize("stat", ["t1", "t2"])
    def test_equals_the_public_two_sample_test(self, stat):
        # the public test run on each replication: the table holds, bit for
        # bit, the statistics of the calls that return, and the failure
        # counts are the causes of the calls that raise
        cfg = SimConfig(group_sizes=(10, 10), replications=300, base_seed=1, statistics=(stat,))
        (weight,) = cfg.weight_specs
        values, raised = [], []
        for rep in range(cfg.replications):
            try:
                report = two_sample_tests(generate_dataset(cfg, rep), weight)
            except tuple(simulation.FAILURE_CAUSES) as exc:
                raised.append(simulation.FAILURE_CAUSES[type(exc)])
            else:
                values.append(report.statistics[stat.upper()])
        table, failures = qq_study(cfg)
        assert table[:, 1].tobytes() == np.sort(values).tobytes()
        assert failures == {cause: raised.count(cause) for cause in simulation.FAILURE_CAUSES.values()}
        assert raised, "no replication fails, so the failure path goes unchecked"

    def test_deterministic(self):
        cfg = small_cfg(replications=5, group_sizes=(15, 15))
        np.testing.assert_array_equal(qq_study(cfg)[0], qq_study(cfg)[0])

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = small_cfg(replications=6, group_sizes=(15, 15), statistics=("t1",))
        serial, _ = qq_study(cfg)
        monkeypatch.setenv("PCT_THREADS", "2")
        np.testing.assert_array_equal(qq_study(cfg)[0], serial)

    def test_failures_counted_by_cause_as_in_the_power_study(self, monkeypatch):
        # 2+2 subjects: about half of the replications fail
        cfg = small_cfg(group_sizes=(2, 2), replications=40, base_seed=0)
        (row,) = run_power_study([cfg])
        table, failures = qq_study(cfg)
        assert tuple(failures.values()) == failure_causes(row) == (14, 7, 0, 0)
        assert list(failures) == list(simulation.FAILURE_CAUSES.values())
        assert table.shape == (19, 2)
        assert np.all(np.diff(table[:, 1]) >= 0)
        # the theoretical quantiles are those of 19 points
        assert table[0, 0] == pytest.approx(-table[-1, 0]) == pytest.approx(-1.9379, abs=1e-4)
        monkeypatch.setenv("PCT_THREADS", "2")
        parallel, parallel_failures = qq_study(cfg)
        np.testing.assert_array_equal(parallel, table)
        assert parallel_failures == failures


class TestMapReplications:
    def test_no_more_processes_than_replications(self, monkeypatch):
        started = []

        class SerialExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", SerialExecutor)
        monkeypatch.setenv("PCT_THREADS", "64")
        for reps in (3, 1):
            result = simulation._map_replications(small_cfg(replications=reps), lambda job: job[1])
            assert result == list(range(reps))
        assert started == [3]
