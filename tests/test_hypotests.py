import math
import pickle

import numpy as np
import pytest

from panelcount import (
    DegenerateCovarianceError,
    DegenerateVarianceError,
    IcmConfig,
    PanelDataset,
    SolverConvergenceError,
    WeightFn,
    WeightKind,
    WeightSpec,
    chi2_u_test,
    chi2_v_test,
    chisq_sf,
    covariance_u,
    covariance_v,
    fit_all,
    make_weight,
    normal_sf,
    npmle,
    sigma_hat_sq,
    two_sample_tests,
    u_statistics,
    v_statistics,
)
from conftest import TIGHT, path, random_dataset
from _oracles import sigma_sq_direct, u_stat_direct, v_stat_direct

CONST = WeightSpec(WeightKind.CONST)
MIXED = [CONST, WeightSpec(WeightKind.POOLED_RISK), WeightSpec(WeightKind.COMPLEMENT)]


def _pair(est):
    return est.support.tolist(), est.values.tolist()


def duplicated_groups(rng, n_per_group, k):
    base = random_dataset(rng, n_per_group, k=1, rate=1.2)
    paths = []
    for g in range(1, k + 1):
        for p in base.paths:
            paths.append(path(f"{p.subject_id}g{g}", g, p.times, p.counts))
    return PanelDataset.from_paths(paths, k=k)


class TestSigmaHatSq:
    def test_perfect_fit_degenerate(self):
        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0, 4.0], [2, 2, 5])])
        est, _ = npmle(d, TIGHT)
        for spec in (CONST, WeightSpec(WeightKind.POOLED_RISK)):
            w = make_weight(d, spec)
            assert abs(sigma_hat_sq(d, est, w)) <= 1e-12

    def test_zero_weight(self, two_subject_dataset):
        est, _ = npmle(two_subject_dataset, TIGHT)
        zero = WeightFn("zero", lambda t: np.zeros_like(t))
        assert sigma_hat_sq(two_subject_dataset, est, zero) == 0.0

    def test_matches_direct_evaluation(self, two_subject_dataset):
        d = two_subject_dataset
        est, _ = npmle(d, TIGHT)
        w = make_weight(d, WeightSpec(WeightKind.POOLED_RISK))
        direct = sigma_sq_direct(d, _pair(est), lambda t: w(t))
        assert math.isclose(sigma_hat_sq(d, est, w), direct, rel_tol=1e-10)

    def test_nonnegative(self, rng):
        d = random_dataset(rng, 18, k=2)
        fits = fit_all(d, TIGHT)
        w = make_weight(d, CONST)
        assert sigma_hat_sq(d, fits.pooled, w) >= 0.0

    def test_mismatched_estimate_rejected(self):
        from panelcount import IncrementMismatchError, StepEstimate

        d = PanelDataset.from_paths([path("a", 1, [1.0, 2.0], [1, 3])])
        flat_est = StepEstimate(support=[1.0, 2.0], values=[2.0, 2.0])
        with pytest.raises(IncrementMismatchError):
            sigma_hat_sq(d, flat_est, make_weight(d, CONST))


class TestUStatistics:
    def test_single_group_is_exactly_zero(self, rng):
        d = random_dataset(rng, 17, k=1)
        u = u_statistics(d, [CONST], cfg=TIGHT)
        assert u.shape == (1,)
        assert u[0] == 0.0

    def test_duplicated_groups_near_zero(self, rng):
        d = duplicated_groups(rng, 10, 2)
        u = u_statistics(d, CONST, cfg=TIGHT)
        np.testing.assert_allclose(u, 0.0, atol=1e-7)

    def test_matches_direct_formula(self, rng):
        d2 = random_dataset(rng, 14, k=2, rate=1.5)
        w = make_weight(d2, WeightSpec(WeightKind.POOLED_RISK))
        d3 = random_dataset(rng, 18, k=3, rate=1.3)
        mixed = [make_weight(d3, spec) for spec in MIXED]
        # (dataset, weight argument, weight of each group's row)
        for d, weights, fns in ((d2, w, [w, w]), (d3, mixed, mixed)):
            fits = fit_all(d, TIGHT)
            u = u_statistics(d, weights, cfg=TIGHT, fits=fits)
            for l in range(1, d.k + 1):
                direct = u_stat_direct(
                    d, _pair(fits.pooled), _pair(fits.groups[l - 1]), fns[l - 1]
                )
                assert math.isclose(u[l - 1], direct, rel_tol=1e-9, abs_tol=1e-10)


class TestVStatistics:
    def test_duplicated_groups_zero(self, rng):
        d = duplicated_groups(rng, 10, 3)
        v = v_statistics(d, CONST, cfg=TIGHT)
        assert v.shape == (2,)
        np.testing.assert_allclose(v, 0.0, atol=1e-7)

    def test_contrast_identity_two_sample(self, rng):
        d = random_dataset(rng, 16, k=2, rate=1.4)
        fits = fit_all(d, TIGHT)
        w = make_weight(d, WeightSpec(WeightKind.POOLED_RISK))
        v = v_statistics(d, w, cfg=TIGHT, fits=fits)
        u = u_statistics(d, w, cfg=TIGHT, fits=fits)
        assert abs(v[0] - (u[0] - u[1])) <= 1e-10

    def test_contrast_identity_mixed_weights(self, rng):
        d = random_dataset(rng, 21, k=3, rate=1.1)
        fits = fit_all(d, TIGHT)
        specs = [CONST, WeightSpec(WeightKind.POOLED_RISK), WeightSpec(WeightKind.COMPLEMENT)]
        v = v_statistics(d, specs, cfg=TIGHT, fits=fits)
        for l in (2, 3):
            u_wl = u_statistics(d, [specs[l - 1]] * 3, cfg=TIGHT, fits=fits)
            assert abs(v[l - 2] - (u_wl[0] - u_wl[l - 1])) <= 1e-10

    def test_matches_direct_formula(self, rng):
        d = random_dataset(rng, 15, k=3, rate=1.3)
        fits = fit_all(d, TIGHT)
        w = make_weight(d, CONST)
        mixed = [make_weight(d, spec) for spec in MIXED]
        # (weight argument, weight of each group's row)
        for weights, fns in ((w, [w, w, w]), (mixed, mixed)):
            v = v_statistics(d, weights, cfg=TIGHT, fits=fits)
            for l in (2, 3):
                direct = v_stat_direct(
                    d,
                    _pair(fits.pooled),
                    _pair(fits.groups[0]),
                    _pair(fits.groups[l - 1]),
                    fns[l - 1],
                )
                assert math.isclose(v[l - 2], direct, rel_tol=1e-9, abs_tol=1e-10)

    def test_requires_two_groups(self, rng):
        with pytest.raises(ValueError):
            v_statistics(random_dataset(rng, 5, k=1), CONST)


class TestCovarianceMatrices:
    def test_two_equal_groups(self):
        cov = covariance_u([4, 4], [1.0, 1.0])
        np.testing.assert_allclose(cov, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_gamma_entries(self):
        nl = np.array([4.0, 4.0])
        got = math.sqrt(nl[0] / 8) - math.sqrt(8 / nl[0])
        assert math.isclose(got, -0.70711, abs_tol=5e-6)

    def test_zero_variances(self):
        np.testing.assert_array_equal(covariance_u([3, 5], [0.0, 0.0]), np.zeros((2, 2)))
        np.testing.assert_array_equal(covariance_v([3, 5], [0.0, 0.0]), np.zeros((1, 1)))

    def test_symmetry_random(self, rng):
        nl = rng.integers(2, 30, size=4)
        s2 = rng.uniform(0, 3, size=4)
        for cov in (covariance_u(nl, s2), covariance_v(nl, s2)):
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            assert np.all(np.diag(cov) >= 0)

    def test_v_two_sample(self):
        cov = covariance_v([4, 4], [1.0, 1.0])
        np.testing.assert_allclose(cov, [[4.0]], atol=1e-12)

    def test_v_three_equal_groups(self):
        cov = covariance_v([5, 5, 5], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(cov, [[6.0, 3.0], [3.0, 6.0]], atol=1e-12)


class TestChi2Tests:
    def test_identical_triplicated_groups(self, rng):
        d = duplicated_groups(rng, 12, 3)
        for test in (chi2_u_test, chi2_v_test):
            report = test(d, CONST, cfg=TIGHT)
            assert report.df == 2
            assert report.statistics["chi2"] <= 1e-8
            assert report.p_values["chi2"] >= 1.0 - 1e-6
            cov = np.array(report.covariance)
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)

    def test_quadratic_form_against_numpy_solve(self, rng):
        d = random_dataset(rng, 24, k=3, rate=1.5)
        fits = fit_all(d, TIGHT)
        report = chi2_u_test(d, CONST, cfg=TIGHT, fits=fits)
        u = u_statistics(d, CONST, cfg=TIGHT, fits=fits)
        cov = np.array(report.covariance)
        expected = float(u[:-1] @ np.linalg.solve(cov[:-1, :-1], u[:-1]))
        assert math.isclose(report.statistics["chi2"], expected, rel_tol=1e-9)
        report_v = chi2_v_test(d, CONST, cfg=TIGHT, fits=fits)
        v = v_statistics(d, CONST, cfg=TIGHT, fits=fits)
        cov_v = np.array(report_v.covariance)
        expected_v = float(v @ np.linalg.solve(cov_v, v))
        assert math.isclose(report_v.statistics["chi2"], expected_v, rel_tol=1e-9)

    def test_zero_weight_degenerate(self, rng):
        d = random_dataset(rng, 10, k=2)
        zero = WeightFn("zero", lambda t: np.zeros_like(t))
        with pytest.raises(DegenerateCovarianceError):
            chi2_u_test(d, zero, cfg=TIGHT)

    def test_requires_multiple_groups(self, rng):
        with pytest.raises(ValueError):
            chi2_u_test(random_dataset(rng, 6, k=1), CONST)


class TestTwoSampleTests:
    def test_equal_size_variance_combination(self, rng):
        d = random_dataset(rng, 20, k=2, rate=1.2)
        report = two_sample_tests(d, CONST, cfg=TIGHT)
        s1, s2 = report.variance["sigma1_sq"], report.variance["sigma2_sq"]
        assert math.isclose(
            report.variance["sigma_U"] ** 2, 0.5 * s1 + 0.5 * s2, rel_tol=1e-9
        )
        assert math.isclose(
            report.variance["sigma_V"] ** 2, 2.0 * (s1 + s2), rel_tol=1e-9
        )

    def test_identical_groups_accept(self, rng):
        d = duplicated_groups(rng, 10, 2)
        report = two_sample_tests(d, CONST, cfg=TIGHT)
        assert abs(report.statistics["T1"]) <= 1e-6
        assert abs(report.statistics["T2"]) <= 1e-6
        assert report.p_values["T1"] >= 1.0 - 1e-5
        assert report.p_values["T2"] >= 1.0 - 1e-5

    def test_requires_two_groups(self, rng):
        with pytest.raises(ValueError):
            two_sample_tests(random_dataset(rng, 9, k=3), CONST)

    def test_degenerate_variance(self):
        # identical observation schedules make the complement weight vanish
        d = PanelDataset.from_paths(
            [
                path("a", 1, [1.0, 2.0], [1, 2]),
                path("b", 1, [1.0, 2.0], [0, 3]),
                path("c", 2, [1.0, 2.0], [2, 2]),
                path("d", 2, [1.0, 2.0], [1, 1]),
            ]
        )
        with pytest.raises(DegenerateVarianceError):
            two_sample_tests(d, WeightSpec(WeightKind.COMPLEMENT), cfg=TIGHT)


class TestTailProbabilities:
    def test_normal_sf_symmetry(self):
        assert normal_sf(0.0) == 0.5

    def test_normal_sf_paper_value(self):
        assert math.isclose(2.0 * normal_sf(0.206), 0.837, abs_tol=5e-4)

    def test_normal_sf_accuracy(self):
        # reference values from the complementary error function identity
        assert math.isclose(normal_sf(1.959963984540054), 0.025, rel_tol=1e-12)
        assert math.isclose(normal_sf(5.0), 2.8665157187919333e-07, rel_tol=1e-10)

    def test_chisq_sf_df2_closed_form(self):
        assert math.isclose(chisq_sf(5.99146, 2), math.exp(-5.99146 / 2), rel_tol=1e-10)
        assert math.isclose(chisq_sf(5.99146, 2), 0.05, abs_tol=2e-6)

    def test_chisq_sf_df1_matches_normal(self):
        x = 3.21
        assert math.isclose(chisq_sf(x * x, 1), 2 * normal_sf(x), rel_tol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chisq_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)


class TestStatisticInvariants:
    def test_scale_equivariance_of_const_weight(self, rng):
        d = random_dataset(rng, 18, k=2, rate=1.3)
        fits = fit_all(d, TIGHT)
        c = 3.7
        one = make_weight(d, CONST)
        scaled = WeightFn("scaled", lambda t: c * np.ones_like(t))
        u1 = u_statistics(d, one, cfg=TIGHT, fits=fits)
        uc = u_statistics(d, scaled, cfg=TIGHT, fits=fits)
        np.testing.assert_allclose(uc, c * u1, rtol=1e-9)
        v1 = v_statistics(d, one, cfg=TIGHT, fits=fits)
        vc = v_statistics(d, scaled, cfg=TIGHT, fits=fits)
        np.testing.assert_allclose(vc, c * v1, rtol=1e-9)
        s_one = sigma_hat_sq(d, fits.pooled, one)
        s_c = sigma_hat_sq(d, fits.pooled, scaled)
        assert math.isclose(s_c, c * c * s_one, rel_tol=1e-9)
        r1 = two_sample_tests(d, one, cfg=TIGHT, fits=fits)
        rc = two_sample_tests(d, scaled, cfg=TIGHT, fits=fits)
        assert math.isclose(rc.statistics["T1"], r1.statistics["T1"], rel_tol=1e-9)
        assert math.isclose(rc.statistics["T2"], r1.statistics["T2"], rel_tol=1e-9)
        x1 = chi2_u_test(d, one, cfg=TIGHT, fits=fits)
        xc = chi2_u_test(d, scaled, cfg=TIGHT, fits=fits)
        assert math.isclose(
            xc.statistics["chi2"], x1.statistics["chi2"], rel_tol=1e-9, abs_tol=1e-12
        )

    def test_label_swap_negates_v(self, rng):
        d = random_dataset(rng, 22, k=2, rate=1.4)
        swapped = PanelDataset.from_paths(
            [path(p.subject_id, 3 - p.group, p.times, p.counts) for p in d.paths], k=2
        )
        for spec in (CONST, WeightSpec(WeightKind.POOLED_RISK), WeightSpec(WeightKind.COMPLEMENT)):
            r = two_sample_tests(d, spec, cfg=TIGHT)
            r_swap = two_sample_tests(swapped, spec, cfg=TIGHT)
            assert math.isclose(
                r.statistics["T2"], -r_swap.statistics["T2"], rel_tol=1e-9, abs_tol=1e-12
            )
            assert math.isclose(
                abs(r.statistics["T2"]), abs(r_swap.statistics["T2"]), rel_tol=1e-9
            )

    def test_two_sample_chi2_equals_squared_t(self, rng):
        d = random_dataset(rng, 30, k=2, rate=1.3)
        fits = fit_all(d, TIGHT)
        two = two_sample_tests(d, CONST, cfg=TIGHT, fits=fits)
        chi_u = chi2_u_test(d, CONST, cfg=TIGHT, fits=fits)
        chi_v = chi2_v_test(d, CONST, cfg=TIGHT, fits=fits)
        assert math.isclose(
            chi_u.statistics["chi2"], two.statistics["T1"] ** 2, rel_tol=1e-9, abs_tol=1e-15
        )
        assert math.isclose(
            chi_v.statistics["chi2"], two.statistics["T2"] ** 2, rel_tol=1e-9, abs_tol=1e-15
        )
        assert math.isclose(
            chi_u.p_values["chi2"], two.p_values["T1"], rel_tol=1e-12
        )

    def test_subject_permutation_invariance(self, rng):
        d = random_dataset(rng, 20, k=2, rate=1.2)
        perm = rng.permutation(d.n)
        shuffled = PanelDataset.from_paths([d.paths[i] for i in perm], k=2)
        r1 = two_sample_tests(d, CONST, cfg=TIGHT)
        r2 = two_sample_tests(shuffled, CONST, cfg=TIGHT)
        assert math.isclose(r1.statistics["T1"], r2.statistics["T1"], rel_tol=1e-6, abs_tol=1e-9)
        assert math.isclose(r1.statistics["T2"], r2.statistics["T2"], rel_tol=1e-6, abs_tol=1e-9)


class TestSolverConvergenceError:
    def test_pickle_round_trip_keeps_diagnostics(self, rng):
        # a worker process sends the error back to its parent pickled
        d = random_dataset(rng, 20, k=2)
        with pytest.raises(SolverConvergenceError) as raised:
            fit_all(d, IcmConfig(max_iterations=1))
        exc = raised.value
        assert exc.diagnostics.status == "max-iterations"
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is SolverConvergenceError
        assert str(copy) == str(exc)
        assert copy.diagnostics == exc.diagnostics
