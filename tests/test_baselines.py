import numpy as np
import pytest

from cyclemr.baselines import (
    baseline_effects,
    ivw,
    marginal_regressions,
    ratio_estimates,
    reassign_pleiotropic,
    simple_median,
    total_effect_matrix,
    tsls_pair,
    weighted_median,
)
from cyclemr.model import Dimensions, RawDataSet, SummaryStatistics, compute_sufficient_stats
from cyclemr.summary import total_effect_trivariate


def bivariate_population_stats(a12, a21, b1, b2, sigma, n=1000):
    """Exact population second moments of the coupled bivariate SEM."""
    a = np.array([[0.0, a12], [a21, 0.0]])
    b = np.array([[b1, 0.0], [0.0, b2]])
    f_inv = np.linalg.inv(np.eye(2) - a)
    gx = f_inv @ b
    s_yy = gx @ gx.T + f_inv @ sigma @ f_inv.T
    return SummaryStatistics(
        s_yy=s_yy,
        s_yx=gx,
        s_yu=np.zeros((2, 0)),
        s_xx=np.eye(2),
        s_xu=np.zeros((2, 0)),
        s_uu=np.zeros((0, 0)),
        dims=Dimensions(p=2, k=2, l=0, n=n),
    )


class TestRatioEstimates:
    def test_noiseless_plugin(self):
        n = 200
        x = np.linspace(-1, 1, n).reshape(-1, 1)
        y1 = 1.0 * x
        y2 = 0.1 * y1
        stats = compute_sufficient_stats(RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0))))
        ratios, _ = ratio_estimates(stats, np.array([[1], [0]]), outcome=1, exposure=0)
        assert ratios[0] == pytest.approx(0.1, abs=1e-12)

    def test_zero_exposure_instrument_excluded(self):
        stats = bivariate_population_stats(0.0, 0.1, 0.0, 1.0, np.eye(2))
        with pytest.warns(UserWarning, match="zero effect"):
            ratios, _ = ratio_estimates(stats, np.eye(2, dtype=int), outcome=1, exposure=0)
        assert ratios.size == 0

    def test_feedback_prefactor_cancels(self):
        # reciprocal SEM: the ratio still recovers the direct effect a21
        a12, a21 = 0.3, 0.1
        stats = bivariate_population_stats(a12, a21, 1.0, 1.0, np.eye(2))
        ratios, _ = ratio_estimates(stats, np.eye(2, dtype=int), outcome=1, exposure=0)
        assert ratios[0] == pytest.approx(a21, abs=1e-12)
        ratios, _ = ratio_estimates(stats, np.eye(2, dtype=int), outcome=0, exposure=1)
        assert ratios[0] == pytest.approx(a12, abs=1e-12)

    def test_marginal_regression_coefficients(self):
        stats = bivariate_population_stats(0.0, 0.2, 1.5, 1.0, np.eye(2))
        regs = marginal_regressions(stats)
        assert regs.r[0, 0] == pytest.approx(1.5)
        assert regs.r[0, 1] == pytest.approx(0.2 * 1.5)
        assert np.all(regs.se > 0)


class TestIvw:
    def test_single_instrument_is_ratio(self):
        effect, se = ivw([0.37], [0.05])
        assert effect == 0.37
        assert se == pytest.approx(0.05)

    def test_equal_ses_plain_mean(self):
        effect, _ = ivw([0.1, 0.3, 0.2], [0.4, 0.4, 0.4])
        assert effect == pytest.approx(0.2)

    def test_weighted_average_arithmetic(self):
        effect, _ = ivw([0.1, 0.2], [1.0, 2.0])
        assert effect == pytest.approx(0.12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ivw([], [])


class TestMedians:
    def test_single_ratio(self):
        assert simple_median([0.4]) == 0.4
        assert weighted_median([0.4], [2.0]) == 0.4

    def test_simple_median_odd(self):
        assert simple_median([1.0, 2.0, 3.0]) == 2.0

    def test_weighted_median_interpolation(self):
        # cumulative (0.1, 0.2, 1.0) crosses 1/2 between 2 and 10
        assert weighted_median([1.0, 2.0, 10.0], [1.0, 1.0, 8.0]) == pytest.approx(5.0)

    def test_weighted_median_unsorted_input(self):
        assert weighted_median([10.0, 1.0, 2.0], [8.0, 1.0, 1.0]) == pytest.approx(5.0)

    def test_first_element_dominant_weight(self):
        assert weighted_median([1.0, 2.0, 3.0], [10.0, 1.0, 1.0]) == 1.0


class TestTsls:
    def test_orthonormal_single_instrument_equals_ratio(self):
        n = 128
        x = np.ones((n, 1))
        x[: n // 2, 0] = -1.0
        rng = np.random.default_rng(3)
        y1 = 0.8 * x[:, :1] + 0.1 * rng.standard_normal((n, 1))
        y2 = 0.25 * y1 + 0.1 * rng.standard_normal((n, 1))
        data = RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0)))
        stats = compute_sufficient_stats(data)
        effect, _ = tsls_pair(data, exposure=0, outcome=1, instruments=[0])
        ratios, _ = ratio_estimates(stats, np.array([[1], [0]]), outcome=1, exposure=0)
        assert effect == pytest.approx(ratios[0], abs=1e-12)

    def test_recovers_effect_in_simulation(self):
        rng = np.random.default_rng(4)
        n = 30_000
        x = rng.standard_normal((n, 1))
        w = rng.standard_normal((n, 1))
        y1 = x + w + rng.standard_normal((n, 1))
        y2 = 0.1 * y1 + w + rng.standard_normal((n, 1))
        data = RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0)))
        effect, _ = tsls_pair(data, exposure=0, outcome=1, instruments=[0])
        assert abs(effect - 0.1) < 0.02

    def test_weak_instrument_warning(self):
        rng = np.random.default_rng(5)
        n = 500
        x = rng.standard_normal((n, 1))
        y1 = rng.standard_normal((n, 1))  # exposure independent of instrument
        y2 = 0.5 * y1 + rng.standard_normal((n, 1))
        data = RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0)))
        with pytest.warns(UserWarning, match="weak instruments"):
            tsls_pair(data, exposure=0, outcome=1, instruments=[0])


class TestTotalEffects:
    def test_matches_trivariate_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.uniform(-0.4, 0.4, (3, 3))
            np.fill_diagonal(a, 0.0)
            total = total_effect_matrix(a)
            expected = total_effect_trivariate(a)
            assert total[0, 1] == pytest.approx(expected * np.sign(1 - a[0, 2] * a[2, 0]), rel=1e-10)

    def test_acyclic_chain_total_effect(self):
        # 0 -> 1 -> 2: total effect of 0 on 2 is the product of path effects
        a = np.zeros((3, 3))
        a[1, 0] = 0.5
        a[2, 1] = 0.4
        total = total_effect_matrix(a)
        assert total[2, 0] == pytest.approx(0.2)
        assert total[1, 0] == pytest.approx(0.5)
        assert total[0, 2] == 0.0


class TestInstrumentHandling:
    def test_reassign_pleiotropic_unique_owner(self):
        support = np.array([[1, 0, 1], [0, 1, 1]])
        rng = np.random.default_rng(7)
        out = reassign_pleiotropic(support, rng)
        assert np.all(out.sum(axis=0) == 1)
        assert np.all((out == 0) | (support == 1))

    def test_rescaling_instruments_leaves_estimates_unchanged(self):
        rng = np.random.default_rng(8)
        n = 2_000
        x = rng.standard_normal((n, 2))
        y1 = x[:, :1] + rng.standard_normal((n, 1))
        y2 = 0.3 * y1 + x[:, 1:] + rng.standard_normal((n, 1))
        y = np.hstack([y1, y2])
        support = np.eye(2, dtype=int)
        base = baseline_effects(
            compute_sufficient_stats(RawDataSet(y=y, x=x, u=np.zeros((n, 0)))), "ivw", support
        )
        scaled = baseline_effects(
            compute_sufficient_stats(RawDataSet(y=y, x=x * [2.0, 0.5], u=np.zeros((n, 0)))),
            "ivw",
            support,
        )
        np.testing.assert_allclose(base.effect, scaled.effect, atol=1e-10)
        np.testing.assert_allclose(base.score, scaled.score, atol=1e-8)


class TestBaselineEffects:
    def test_confounded_bias_structure(self):
        # valid instruments de-bias IVW while naive OLS stays biased
        rng = np.random.default_rng(9)
        n = 30_000
        x = rng.standard_normal((n, 2))
        w = rng.standard_normal((n, 1))
        y1 = x[:, :1] + w + rng.standard_normal((n, 1))
        y2 = 0.1 * y1 + x[:, 1:] + w + rng.standard_normal((n, 1))
        y = np.hstack([y1, y2])
        data = RawDataSet(y=y, x=x, u=np.zeros((n, 0)))
        stats = compute_sufficient_stats(data)
        res = baseline_effects(stats, "ivw", np.eye(2, dtype=int))
        assert abs(res.effect[1, 0] - 0.1) < 0.02
        ols = float(stats.s_yy[1, 0] / stats.s_yy[0, 0])
        assert ols - 0.1 > 0.05

    def test_all_methods_produce_finite_matrices(self):
        rng = np.random.default_rng(10)
        n = 3_000
        x = rng.standard_normal((n, 4))
        y1 = x[:, :2].sum(axis=1, keepdims=True) + rng.standard_normal((n, 1))
        y2 = 0.2 * y1 + x[:, 2:].sum(axis=1, keepdims=True) + rng.standard_normal((n, 1))
        y = np.hstack([y1, y2])
        data = RawDataSet(y=y, x=x, u=np.zeros((n, 0)))
        stats = compute_sufficient_stats(data)
        support = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        for method in ("ratio", "ivw", "median", "wmedian"):
            res = baseline_effects(stats, method, support, seed=1)
            assert np.all(np.isfinite(res.effect))
            assert np.all(res.score >= 0)
            assert np.all((res.pvalue >= 0) & (res.pvalue <= 1))
            assert np.all(np.diag(res.effect) == 0)
        res = baseline_effects(data, "tsls", support, seed=1)
        assert np.all(np.isfinite(res.effect))

    def test_tsls_requires_raw_data(self):
        stats = bivariate_population_stats(0.0, 0.1, 1.0, 1.0, np.eye(2))
        with pytest.raises(ValueError, match="individual-level"):
            baseline_effects(stats, "tsls", np.eye(2, dtype=int))

    def test_summary_methods_require_statistics(self):
        rng = np.random.default_rng(12)
        data = RawDataSet(y=rng.standard_normal((50, 2)), x=rng.standard_normal((50, 2)), u=np.zeros((50, 0)))
        for method in ("ratio", "ivw", "median", "wmedian"):
            with pytest.raises(ValueError, match="summary statistics"):
                baseline_effects(data, method, np.eye(2, dtype=int))

    def test_unknown_method(self):
        stats = bivariate_population_stats(0.0, 0.1, 1.0, 1.0, np.eye(2))
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_effects(stats, "egger", np.eye(2, dtype=int))
        # No pair has an instrument here, so the check must not wait for one.
        with pytest.raises(ValueError, match="unknown baseline method"):
            baseline_effects(stats, "egger", np.zeros((2, 2), dtype=int))
