import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from scipy.special import kv

from cyclemr.distributions import (
    GigParams,
    draw_matrix_normal,
    sample_beta,
    sample_bernoulli,
    sample_gig,
    sample_inverse_gamma,
)
from cyclemr.model import LOG_2PI, _chol_lower


def matrix_normal_logpdf(x, mean, l_row, l_col) -> float:
    """Log-density of a matrix-normal draw, given the lower Cholesky factors of both covariances."""
    x = np.asarray(x, dtype=float)
    p, l = mean.shape
    diff = x - mean
    w = scipy.linalg.solve_triangular(l_row, diff, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(l_col, w.T, lower=True, check_finite=False)
    quad = float(np.sum(w * w))
    ld_row = 2.0 * float(np.log(np.diag(l_row)).sum())
    ld_col = 2.0 * float(np.log(np.diag(l_col)).sum())
    return -0.5 * (p * l * LOG_2PI + l * ld_row + p * ld_col + quad)


def _reference_psi(x, alpha, lam):
    return -alpha * (math.cosh(x) - 1.0) - lam * (math.exp(x) - x - 1.0)


def _reference_dpsi(x, alpha, lam):
    return -alpha * math.sinh(x) - lam * (math.exp(x) - 1.0)


def reference_sample_gig(params: GigParams, rng: np.random.Generator) -> float:
    """Devroye's (2014) GIG sampler written with psi and psi' as helper functions, for sample_gig to match."""
    lam, a, b = params.p_order, params.a, params.b
    omega = math.sqrt(a * b)
    swap = lam < 0
    if swap:
        lam = -lam
    alpha = math.sqrt(omega * omega + lam * lam) - lam

    x = -_reference_psi(1.0, alpha, lam)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha + lam))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam))

    x = -_reference_psi(-1.0, alpha, lam)
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = math.sqrt(4.0 / (alpha * math.cosh(1.0) + lam))
    elif alpha == 0.0:
        s = 1.0 / lam
    else:
        inv_alpha = 1.0 / alpha
        cand = math.log(1.0 + inv_alpha + math.sqrt(inv_alpha * inv_alpha + 2.0 * inv_alpha))
        s = cand if lam == 0.0 else min(1.0 / lam, cand)

    eta = -_reference_psi(t, alpha, lam)
    zeta = -_reference_dpsi(t, alpha, lam)
    theta = -_reference_psi(-s, alpha, lam)
    xi = _reference_dpsi(-s, alpha, lam)
    inv_xi = 1.0 / xi
    inv_zeta = 1.0 / zeta
    td = t - inv_zeta * eta
    sd = s - inv_xi * theta
    q = td + sd
    total = inv_xi + q + inv_zeta

    while True:
        u, v, w = rng.random(3).tolist()
        u *= total
        if u < q:
            rnd = -sd + q * v
        elif u < q + inv_zeta:
            rnd = td - inv_zeta * math.log(v)
        else:
            rnd = -sd + inv_xi * math.log(v)
        if -sd <= rnd <= td:
            envelope = 1.0
        elif rnd > td:
            envelope = math.exp(-eta - zeta * (rnd - t))
        else:
            envelope = math.exp(-theta + xi * (rnd + s))
        if w * envelope <= math.exp(_reference_psi(rnd, alpha, lam)):
            break

    out = math.exp(rnd) * (lam / omega + math.sqrt(1.0 + lam * lam / (omega * omega)))
    if swap:
        out = 1.0 / out
    return out / math.sqrt(a / b)


def gig_moment(p_order, a, b, moment=1):
    """Analytic GIG moments via Bessel-function ratios."""
    omega = math.sqrt(a * b)
    scale = math.sqrt(b / a)
    return scale**moment * kv(p_order + moment, omega) / kv(p_order, omega)


def draw_gig(p_order, a, b, size, seed=0):
    rng = np.random.default_rng(seed)
    params = GigParams(p_order=p_order, a=a, b=b)
    return np.array([sample_gig(params, rng) for _ in range(size)])


class TestGig:
    def test_inverse_gaussian_half_order(self):
        a, b = 3.0, 2.0
        draws = draw_gig(-0.5, a, b, 100_000, seed=2)
        # K_{1/2} = K_{-1/2} makes the mean sqrt(b/a)
        expected = math.sqrt(b / a)
        var = gig_moment(-0.5, a, b, 2) - expected**2
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - expected) < 3 * se

    def test_bessel_ratio_oracle(self):
        draws = draw_gig(1.0, 2.0, 2.0, 100_000, seed=3)
        expected = gig_moment(1.0, 2.0, 2.0)
        assert expected == pytest.approx(kv(2.0, 2.0) / kv(1.0, 2.0), rel=1e-12)
        var = gig_moment(1.0, 2.0, 2.0, 2) - expected**2
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - expected) < 3 * se

    def test_moment_grid(self):
        # Smaller grid than the acceptance run, same 4-SE criterion.
        rng_orders = (-5.0, -0.5, 1.0, 5.0)
        size = 20_000
        for p_order in rng_orders:
            for a in (0.5, 10.0):
                for b in (0.5, 10.0):
                    draws = draw_gig(p_order, a, b, size, seed=hash((p_order, a, b)) % 2**32)
                    for moment in (1, 2):
                        expected = gig_moment(p_order, a, b, moment)
                        var = gig_moment(p_order, a, b, 2 * moment) - expected**2
                        se = math.sqrt(var / size)
                        assert abs((draws**moment).mean() - expected) < 4 * se, (
                            p_order,
                            a,
                            b,
                            moment,
                        )

    def test_extreme_negative_order(self):
        # Orders like 1 - n/2 for large n must stay finite and positive.
        draws = draw_gig(-500.0, 5.0, 80.0, 2_000, seed=4)
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0)

    # 1 - (n + 2)/2 is step 11's order at n = 3e4 with two covariates.
    @pytest.mark.parametrize("p_order", [1.0 - (3e4 + 2) / 2, -13.5, -0.3, 0.0, 0.3, 2.0])
    def test_matches_reference_sampler(self, p_order):
        rates = [1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e5]
        for a in rates:
            for b in rates:
                params = GigParams(p_order=p_order, a=a, b=b)
                rng = np.random.Generator(np.random.PCG64(17))
                rng_ref = np.random.Generator(np.random.PCG64(17))
                draws = [sample_gig(params, rng) for _ in range(20)]
                expected = [reference_sample_gig(params, rng_ref) for _ in range(20)]
                assert draws == expected, (p_order, a, b)
                assert rng.bit_generator.state == rng_ref.bit_generator.state, (p_order, a, b)

    def test_invalid_parameters(self):
        # The gamma and inverse-gamma limits are outside the range; NaN and inf
        # would make sample_gig loop for ever.
        nan, inf = float("nan"), float("inf")
        for p_order, a, b in [(-1.0, 2.0, 0.0), (1.0, 0.0, 2.0), (1.0, -1.0, 2.0), (1.0, 2.0, -1.0), (1.0, nan, 2.0),
                              (1.0, 2.0, nan), (nan, 2.0, 2.0), (1.0, inf, 2.0), (1.0, 2.0, inf),
                              (inf, 2.0, 2.0), (-inf, 2.0, 2.0)]:
            with pytest.raises(ValueError):
                GigParams(p_order=p_order, a=a, b=b)


class TestMatrixNormal:
    def test_iid_entries(self):
        rng = np.random.default_rng(5)
        draws = np.stack([draw_matrix_normal(np.zeros((2, 3)), np.eye(2), np.eye(3), rng) for _ in range(100_000)])
        var = draws.var(axis=0)
        se = math.sqrt(2.0 / draws.shape[0])  # var of sample variance of N(0,1)
        assert np.all(np.abs(var - 1.0) < 4 * se)

    def test_mean_translation(self):
        rng = np.random.default_rng(6)
        mean = np.array([[1.0, -2.0], [3.0, 0.5]])
        l_row = _chol_lower(0.5 * np.eye(2))
        draws = np.stack([draw_matrix_normal(mean, l_row, np.eye(2), rng) for _ in range(50_000)])
        se = math.sqrt(0.5 / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)

    def test_row_covariance(self):
        rng = np.random.default_rng(7)
        row_cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        l_row = _chol_lower(row_cov)
        draws = np.stack([draw_matrix_normal(np.zeros((2, 1)), l_row, np.eye(1), rng)[:, 0] for _ in range(100_000)])
        emp = np.cov(draws.T, bias=True)
        se = 3.0 / math.sqrt(draws.shape[0])
        assert np.all(np.abs(emp - row_cov) < 4 * se)

    def test_logpdf_matches_vectorized_mvn(self):
        rng = np.random.default_rng(8)
        row_cov = np.array([[2.0, 0.4], [0.4, 1.0]])
        col_cov = np.array([[1.5, -0.2, 0.0], [-0.2, 0.8, 0.1], [0.0, 0.1, 1.2]])
        mean = rng.standard_normal((2, 3))
        x = rng.standard_normal((2, 3))
        full_cov = np.kron(col_cov, row_cov)
        expected = scipy.stats.multivariate_normal.logpdf(
            x.ravel(order="F"), mean=mean.ravel(order="F"), cov=full_cov
        )
        logpdf = matrix_normal_logpdf(x, mean, _chol_lower(row_cov), _chol_lower(col_cov))
        assert logpdf == pytest.approx(expected, abs=1e-10)


class TestInverseGamma:
    def test_mean(self):
        rng = np.random.default_rng(9)
        draws = np.array([sample_inverse_gamma(2.0, 1.0, rng) for _ in range(100_000)])
        # mean scale/(shape-1) = 1, but heavy tails: compare trimmed quantile instead
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < max(3 * se, 0.05)

    def test_shape_one_median(self):
        rng = np.random.default_rng(10)
        scale = 2.5
        draws = sample_inverse_gamma(1.0, np.full(100_000, scale), rng)
        expected_median = scale / math.log(2.0)
        assert np.median(draws) == pytest.approx(expected_median, rel=0.03)

    def test_reciprocal_is_gamma(self):
        rng = np.random.default_rng(11)
        shape, scale = 3.0, 2.0
        draws = sample_inverse_gamma(shape, np.full(10_000, scale), rng)
        stat = scipy.stats.kstest(1.0 / draws, scipy.stats.gamma(a=shape, scale=1.0 / scale).cdf)
        assert stat.pvalue > 0.01

    def test_invalid(self):
        with pytest.raises(ValueError):
            sample_inverse_gamma(0.0, 1.0, np.random.default_rng(0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sample_inverse_gamma(1.0, np.array([1.0, np.nan]), np.random.default_rng(0))


class TestBetaBernoulli:
    def test_uniform_beta(self):
        rng = np.random.default_rng(12)
        draws = sample_beta(np.ones(100_000), np.ones(100_000), rng)
        se = math.sqrt(1.0 / 12.0 / draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se

    def test_beta_moment(self):
        rng = np.random.default_rng(13)
        draws = sample_beta(np.full(100_000, 2.0), np.full(100_000, 3.0), rng)
        var = 2 * 3 / ((5.0**2) * 6.0)
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - 0.4) < 3 * se

    def test_bernoulli_degenerate(self):
        rng = np.random.default_rng(14)
        assert not np.any(sample_bernoulli(np.zeros(1000), rng))
        assert np.all(sample_bernoulli(np.ones(1000), rng))

    def test_beta_nan_rejected(self):
        with pytest.raises(ValueError):
            sample_beta(np.nan, 1.0, np.random.default_rng(0))

    def test_bernoulli_nan_rejected(self):
        with pytest.raises(ValueError):
            sample_bernoulli(np.array([0.5, np.nan]), np.random.default_rng(0))

    def test_bernoulli_clamps_tiny_overshoot(self):
        rng = np.random.default_rng(15)
        assert sample_bernoulli(1.0 + 1e-13, rng) == 1
        with pytest.raises(ValueError):
            sample_bernoulli(1.1, rng)


class TestDeterminism:
    def test_identical_seeds_identical_streams(self):
        p1 = GigParams(p_order=-3.0, a=1.5, b=4.0)
        out1 = draw_gig(-3.0, 1.5, 4.0, 50, seed=99)
        out2 = draw_gig(-3.0, 1.5, 4.0, 50, seed=99)
        np.testing.assert_array_equal(out1, out2)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        args = (np.zeros((2, 2)), np.eye(2), np.eye(2))
        np.testing.assert_array_equal(draw_matrix_normal(*args, rng1), draw_matrix_normal(*args, rng2))
        assert sample_inverse_gamma(2.0, 3.0, rng1) == sample_inverse_gamma(2.0, 3.0, rng2)
        assert p1 == GigParams(p_order=-3.0, a=1.5, b=4.0)
