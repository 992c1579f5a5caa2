"""collapse_covariates: C integrated out of the likelihood and its prior, checked against the identity it rests on.

For any C, log L(A, B, C, Sigma*) + log p(C | Sigma*) - log p(C | A, B,
Sigma*, data) is the log-likelihood with C integrated out.  The collapsed
statistics plus the offset must give that value, computed here with
log_likelihood_summary on the full statistics and matrix-normal densities
written out with numpy.
"""

import math

import numpy as np
import pytest

from cyclemr.mcmc import FIXED_MAP, Hyperparameters, McmcConfig, collapse_covariates, run_chain
from cyclemr.model import ModelParameters, RawDataSet, compute_sufficient_stats, log_likelihood_summary


def matrix_normal_logpdf(x, mean, row_cov, col_cov):
    """log density of MN(mean, row_cov, col_cov) at x."""
    p, l = x.shape
    d = x - mean
    quad = np.trace(np.linalg.solve(col_cov, d.T) @ np.linalg.solve(row_cov, d))
    return (-0.5 * p * l * math.log(2.0 * math.pi) - 0.5 * l * np.linalg.slogdet(row_cov)[1]
            - 0.5 * p * np.linalg.slogdet(col_cov)[1] - 0.5 * quad)


def integrated_log_lik(params, stats, hyper):
    """log L + log p(C | Sigma*) - log p(C | rest), from the full statistics; the same at every C."""
    p, k, l, n = stats.dims.p, stats.dims.k, stats.dims.l, stats.dims.n
    value = log_likelihood_summary(params, stats)
    if l == 0:
        return value
    sigma = params.sigma_star
    col_prec = n * stats.s_uu + np.eye(l) / hyper.tau_c
    theta = np.hstack([np.eye(p) - params.a, -params.b])
    mean = n * theta @ stats.joint[: p + k, p + k :] @ np.linalg.inv(col_prec)
    prior = matrix_normal_logpdf(params.c, np.zeros((p, l)), sigma, hyper.tau_c * np.eye(l))
    return value + prior - matrix_normal_logpdf(params.c, mean, sigma, np.linalg.inv(col_prec))


def random_case(rng, p=4, k=3, l=2, n=500, zero_covariate=False):
    u = rng.standard_normal((n, l))
    if zero_covariate:
        u[:, -1] = 0.0  # S_uu is singular
    data = RawDataSet(y=rng.standard_normal((n, p)), x=rng.standard_normal((n, k)), u=u)
    return compute_sufficient_stats(data), Hyperparameters(tau_c=2.0)


def random_params(rng, p, k, l):
    a = rng.uniform(-0.3, 0.3, (p, p))
    np.fill_diagonal(a, 0.0)
    root = rng.standard_normal((p, p))
    return ModelParameters(a=a, b=0.3 * rng.standard_normal((p, k)), c=rng.standard_normal((p, l)),
                           sigma_star=root @ root.T + np.eye(p))


@pytest.mark.parametrize("l, zero_covariate", [(0, False), (1, False), (2, False), (2, True)],
                         ids=["l0", "l1", "l2", "l2-zero-variance-covariate"])
def test_collapsed_likelihood_plus_offset_integrates_c_out(l, zero_covariate):
    rng = np.random.default_rng(30 + l + 10 * zero_covariate)
    p, k = 4, 3
    stats, hyper = random_case(rng, p, k, l, zero_covariate=zero_covariate)
    collapsed, offset = collapse_covariates(stats, hyper)
    assert collapsed.dims.l == 0 and collapsed.dims.n == stats.dims.n
    for _ in range(3):  # three random states, each with its own C
        params = random_params(rng, p, k, l)
        covariate_free = ModelParameters(a=params.a, b=params.b, c=np.zeros((p, 0)), sigma_star=params.sigma_star)
        expected = integrated_log_lik(params, stats, hyper)
        assert log_likelihood_summary(covariate_free, collapsed) + offset == pytest.approx(expected, rel=0, abs=1e-8)


def test_no_covariates_returns_the_statistics_unchanged():
    stats, hyper = random_case(np.random.default_rng(40), l=0)
    collapsed, offset = collapse_covariates(stats, hyper)
    assert collapsed is stats
    assert offset == 0.0


def test_a_zero_variance_covariate_removes_nothing_and_adds_nothing_to_the_offset():
    # A zero column of U gives J[yx, u] a zero column and I + n tau_c S_uu a unit diagonal entry.
    rng = np.random.default_rng(41)
    n = 500
    y, x, u = rng.standard_normal((n, 4)), rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
    u[:, 1] = 0.0
    hyper = Hyperparameters(tau_c=2.0)
    both, offset_both = collapse_covariates(compute_sufficient_stats(RawDataSet(y=y, x=x, u=u)), hyper)
    first, offset_first = collapse_covariates(compute_sufficient_stats(RawDataSet(y=y, x=x, u=u[:, :1])), hyper)
    np.testing.assert_allclose(both.joint, first.joint, rtol=0, atol=1e-12)
    assert offset_both == pytest.approx(offset_first, rel=1e-12)


def test_run_chain_reports_the_integrated_log_likelihood():
    # The last sweep is kept, so loglik's last entry belongs to the last kept draw, C included.
    rng = np.random.default_rng(42)
    p, k, l = 3, 3, 2
    stats, _ = random_case(rng, p, k, l, n=400)
    config = McmcConfig(iterations=60, burn_in=20, thin=1, seed=3, hyper=Hyperparameters(instrument_mode=FIXED_MAP),
                        fixed_b_support=np.eye(3, dtype=int))
    chain = run_chain(stats, config)
    assert chain.c.shape == (40, p, l)
    last = ModelParameters(a=chain.a[-1], b=chain.b[-1], c=chain.c[-1], sigma_star=chain.sigma_star[-1])
    expected = integrated_log_lik(last, stats, config.hyper)
    assert chain.loglik[-1] == pytest.approx(expected, rel=1e-10)
