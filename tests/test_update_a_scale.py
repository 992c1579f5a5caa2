"""Step 8's per-entry proposal scale, at the sample sizes the sampler is run at.

update_a scales the proposal for A[j, h] from the curvature of that
entry's own conditional.  A spike entry whose half-Cauchy scale tau has
shrunk far must therefore keep moving on its own tiny scale instead of
freezing at 0, and with everything but A held fixed, repeated calls must
reach the exact conditional of A at n = 30 and at n = 3e4, and at n = 4
where (I - A) turns singular within three conditional standard deviations
of the mode.
"""

import math

import numpy as np
import pytest

from cyclemr.mcmc import SELECTION, Hyperparameters, initial_state, update_a
from cyclemr.model import NumericalError, RawDataSet, compute_sufficient_stats, log_likelihood_summary


def test_spike_entry_with_tiny_scale_keeps_moving():
    rng = np.random.default_rng(31)
    n, p, k = 30_000, 3, 4
    data = RawDataSet(y=rng.standard_normal((n, p)), x=rng.standard_normal((n, k)), u=np.zeros((n, 0)))
    stats = compute_sufficient_stats(data)
    hyper = Hyperparameters(instrument_mode=SELECTION)
    state = initial_state(stats, hyper)
    # A spike entry at a = 0 whose scale has collapsed: its prior variance nu1 * tau is 1e-12.
    state.latent.gamma[0, 1] = 0
    state.latent.tau[0, 1] = 1e-8
    calls = 400
    off = ~np.eye(p, dtype=bool)
    moves = np.zeros((p, p), dtype=int)
    a01 = []
    for _ in range(calls):
        before = state.params.a.copy()
        update_a(state, stats, hyper, rng)
        moves += state.params.a != before
        a01.append(state.params.a[0, 1])
    rates = moves[off] / calls
    assert np.all((rates >= 0.25) & (rates <= 0.65)), rates
    a01 = np.array(a01)
    assert np.unique(a01).size > 100
    # The conditional of A[0, 1] is its spike prior, sd 1e-6, to within n * Omega_00 * S_yy[1, 1] / 1e12.
    assert 0.5e-6 < a01.std() < 2e-6
    assert state.log_lik == pytest.approx(log_likelihood_summary(state.params, stats), rel=1e-10)


def conditional_case(n, seed, a10=-0.2, tau=((1.0, 0.5), (0.25, 1.0))):
    """p = 2 state with a cycle, B and Sigma* at their true values, and fixed slab scales."""
    rng = np.random.default_rng(seed)
    a_true = np.array([[0.0, 0.3], [a10, 0.0]])
    b_true = np.array([[0.8, 0.0], [0.0, 0.6]])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    x = rng.standard_normal((n, 2))
    noise = rng.standard_normal((n, 2)) @ np.linalg.cholesky(sigma).T
    y = np.linalg.solve(np.eye(2) - a_true, (x @ b_true.T + noise).T).T
    stats = compute_sufficient_stats(RawDataSet(y=y, x=x, u=np.zeros((n, 0))))
    hyper = Hyperparameters(instrument_mode=SELECTION)
    state = initial_state(stats, hyper)
    state.params.b = b_true.copy()
    state.params.sigma_star = sigma.copy()
    state.refresh_precision()
    state.latent.tau = np.array(tau)
    state.log_lik = log_likelihood_summary(state.params, stats)
    return state, stats, hyper


def log_conditional(state, stats, a01, a10):
    """Log density of (A[0, 1], A[1, 0]) given the rest, up to a constant, at each grid point.

    The density is 0 where (I - A) is singular.
    """
    params = state.params
    saved = params.a.copy()
    values = np.empty(a01.shape)
    try:
        for index in np.ndindex(a01.shape):
            params.a[0, 1], params.a[1, 0] = a01[index], a10[index]
            try:
                values[index] = log_likelihood_summary(params, stats)
            except NumericalError:
                values[index] = -np.inf
    finally:
        params.a[:] = saved
    tau = state.latent.tau  # both entries sit in the slab: prior variance tau
    return values - a01**2 / (2.0 * tau[0, 1]) - a10**2 / (2.0 * tau[1, 0])


def quadrature_moments(state, stats, points=161, width=9.0):
    """(mode, means, variances, beyond) of A[0, 1] and A[1, 0] under their joint conditional, on a 2-D grid.

    beyond is the conditional's mass where det(I - A) < 0.

    The grid spans width marginal standard deviations of the Laplace fit on
    each side of the conditional's mode, found by Newton steps on a
    finite-difference gradient and Hessian.
    """
    def at(point):
        return float(log_conditional(state, stats, np.array([point[0]]), np.array([point[1]]))[0])

    mode = np.zeros(2)
    for _ in range(20):
        h = 1e-2 / math.sqrt(stats.dims.n)
        grad, hess = np.zeros(2), np.zeros((2, 2))
        for i in range(2):
            e_i = np.eye(2)[i] * h
            grad[i] = (at(mode + e_i) - at(mode - e_i)) / (2 * h)
            for j in range(2):
                e_j = np.eye(2)[j] * h
                hess[i, j] = (
                    at(mode + e_i + e_j) - at(mode + e_i - e_j) - at(mode - e_i + e_j) + at(mode - e_i - e_j)
                ) / (4 * h * h)
        mode = mode - np.linalg.solve(hess, grad)
    sd = np.sqrt(np.diag(np.linalg.inv(-hess)))
    axes = [np.linspace(m - width * s, m + width * s, points) for m, s in zip(mode, sd)]
    a01, a10 = np.meshgrid(*axes, indexing="ij")
    log_w = log_conditional(state, stats, a01, a10)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    # The box holds the conditional: its edges carry no weight worth the name.
    edge = w[0].sum() + w[-1].sum() + w[:, 0].sum() + w[:, -1].sum()
    assert edge < 1e-8
    means = np.array([(w * a01).sum(), (w * a10).sum()])
    variances = np.array([(w * (a01 - means[0]) ** 2).sum(), (w * (a10 - means[1]) ** 2).sum()])
    return mode, means, variances, w[a01 * a10 > 1.0].sum()


def a_draws(state, stats, hyper, calls=20_000, burn=200):
    """(A[0, 1], A[1, 0]) after each of calls update_a calls, the first burn left out."""
    rng = np.random.default_rng(43)
    draws = np.empty((calls, 2))
    for t in range(calls):
        update_a(state, stats, hyper, rng)
        draws[t] = state.params.a[0, 1], state.params.a[1, 0]
    return draws[burn:]


def assert_batch_means_match(values, expected, batches=50):
    """Each column of values averages to its expected value within 4 batch-means standard errors."""
    usable = values.shape[0] // batches * batches
    batch_means = values[:usable].reshape(batches, -1, values.shape[1]).mean(axis=1)
    se = batch_means.std(axis=0, ddof=1) / math.sqrt(batches)
    z = (batch_means.mean(axis=0) - expected) / se
    assert np.all(np.abs(z) < 4), (z, expected)



@pytest.mark.parametrize("n", [30, 30_000])
def test_repeated_a_steps_reach_the_exact_conditional(n):
    state, stats, hyper = conditional_case(n, seed=41)
    _, means, variances, _ = quadrature_moments(state, stats)
    draws = a_draws(state, stats, hyper)
    assert_batch_means_match(draws, means)
    assert_batch_means_match((draws - means) ** 2, variances)
    assert state.log_lik == pytest.approx(log_likelihood_summary(state.params, stats), rel=1e-8)


def test_repeated_a_steps_reach_the_exact_conditional_next_to_a_singular_point():
    # det(I - A) = 1 - A[0, 1] A[1, 0].  At n = 4, with A[1, 0] near 2.5, it vanishes at A[0, 1] = 1/A[1, 0],
    # within 3 conditional standard deviations of the mode, and a share of the mass lies beyond, where det < 0.
    state, stats, hyper = conditional_case(4, seed=41, a10=2.5, tau=((1.0, 1.0), (4.0, 1.0)))
    mode, means, variances, beyond = quadrature_moments(state, stats, width=14.0)
    assert (1.0 / mode[1] - mode[0]) / math.sqrt(variances[0]) < 3.0
    assert 0.005 < beyond < 0.05
    draws = a_draws(state, stats, hyper)
    assert_batch_means_match(draws, means)
    assert_batch_means_match((draws - means) ** 2, variances)
    assert_batch_means_match((draws[:, :1] * draws[:, 1:] > 1.0).astype(float), [beyond])
    assert state.log_lik == pytest.approx(log_likelihood_summary(state.params, stats), rel=1e-8)
