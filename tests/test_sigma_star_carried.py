"""Step 10 with the carried Omega = Sigma*^-1 against a per-column-factorization reference.

reference_update_sigma_star is the column-wise blocked Gibbs draw as it was
written before Omega was carried: every column gathers and factors its
(p-1) x (p-1) block of Sigma* and inverts it.  From equal states and
generators seeded alike, both must draw the same Sigma* to rounding level
and consume the same random stream.
"""

import copy

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs, dtrtrs

from cyclemr.distributions import GigParams, sample_gig
from cyclemr.mcmc import (
    GIG_QUAD_FLOOR,
    SELECTION,
    ChainState,
    Hyperparameters,
    NumericalError,
    _add_outer,
    initial_state,
    mcmc_sweep,
    update_sigma_star,
)
from cyclemr.model import (
    RawDataSet,
    _chol_inverse,
    _chol_lower,
    compute_sufficient_stats,
    log_likelihood_summary,
    residual_scatter,
)


def reference_update_sigma_star(state, stats, hyper, rng):
    """Step 10 with one Cholesky factorization and inverse of Sigma11 per column."""
    params, latent = state.params, state.latent
    p = params.p
    n = stats.dims.n
    lam = hyper.lam
    scatter = residual_scatter(params, stats)
    sigma = params.sigma_star
    order = 1.0 - n / 2.0
    idx = np.arange(p)
    for j in range(p):
        rest = idx[idx != j]
        mesh = np.ix_(rest, rest)
        inv11 = _chol_inverse(_chol_lower(sigma[mesh]))
        sig12 = sigma[rest, j]
        s11 = scatter[mesh]
        s12 = scatter[rest, j]
        s22 = float(scatter[j, j])

        v_cur = max(float(sigma[j, j] - sig12 @ inv11 @ sig12), GIG_QUAD_FLOOR)
        v_prior = np.where(latent.z[rest, j] == 1, hyper.omega1**2, hyper.omega2**2)
        inv11_s11_inv11 = inv11 @ s11 @ inv11
        u_prec = inv11_s11_inv11 / v_cur + lam * inv11 + np.diag(1.0 / v_prior)
        chol = _chol_lower(0.5 * (u_prec + u_prec.T))
        mean, _ = dpotrs(chol, inv11 @ s12 / v_cur, lower=1)
        noise, _ = dtrtrs(chol, rng.standard_normal(p - 1), lower=1, trans=1)
        u = mean + noise

        quad = max(float(u @ inv11_s11_inv11 @ u - 2.0 * (s12 @ inv11 @ u) + s22), GIG_QUAD_FLOOR)
        v_new = sample_gig(GigParams(order, lam, quad), rng)

        sigma[rest, j] = u
        sigma[j, rest] = u
        sigma[j, j] = v_new + float(u @ inv11 @ u)
    state.log_lik = log_likelihood_summary(params, stats)


def mixed_state(p, seed):
    """A selection-mode state with one covariate, non-zero A, B, C and mixed confounding indicators."""
    rng = np.random.default_rng(seed)
    n, k = 4 * p + 20, 3
    data = RawDataSet(
        y=rng.standard_normal((n, p)), x=rng.standard_normal((n, k)), u=rng.standard_normal((n, 1))
    )
    stats = compute_sufficient_stats(data)
    hyper = Hyperparameters(instrument_mode=SELECTION, omega1=0.8, omega2=0.1, lam=1.0)
    state = initial_state(stats, hyper)
    a = rng.uniform(-0.2, 0.2, (p, p))
    np.fill_diagonal(a, 0.0)
    state.params.a = a
    state.params.b = 0.3 * rng.standard_normal((p, k))
    state.params.c = 0.3 * rng.standard_normal((p, 1))
    z = (rng.random((p, p)) < 0.5).astype(int)
    z = np.triu(z, 1) + np.triu(z, 1).T + np.eye(p, dtype=int)
    state.latent.z = z
    state.log_lik = log_likelihood_summary(state.params, stats)
    return state, stats, hyper


@pytest.mark.parametrize("p", [2, 3, 10])
def test_carried_omega_matches_per_column_factorization(p):
    state, stats, hyper = mixed_state(p, seed=40 + p)
    reference = copy.deepcopy(state)
    rng = np.random.Generator(np.random.PCG64(7))
    rng_ref = np.random.Generator(np.random.PCG64(7))
    for call in range(200):
        update_sigma_star(state, stats, hyper, rng)
        reference_update_sigma_star(reference, stats, hyper, rng_ref)
        sigma, sigma_ref = state.params.sigma_star, reference.params.sigma_star
        assert np.abs(sigma - sigma_ref).max() <= 1e-10 * np.abs(sigma_ref).max(), call
        assert state.log_lik == pytest.approx(reference.log_lik, rel=1e-10, abs=1e-10), call
    assert rng.bit_generator.state == rng_ref.bit_generator.state


def test_carried_omega_stays_exact_over_5000_sweeps(monkeypatch):
    # Before each refresh, Omega has been carried through one sweep's p
    # rank-one rebuilds; it must still invert Sigma* then, and after the last sweep.
    state, stats, hyper = mixed_state(3, seed=60)
    eye = np.eye(3)
    drift = []
    refresh = ChainState.refresh_precision

    def checked_refresh(self):
        drift.append(np.abs(self.omega @ self.params.sigma_star - eye).max())
        refresh(self)

    monkeypatch.setattr(ChainState, "refresh_precision", checked_refresh)
    rng = np.random.Generator(np.random.PCG64(8))
    for _ in range(5000):
        mcmc_sweep(state, stats, hyper, rng)
    assert len(drift) == 5000
    assert max(drift) <= 1e-10
    np.testing.assert_allclose(state.omega @ state.params.sigma_star, eye, rtol=0, atol=1e-10)
    sign, logdet = np.linalg.slogdet(state.params.sigma_star)
    assert sign == 1.0 and state.logdet_sigma == pytest.approx(logdet, rel=1e-12, abs=1e-12)


def test_chain_state_derives_omega_when_left_out():
    state, stats, _ = mixed_state(3, seed=61)
    derived = ChainState(params=state.params, latent=state.latent, log_lik=0.0)
    np.testing.assert_allclose(derived.omega @ state.params.sigma_star, np.eye(3), atol=1e-12)
    assert derived.logdet_sigma == pytest.approx(np.linalg.slogdet(state.params.sigma_star)[1])
    state.params.sigma_star = -np.eye(3)
    with pytest.raises(NumericalError, match="positive definite"):
        state.refresh_precision()


def test_update_sigma_star_raises_on_singular_i_minus_a():
    # Sigma* stays positive definite, so only the log-likelihood can flag this state.
    state, stats, hyper = mixed_state(2, seed=63)
    state.params.a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError, match="singular"):
        update_sigma_star(state, stats, hyper, np.random.default_rng(9))


@pytest.mark.parametrize("order", ["C", "F"])
def test_add_outer_updates_in_place(order):
    rng = np.random.default_rng(62)
    mat = np.asarray(rng.standard_normal((4, 3)), order=order)
    x, y = rng.standard_normal(4), rng.standard_normal(3)
    expected = mat + 0.5 * np.outer(x, y)
    _add_outer(mat, 0.5, x, y)
    np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-15)
