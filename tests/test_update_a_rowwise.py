"""Step 8 row by row against the entrywise reference it replaced.

reference_update_a is the random-walk Metropolis step on A as it was
written before the row-wise sweep, with the per-entry proposal scale of
update_a: every accepted move applies its own two rank-one updates, one
to (I - A)^{-1} and one to the gradient Omega R_y.  From equal states and generators seeded alike, both must make
the same accept/reject decisions, advance the cached log-likelihood alike
and consume the same random stream.

The states get a non-diagonal Sigma*: with a diagonal one, Omega[:, j]
reaches only row j of the gradient, so a missing end-of-row gradient
update would change nothing that the proposals read.
"""

import copy
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from cyclemr.mcmc import _add_outer, update_a
from cyclemr.model import log_likelihood_summary, residual_moments

from test_sigma_star_carried import mixed_state


def reference_update_a(state, stats, hyper, rng):
    """Step 8 with one Sherman-Morrison and one gradient update per accepted move."""
    params, latent = state.params, state.latent
    p = params.p
    n = stats.dims.n
    a_mat = params.a
    prec = state.omega
    lu, piv, _ = dgetrf(np.eye(p) - a_mat)
    f_inv, _ = dgetrs(lu, piv, np.eye(p))
    r_y, _ = residual_moments(params, stats, slice(0, p))
    grad = prec @ r_y
    prec_diag = np.diag(prec).copy()
    syy_diag = np.diag(stats.s_yy).copy()
    pairs = [(j, h) for j in range(p) for h in range(p) if j != h]
    normals = rng.standard_normal(len(pairs)).tolist()
    uniforms = rng.random(len(pairs)).tolist()
    log_lik = state.log_lik
    accepted = 0
    for i, (j, h) in enumerate(pairs):
        cur = a_mat[j, h]
        prior_var = latent.tau[j, h] if latent.gamma[j, h] == 1 else hyper.nu1 * latent.tau[j, h]
        delta = normals[i] * (2.38 / math.sqrt(n * (prec_diag[j] * syy_diag[h]) + 1.0 / prior_var))
        new = cur + delta
        denom = 1.0 - delta * f_inv[h, j]
        if abs(denom) < 1e-12:
            continue
        d_quad = delta * delta * prec_diag[j] * syy_diag[h] - 2.0 * delta * grad[j, h]
        d_ll = n * math.log(abs(denom)) - 0.5 * n * d_quad
        log_alpha = d_ll - (new * new - cur * cur) / (2.0 * prior_var)
        if log_alpha >= 0.0 or uniforms[i] < math.exp(log_alpha):
            a_mat[j, h] = new
            log_lik += d_ll
            _add_outer(grad, -delta, prec[:, j], stats.s_yy[h])
            _add_outer(f_inv, delta / denom, f_inv[:, j].copy(), f_inv[h].copy())
            accepted += 1
    state.log_lik = log_lik
    return accepted, len(pairs)


def correlated_state(p, seed):
    """mixed_state with a non-diagonal Sigma*, mixed edge indicators and scales, and a fresh log-likelihood."""
    state, stats, hyper = mixed_state(p, seed)
    rng = np.random.default_rng(seed + 1)
    w = rng.standard_normal((p, p))
    state.params.sigma_star = 0.5 * np.eye(p) + w @ w.T / p
    state.refresh_precision()
    # Every third entry under the spike; both entries at p = 2 stay in the slab, so both rows move.
    rows, cols = np.indices((p, p))
    gamma = ((rows + cols) % 3 != 0).astype(int)
    np.fill_diagonal(gamma, 0)
    state.latent.gamma = gamma
    state.latent.tau = rng.uniform(0.05, 2.0, (p, p))
    state.log_lik = log_likelihood_summary(state.params, stats)
    return state, stats, hyper


@pytest.mark.parametrize("tau_factor", [0.2, 0.01, 1e-4])
@pytest.mark.parametrize("p", [2, 3, 10])
def test_row_wise_step_matches_entrywise_reference(p, tau_factor):
    state, stats, hyper = correlated_state(p, seed=70 + p)
    # Scaling tau scales the prior variances, and with them the proposals, over four decades.
    state.latent.tau *= tau_factor
    reference = copy.deepcopy(state)
    rng = np.random.Generator(np.random.PCG64(11))
    rng_ref = np.random.Generator(np.random.PCG64(11))
    accepted = 0
    for call in range(200):
        counts = update_a(state, stats, hyper, rng)
        assert counts == reference_update_a(reference, stats, hyper, rng_ref), call
        np.testing.assert_array_equal(state.params.a, reference.params.a, err_msg=f"call {call}")
        assert state.log_lik == pytest.approx(reference.log_lik, rel=1e-12, abs=0), call
        accepted += counts[0]
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    # Every case moves A, so the end-of-row updates are exercised.
    assert accepted > 0
    assert state.log_lik == pytest.approx(log_likelihood_summary(state.params, stats), rel=1e-8)
