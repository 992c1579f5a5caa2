"""Step 4 against the blocked draw it replaced, and its per-chain work.

reference_update_b is step 4 as it was written before selection-mode rows
were factored in place: it builds every row's likelihood precision up
front, forms L b_j by a matrix-vector product per row, and draws through
dpotrs, dtrtrs and an add.  From equal states and generators seeded
alike, both must draw the same B to rounding level, advance the cached
log-likelihood alike and consume the same random stream.
"""

import copy
import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrs, dtrtrs

from cyclemr.mcmc import FIXED_MAP, SELECTION, NumericalError, _add_outer, update_b
from cyclemr.model import _chol_lower, residual_moments

from test_sigma_star_carried import mixed_state


def reference_draw_gaussian(prec, linear, normals):
    chol = _chol_lower(prec)
    mean, _ = dpotrs(chol, linear, lower=1)
    noise, _ = dtrtrs(chol, normals, lower=1, trans=1)
    return mean + noise


def reference_update_b(state, stats, hyper, rng):
    """Step 4 with every row's precision built up front and a dpotrs draw."""
    params, latent = state.params, state.latent
    n = stats.dims.n
    prec = state.omega
    selection = hyper.instrument_mode == SELECTION
    if selection:
        p, k = latent.phi.shape
        blocks = [((j, slice(None)), n * prec[j, j] * stats.s_xx) for j in range(p) if k]
        prior_var = np.where(latent.phi == 1, latent.eta, hyper.nu2 * latent.eta)
    else:
        rows, cols = np.nonzero(latent.phi == 1)
        lik_prec = n * prec[rows[:, None], rows] * stats.s_xx[cols[:, None], cols]
        blocks = [((rows, cols), lik_prec)] if rows.size else []
        prior_var = np.full(params.b.shape, hyper.b_prior_sd**2)
    b_mat = params.b
    r_x, _ = residual_moments(params, stats, slice(params.p, params.p + stats.dims.k))
    grad = n * prec @ r_x
    for index, lik_prec in blocks:
        old, g = b_mat[index], grad[index]
        normals = rng.standard_normal(old.size)
        new = reference_draw_gaussian(lik_prec + np.diag(1.0 / prior_var[index]), g + lik_prec @ old, normals)
        delta = new - old
        b_mat[index] = new
        state.log_lik += float(delta @ g - 0.5 * delta @ lik_prec @ delta)
        if selection:
            _add_outer(grad, -n, prec[:, index[0]], delta @ stats.s_xx)
        else:
            grad -= n * (prec[:, index[0]] * delta) @ stats.s_xx[index[1], :]


def b_state(p, mode, seed):
    """mixed_state with a non-diagonal Sigma*, mixed phi and random slab scales."""
    state, stats, hyper = mixed_state(p, seed)
    rng = np.random.default_rng(seed + 100)
    root = 0.3 * rng.standard_normal((p, p))
    state.params.sigma_star = root @ root.T + np.eye(p)
    state.refresh_precision()
    state.latent.phi = (rng.random(state.params.b.shape) < 0.5).astype(int)
    state.latent.phi[0, 0] = 1  # a non-empty fixed-map support
    state.latent.eta = rng.uniform(0.05, 2.0, state.params.b.shape)
    return state, stats, dataclasses.replace(hyper, instrument_mode=mode)


@pytest.mark.parametrize("mode", [SELECTION, FIXED_MAP])
@pytest.mark.parametrize("p", [2, 3, 10])
def test_update_b_matches_reference_draw_for_draw(p, mode):
    state, stats, hyper = b_state(p, mode, seed=70 + p)
    reference = copy.deepcopy(state)
    rng = np.random.Generator(np.random.PCG64(11))
    rng_ref = np.random.Generator(np.random.PCG64(11))
    for call in range(200):
        update_b(state, stats, hyper, rng)
        reference_update_b(reference, stats, hyper, rng_ref)
        b, b_ref = state.params.b, reference.params.b
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max(), call
        assert state.log_lik == pytest.approx(reference.log_lik, rel=1e-10, abs=1e-10), call
        if mode == FIXED_MAP and call == 100:
            # The support is built once per chain, keyed by phi: a new phi must rebuild it.
            for s in (state, reference):
                s.latent.phi[-1, -1] = 1 - s.latent.phi[-1, -1]
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("mode", [SELECTION, FIXED_MAP])
def test_update_b_raises_on_a_row_precision_that_is_not_positive_definite(mode):
    state, stats, hyper = b_state(3, mode, seed=80)
    if mode == SELECTION:
        state.latent.eta[1] = -1e-12
    else:
        state.omega = -state.omega  # a negative-definite likelihood term outweighs the prior
    with pytest.raises(NumericalError, match="not positive definite"):
        update_b(state, stats, hyper, np.random.default_rng(0))
