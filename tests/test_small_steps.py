"""Steps 1-3, 5-7 and 10 and their samplers against references written as the code stood before they were trimmed.

The references below gather each off-diagonal array as often as the
steps once did, square each value twice, clip through temporaries and
build np.eye and np.diag temporaries.  From equal states and generators
seeded alike, the current steps must leave identical latent arrays and
generator states after 200 calls, at p = 1 (an empty off-diagonal), 2, 3
and 10 and with and without instrument selection, and every sampler must
still reject NaN with ValueError.
"""

import copy
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf
from scipy.special import expit

from cyclemr.distributions import sample_bernoulli, sample_beta, sample_inverse_gamma
from cyclemr.mcmc import (
    FIXED_MAP,
    SELECTION,
    Hyperparameters,
    LatentState,
    initial_state,
    update_eta,
    update_gamma,
    update_phi,
    update_psi,
    update_rho,
    update_tau,
    update_z,
)
from cyclemr.model import (
    SINGULAR_PIVOT_TOL,
    NumericalError,
    RawDataSet,
    compute_sufficient_stats,
    logabsdet_i_minus_a,
)


def reference_sample_inverse_gamma(shape, scale, rng):
    shape = np.asarray(shape, dtype=float)
    scale = np.asarray(scale, dtype=float)
    if not ((shape > 0).all() and (scale > 0).all()):
        raise ValueError("inverse-gamma parameters must be positive")
    gamma = rng.gamma(shape, 1.0, size=np.broadcast_shapes(shape.shape, scale.shape))
    with np.errstate(divide="ignore", over="ignore"):
        draw = np.minimum(np.maximum(scale / gamma, 1e-300), 1e300)
    return float(draw) if draw.ndim == 0 else draw


def reference_sample_beta(a, b, rng):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not ((a > 0).all() and (b > 0).all()):
        raise ValueError("beta shapes must be positive")
    draw = rng.beta(a, b)
    return float(draw) if np.ndim(draw) == 0 else draw


def reference_sample_bernoulli(q, rng):
    q = np.asarray(q, dtype=float)
    if not ((q >= -1e-12).all() and (q <= 1.0 + 1e-12).all()):
        raise ValueError("bernoulli probability outside [0, 1]")
    draw = (rng.random(q.shape) < q).astype(np.int8)
    return int(draw) if draw.ndim == 0 else draw


def reference_half_cauchy_scales(scales, values, included, shrink, rng):
    eps = reference_sample_inverse_gamma(1.0, 1.0 + 1.0 / scales, rng)
    rate = np.where(included == 1, values * values / 2.0, values * values / (2.0 * shrink)) + 1.0 / eps
    return reference_sample_inverse_gamma(1.0, np.maximum(rate, 1e-300), rng)


def reference_inclusion_probability(values, scales, shrink, weights):
    with np.errstate(divide="ignore"):
        log_slab = np.log(weights) - values * values / (2.0 * scales)
        log_spike = (
            np.log1p(-np.asarray(weights, dtype=float))
            - values * values / (2.0 * shrink * scales)
            - 0.5 * math.log(shrink)
        )
    return expit(log_slab - log_spike)


def reference_logabsdet_i_minus_a(a):
    lu, _, _ = dgetrf(np.eye(a.shape[0]) - a)
    pivots = np.abs(np.diag(lu))
    if pivots.min(initial=1.0) < SINGULAR_PIVOT_TOL:
        return None
    return float(np.log(pivots).sum())


def reference_update_psi(state, hyper, rng):
    latent = state.latent
    latent.psi = reference_sample_beta(latent.phi + hyper.a_psi, 1 - latent.phi + hyper.b_psi, rng)


def reference_update_eta(state, hyper, rng):
    latent = state.latent
    latent.eta = reference_half_cauchy_scales(latent.eta, state.params.b, latent.phi, hyper.nu2, rng)


def reference_update_phi(state, hyper, rng):
    latent = state.latent
    p_phi = reference_inclusion_probability(state.params.b, latent.eta, hyper.nu2, latent.psi)
    latent.phi = reference_sample_bernoulli(p_phi, rng)


def reference_update_rho(state, hyper, rng):
    latent = state.latent
    off = ~np.eye(latent.rho.shape[0], dtype=bool)
    latent.rho[off] = reference_sample_beta(
        latent.gamma[off] + hyper.a_rho, 1 - latent.gamma[off] + hyper.b_rho, rng
    )


def reference_update_tau(state, hyper, rng):
    latent = state.latent
    off = ~np.eye(latent.tau.shape[0], dtype=bool)
    latent.tau[off] = reference_half_cauchy_scales(
        latent.tau[off], state.params.a[off], latent.gamma[off], hyper.nu1, rng
    )


def reference_update_gamma(state, hyper, rng):
    latent = state.latent
    off = ~np.eye(latent.gamma.shape[0], dtype=bool)
    p_gamma = reference_inclusion_probability(state.params.a[off], latent.tau[off], hyper.nu1, latent.rho[off])
    latent.gamma[off] = reference_sample_bernoulli(p_gamma, rng)


def reference_update_z(state, hyper, rng):
    latent = state.latent
    sigma = state.params.sigma_star
    iu = np.triu_indices(sigma.shape[0], 1)
    probability = reference_inclusion_probability(
        sigma[iu], hyper.omega1**2, (hyper.omega2 / hyper.omega1) ** 2, hyper.pi_z
    )
    draws = reference_sample_bernoulli(probability, rng)
    latent.z[iu] = draws
    latent.z.T[iu] = draws


# (step, reference) in sweep order; the first three run only with instrument selection.
SELECTION_STEPS = [(update_psi, reference_update_psi), (update_eta, reference_update_eta),
                   (update_phi, reference_update_phi)]
SHARED_STEPS = [(update_rho, reference_update_rho), (update_tau, reference_update_tau),
                (update_gamma, reference_update_gamma), (update_z, reference_update_z)]


def small_state(p, mode, seed):
    """A state with non-zero A and B, correlated errors and mixed gamma; these steps never change A, B or Sigma*."""
    rng = np.random.default_rng(seed)
    n, k = 4 * p + 20, 3
    data = RawDataSet(y=rng.standard_normal((n, p)), x=rng.standard_normal((n, k)), u=np.zeros((n, 0)))
    stats = compute_sufficient_stats(data)
    hyper = Hyperparameters(instrument_mode=mode, omega1=0.8, omega2=0.1)
    support = (rng.random((p, k)) < 0.6).astype(int) if mode == FIXED_MAP else None
    state = initial_state(stats, hyper, support)
    a = rng.uniform(-0.05, 0.05, (p, p))
    np.fill_diagonal(a, 0.0)
    state.params.a = a
    state.params.b = 0.3 * rng.standard_normal((p, k))
    m = rng.standard_normal((p, p))
    state.params.sigma_star = 0.1 * m @ m.T + np.eye(p)
    state.refresh_precision()
    gamma = (rng.random((p, p)) < 0.5).astype(int)
    np.fill_diagonal(gamma, 0)
    state.latent.gamma = gamma
    return state, hyper


@pytest.mark.parametrize("mode", [FIXED_MAP, SELECTION])
@pytest.mark.parametrize("p", [1, 2, 3, 10])
def test_steps_match_the_reference(p, mode):
    state, hyper = small_state(p, mode, seed=60 + p)
    reference = copy.deepcopy(state)
    rng = np.random.Generator(np.random.PCG64(11))
    rng_ref = np.random.Generator(np.random.PCG64(11))
    steps = (SELECTION_STEPS if mode == SELECTION else []) + SHARED_STEPS
    visited = set()
    for _ in range(200):
        for step, reference_step in steps:
            step(state, hyper, rng)
            reference_step(reference, hyper, rng_ref)
        visited.add(state.latent.gamma.tobytes() + state.latent.z.tobytes())
    for name in LatentState.__dataclass_fields__:
        ours, theirs = getattr(state.latent, name), getattr(reference.latent, name)
        assert ours.dtype == theirs.dtype, name
        np.testing.assert_array_equal(ours, theirs, err_msg=name)
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert len(visited) > 1 or p == 1  # the indicators moved


@pytest.mark.parametrize("p", [1, 2, 3, 10])
def test_logabsdet_matches_the_reference(p):
    rng = np.random.default_rng(70 + p)
    cases = [np.zeros((p, p)), rng.uniform(-0.5, 0.5, (p, p)), rng.uniform(-3.0, 3.0, (p, p))]
    singular = np.zeros((p, p))
    singular[0, 0] = 1.0  # I - A has a zero row
    for a in cases:
        assert logabsdet_i_minus_a(a) == reference_logabsdet_i_minus_a(a)
    assert reference_logabsdet_i_minus_a(singular) is None
    with pytest.raises(NumericalError, match="singular"):
        logabsdet_i_minus_a(singular)


@pytest.mark.parametrize(
    "sampler, args",
    [
        (sample_inverse_gamma, (math.nan, 1.0)),
        (sample_inverse_gamma, (1.0, np.array([1.0, math.nan]))),
        (sample_inverse_gamma, (np.array([math.nan, 1.0]), np.ones(2))),
        (sample_beta, (math.nan, 1.0)),
        (sample_beta, (np.ones(2), np.array([1.0, math.nan]))),
        (sample_bernoulli, (math.nan,)),
        (sample_bernoulli, (np.array([0.5, math.nan]),)),
    ],
)
def test_samplers_reject_nan(sampler, args):
    with pytest.raises(ValueError):
        sampler(*args, np.random.default_rng(0))


def _plant_nan(state, hyper, where):
    if where in ("hyper.a_psi", "hyper.a_rho"):
        object.__setattr__(hyper, where.split(".")[1], math.nan)  # past the checks of a frozen Hyperparameters
    elif where == "sigma_star":
        state.params.sigma_star[0, 1] = state.params.sigma_star[1, 0] = math.nan
    else:
        owner, name = where.split(".")
        getattr(getattr(state, owner), name)[0, 1] = math.nan


@pytest.mark.parametrize(
    "step, reference_step, where",
    [
        (update_psi, reference_update_psi, "hyper.a_psi"),
        (update_eta, reference_update_eta, "latent.eta"),
        (update_phi, reference_update_phi, "params.b"),
        (update_rho, reference_update_rho, "hyper.a_rho"),
        (update_tau, reference_update_tau, "latent.tau"),
        (update_gamma, reference_update_gamma, "params.a"),
        (update_z, reference_update_z, "sigma_star"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_steps_reject_nan_like_the_reference(step, reference_step, where):
    for run in (step, reference_step):
        state, hyper = small_state(3, SELECTION, seed=80)
        _plant_nan(state, hyper, where)
        with pytest.raises(ValueError):
            run(state, hyper, np.random.default_rng(0))
