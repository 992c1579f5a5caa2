"""Joint-distribution test harness: marginal-conditional vs successive-conditional.

Draws (parameters, data) two ways that must agree when the kernel is
correct: directly from prior + data model, and by alternating one MCMC
sweep with a fresh data redraw.  Heavy-tailed quantities (half-Cauchy
scales and their children) are compared through bounded or log
transforms, since their raw prior moments do not exist.

Two models are covered: the selection-mode micro-model (p=2, k=2, no
covariates by default, or p=3 with a covariate), which runs update_b's
row blocks, and a fixed-map model with covariates, which runs update_b's
single support block and a vector column in the Sigma* sweep.

With covariates, each step of the successive-conditional simulator runs
the sweep as run_chain does, on collapse_covariates' statistics, and then
draws C exactly from its full conditional with update_c, before the data
are redrawn.
"""

import numpy as np
import scipy.linalg

from cyclemr.distributions import draw_matrix_normal, sample_inverse_gamma
from cyclemr.mcmc import FIXED_MAP, ChainState, Hyperparameters, LatentState, collapse_covariates, mcmc_sweep, update_c
from cyclemr.model import ModelParameters, RawDataSet, _chol_lower, compute_sufficient_stats


def _sample_prior_sigma(p, hyper, rng):
    """Sigma* from its spike-and-slab prior, by rejection of draws that are not PD.

    The C prior is matrix normal MN(0, Sigma*, tau_c I_l), drawn given
    Sigma*, so covariates leave the marginal prior of Sigma* unchanged.
    """
    iu = np.triu_indices(p, 1)
    while True:
        z_off = (rng.random(iu[0].size) < hyper.pi_z).astype(int)
        sigma = np.zeros((p, p))
        off = rng.normal(0.0, np.where(z_off == 1, hyper.omega1, hyper.omega2))
        sigma[iu] = off
        sigma.T[iu] = off
        sigma[np.diag_indices(p)] = rng.exponential(2.0 / hyper.lam, p)
        try:
            scipy.linalg.cholesky(sigma, lower=True)
        except scipy.linalg.LinAlgError:
            continue
        return sigma, z_off


def sample_prior_state(p, k, hyper, rng, l=0, support=None):
    """Exact draw from the joint prior, via the half-Cauchy hierarchy and PD rejection.

    In fixed-map mode (support given) B is N(0, b_prior_sd^2) on the
    support and zero elsewhere, and psi, eta keep the constants the
    kernel never updates.
    """
    rho = rng.beta(hyper.a_rho, hyper.b_rho, (p, p))
    gamma = (rng.random((p, p)) < rho).astype(int)
    np.fill_diagonal(gamma, 0)
    aux_a = sample_inverse_gamma(0.5, np.ones((p, p)), rng)
    tau = sample_inverse_gamma(0.5, 1.0 / aux_a, rng)
    a = rng.normal(0.0, np.sqrt(np.where(gamma == 1, tau, hyper.nu1 * tau)))
    np.fill_diagonal(a, 0.0)

    if support is None:
        psi = rng.beta(hyper.a_psi, hyper.b_psi, (p, k))
        phi = (rng.random((p, k)) < psi).astype(int)
        aux_b = sample_inverse_gamma(0.5, np.ones((p, k)), rng)
        eta = sample_inverse_gamma(0.5, 1.0 / aux_b, rng)
        b = rng.normal(0.0, np.sqrt(np.where(phi == 1, eta, hyper.nu2 * eta)))
    else:
        psi, phi, eta = np.full((p, k), 0.5), support.copy(), np.ones((p, k))
        b = np.where(support == 1, rng.normal(0.0, hyper.b_prior_sd, (p, k)), 0.0)

    sigma, z_off = _sample_prior_sigma(p, hyper, rng)
    iu = np.triu_indices(p, 1)
    z = np.ones((p, p), dtype=int)
    z[iu] = z_off
    z.T[iu] = z_off
    c = np.zeros((p, 0))
    if l:
        c = draw_matrix_normal(np.zeros((p, l)), _chol_lower(sigma), _chol_lower(hyper.tau_c * np.eye(l)), rng)

    params = ModelParameters(a=a, b=b, c=c, sigma_star=sigma)
    latent = LatentState(gamma=gamma, rho=rho, tau=tau, phi=phi, psi=psi, eta=eta, z=z)
    return ChainState(params=params, latent=latent, log_lik=0.0)


def simulate_data(params, x, u, rng):
    """Draw traits from the structural model conditional on fixed instruments and covariates."""
    n, _ = x.shape
    p = params.p
    noise = rng.multivariate_normal(np.zeros(p), params.sigma_star, size=n)
    f = np.eye(p) - params.a
    rhs = x @ params.b.T + noise
    if u.shape[1]:
        rhs += u @ params.c.T
    y = scipy.linalg.solve(f, rhs.T, check_finite=False).T
    return RawDataSet(y=y, x=x, u=u)


def state_functionals(state, hyper):
    """Bounded/stabilized test functions of one chain state.

    The selection-step latents phi, psi and eta are left out in fixed-map
    mode, where the kernel does not update them.
    """
    params, latent = state.params, state.latent
    p = params.a.shape[0]
    off = ~np.eye(p, dtype=bool)
    iu = np.triu_indices(p, 1)
    selection = hyper.instrument_mode != FIXED_MAP
    vals = [
        *np.arctan(params.a[off]),
        *np.arctan(params.b.ravel()),
        *np.arctan(params.sigma_star[iu]),
        *np.log(np.diag(params.sigma_star)),
        *latent.gamma[off].astype(float),
        *(latent.phi.ravel().astype(float) if selection else []),
        *latent.z[iu].astype(float),
        *latent.rho[off],
        *(latent.psi.ravel() if selection else []),
        *np.log(latent.tau[off]),
        *(np.log(latent.eta.ravel()) if selection else []),
        *np.arctan(params.c.ravel()),
    ]
    return np.array(vals)


def _design(n, k, l, rng):
    x = rng.standard_normal((n, k))
    u = rng.standard_normal((n, l)) if l else np.zeros((n, 0))
    return x, u


def run_marginal_conditional(p, k, n, hyper, draws, seed, l=0, support=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    x, u = _design(n, k, l, rng)
    rows = []
    for _ in range(draws):
        state = sample_prior_state(p, k, hyper, rng, l, support)
        simulate_data(state.params, x, u, rng)  # data drawn for parity; g uses state only
        rows.append(state_functionals(state, hyper))
    return np.array(rows)


def run_successive_conditional(p, k, n, hyper, replicates, length, seed, l=0, support=None):
    """Restarted successive-conditional simulator.

    Each replicate starts from an exact prior draw (so every sweep is
    stationary when the kernel is correct) and alternates one kernel sweep
    with a data redraw for `length` sweeps; the final state is recorded.
    Restarting makes the recorded states independent, which keeps the
    moment standard errors valid even where the half-Cauchy tails would
    make a single chain mix arbitrarily slowly.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    x, u = _design(n, k, l, rng)
    rows = []
    for _ in range(replicates):
        state = sample_prior_state(p, k, hyper, rng, l, support)
        data = simulate_data(state.params, x, u, rng)
        stats = compute_sufficient_stats(data)
        for _ in range(length):
            params = state.params
            params.c = params.c[:, :0]  # the sweep runs with C integrated out
            state.log_lik = 0.0
            mcmc_sweep(state, collapse_covariates(stats, hyper)[0], hyper, rng)
            params.c = update_c(params.a[None], params.b[None], params.sigma_star[None], stats, hyper, rng)[0]
            data = simulate_data(state.params, x, u, rng)
            stats = compute_sufficient_stats(data)
        rows.append(state_functionals(state, hyper))
    return np.array(rows)


def compare_moments(mc_rows, sc_rows):
    """Z-scores of first/second-moment differences between the two simulators."""
    zs = []
    for moment in (1, 2):
        mc = mc_rows**moment
        sc = sc_rows**moment
        diff = mc.mean(axis=0) - sc.mean(axis=0)
        se_mc = mc.std(axis=0, ddof=1) / np.sqrt(mc.shape[0])
        se_sc = sc.std(axis=0, ddof=1) / np.sqrt(sc.shape[0])
        zs.append(diff / np.sqrt(se_mc**2 + se_sc**2 + 1e-300))
    return np.concatenate(zs)


def geweke_micro_test(total_sweeps=50_000, chain_length=10, seed=2024, n=30, p=2, k=2, l=0, tau_c=10.0):
    """Run the full comparison on the selection-mode micro-model, by default p=2, k=2, l=0."""
    hyper = Hyperparameters(
        nu1=0.1, nu2=0.1, omega1=0.8, omega2=0.1, pi_z=0.5, lam=1.0,
        tau_c=tau_c, instrument_mode="selection",
    )
    replicates = total_sweeps // chain_length
    mc = run_marginal_conditional(p, k, n, hyper, replicates, seed, l=l)
    sc = run_successive_conditional(p, k, n, hyper, replicates, chain_length, seed + 1, l=l)
    return compare_moments(mc, sc)


# Fixed-map model: p=3 traits, k=4 instruments (one pleiotropic), l=1 covariate.
FIXED_MAP_SUPPORT = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])


def geweke_fixed_map_test(total_sweeps=30_000, chain_length=10, seed=2025, n=30):
    """Run the full comparison on the fixed-map p=3, k=4, l=1 model."""
    hyper = Hyperparameters(
        nu1=0.1, omega1=0.8, omega2=0.1, pi_z=0.5, lam=1.0,
        tau_c=1.0, instrument_mode=FIXED_MAP, b_prior_sd=2.0,
    )
    p, k = FIXED_MAP_SUPPORT.shape
    replicates = total_sweeps // chain_length
    mc = run_marginal_conditional(p, k, n, hyper, replicates, seed, l=1, support=FIXED_MAP_SUPPORT)
    sc = run_successive_conditional(
        p, k, n, hyper, replicates, chain_length, seed + 1, l=1, support=FIXED_MAP_SUPPORT
    )
    return compare_moments(mc, sc)
