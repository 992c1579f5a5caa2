import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import kv

from cyclemr import mcmc
from cyclemr.distributions import GigParams, sample_gig, sample_inverse_gamma
from cyclemr.mcmc import (
    FIXED_MAP,
    SELECTION,
    ChainState,
    Hyperparameters,
    McmcConfig,
    NumericalError,
    _inclusion_probability,
    confounding_probability,
    initial_state,
    mcmc_sweep,
    run_chain,
    update_a,
    update_b,
    update_c,
    update_eta,
    update_phi,
    update_psi,
    update_sigma_star,
    update_z,
)
from cyclemr.model import (
    ModelParameters,
    RawDataSet,
    compute_sufficient_stats,
    log_likelihood_summary,
)


def make_stats(rng, p=3, k=4, l=0, n=25):
    data = RawDataSet(
        y=rng.standard_normal((n, p)),
        x=rng.standard_normal((n, k)),
        u=rng.standard_normal((n, l)),
    )
    return compute_sufficient_stats(data)


def selection_hyper(**kw):
    return Hyperparameters(instrument_mode=SELECTION, **kw)


class TestInclusionProbability:
    def test_zero_effect_hand_value(self):
        # value 0, weight 1/2, shrink 0.01: 0.5 / (0.5 + 0.5/0.1) = 1/11
        p = _inclusion_probability(np.array(0.0), np.array(1.0), 0.01, np.array(0.5))
        assert p == pytest.approx(1.0 / 11.0, abs=1e-12)

    def test_certain_weight(self):
        assert _inclusion_probability(np.array(0.3), np.array(1.0), 0.01, np.array(1.0)) == 1.0

    def test_large_signal_saturates(self):
        # value^2/scale = 20 makes the spike term exp(-1000) negligible
        p = _inclusion_probability(np.array(math.sqrt(20.0)), np.array(1.0), 0.01, np.array(0.5))
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_confounding_probability_cases(self):
        equal = Hyperparameters(omega1=0.5, omega2=0.5, pi_z=0.37)
        assert confounding_probability(np.array([0.0, 1.3]), equal) == pytest.approx([0.37, 0.37])
        hyper = Hyperparameters(omega1=1.0, omega2=0.1, pi_z=0.5)
        assert confounding_probability(np.array(0.0), hyper) == pytest.approx(1.0 / 11.0)
        sure = Hyperparameters(omega1=1.0, omega2=0.1, pi_z=1.0)
        assert confounding_probability(np.array(0.4), sure) == 1.0


class TestConjugateSteps:
    def test_update_psi_beta_moments(self):
        rng = np.random.default_rng(0)
        stats = make_stats(rng, p=2, k=2)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        state.latent.phi = np.array([[1, 0], [1, 1]])
        draws = []
        for _ in range(20_000):
            update_psi(state, hyper, rng)
            draws.append(state.latent.psi.copy())
        draws = np.stack(draws)
        # phi=1: Beta(2,1) mean 2/3; phi=0: Beta(1,2) mean 1/3
        se = 0.25 / math.sqrt(draws.shape[0])
        assert abs(draws[:, 0, 0].mean() - 2.0 / 3.0) < 4 * se
        assert abs(draws[:, 0, 1].mean() - 1.0 / 3.0) < 4 * se
        assert np.all((draws > 0) & (draws < 1))

    def test_update_eta_stationary_against_quadrature_oracle(self):
        # With b fixed, iterating step 2 targets p(eta | b), whose density
        # exp(-b^2/(2 eta)) / (eta (1 + eta)) we integrate numerically.
        import scipy.integrate

        rng = np.random.default_rng(1)
        stats = make_stats(rng, p=1, k=1)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        b_val = 0.3
        state.params.b = np.array([[b_val]])
        state.latent.phi = np.array([[1]])
        draws = []
        for _ in range(60_000):
            update_eta(state, hyper, rng)
            draws.append(state.latent.eta[0, 0])
        chain = np.array(draws[5_000:])[::25]

        def density(eta):
            return np.exp(-b_val**2 / (2 * eta)) / (eta * (1 + eta))

        norm, _ = scipy.integrate.quad(density, 0, np.inf)

        def cdf(vals):
            return np.array(
                [scipy.integrate.quad(density, 0, v)[0] / norm for v in np.atleast_1d(vals)]
            )

        stat = scipy.stats.kstest(chain, cdf)
        assert stat.pvalue > 0.01

    def test_update_eta_phi_branch_scales(self):
        rng = np.random.default_rng(3)
        stats = make_stats(rng, p=1, k=2)
        hyper = selection_hyper(nu2=0.01)
        state = initial_state(stats, hyper)
        state.params.b = np.array([[2.0, 2.0]])
        state.latent.phi = np.array([[1, 0]])
        draws = []
        for _ in range(30_000):
            state.latent.eta = np.ones((1, 2))  # reset so only one transition matters
            update_eta(state, hyper, rng)
            draws.append(state.latent.eta.copy())
        draws = np.stack(draws)
        # spike branch rate is b^2/(2 nu2), 100x the slab branch; compare medians
        ratio = np.median(draws[:, 0, 1]) / np.median(draws[:, 0, 0])
        assert ratio > 20

    def test_update_phi_frequency_matches_probability(self):
        rng = np.random.default_rng(4)
        stats = make_stats(rng, p=1, k=1)
        hyper = selection_hyper(nu2=0.01)
        state = initial_state(stats, hyper)
        state.params.b = np.zeros((1, 1))
        state.latent.eta = np.ones((1, 1))
        state.latent.psi = np.full((1, 1), 0.5)
        hits = 0
        trials = 20_000
        for _ in range(trials):
            update_phi(state, hyper, rng)
            hits += int(state.latent.phi[0, 0])
        expected = 1.0 / 11.0
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 4 * se


class TestMetropolisSteps:
    def test_delta_updates_match_full_recomputation(self):
        rng = np.random.default_rng(5)
        stats = make_stats(rng, p=3, k=4, l=2, n=30)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        state.params.a = rng.uniform(-0.3, 0.3, (3, 3))
        np.fill_diagonal(state.params.a, 0.0)
        state.params.b = rng.standard_normal((3, 4))
        state.params.c = rng.standard_normal((3, 2))
        root = rng.standard_normal((3, 3))
        state.params.sigma_star = root @ root.T + 2 * np.eye(3)
        state.refresh_precision()
        state.log_lik = log_likelihood_summary(state.params, stats)
        for _ in range(5):
            for step in (update_b, update_a, update_sigma_star):
                step(state, stats, hyper, rng)
                fresh = log_likelihood_summary(state.params, stats)
                assert state.log_lik == pytest.approx(fresh, abs=1e-9), step.__name__

    def test_update_b_conjugate_oracle(self):
        # p=1, k=1 fixed-map: y = b x + e with known Sigma*; the draws are
        # iid from the conjugate normal posterior.
        rng = np.random.default_rng(7)
        n, b_true = 400, 0.7
        x = rng.standard_normal((n, 1))
        y = b_true * x + 0.5 * rng.standard_normal((n, 1))
        stats = compute_sufficient_stats(RawDataSet(y=y, x=x, u=np.zeros((n, 0))))
        prior_sd = 2.0
        hyper = Hyperparameters(instrument_mode=FIXED_MAP, b_prior_sd=prior_sd)
        support = np.array([[1]])
        state = initial_state(stats, hyper, support)
        sigma = float(state.params.sigma_star[0, 0])
        state.log_lik = log_likelihood_summary(state.params, stats)
        draws = []
        for _ in range(20_000):
            update_b(state, stats, hyper, rng)
            draws.append(state.params.b[0, 0])
        draws = np.array(draws)
        prec = n * stats.s_xx[0, 0] / sigma + 1.0 / prior_sd**2
        post_mean = (n * stats.s_yx[0, 0] / sigma) / prec
        assert abs(draws.mean() - post_mean) < 4 * math.sqrt(1.0 / prec / draws.size)
        # sample variance of iid normals: relative sd sqrt(2 / (N - 1))
        assert abs(draws.var(ddof=1) * prec - 1.0) < 4 * math.sqrt(2.0 / (draws.size - 1))
        assert state.log_lik == pytest.approx(log_likelihood_summary(state.params, stats), abs=1e-9)

    def test_update_b_selection_matches_joint_conditional(self):
        # Selection mode draws B row by row; iterated, the rows must reach the
        # joint Gaussian conditional with precision n (Omega kron S_xx) + D.
        # A non-diagonal Sigma* couples the rows, so a wrong cross-row term
        # shifts the stationary mean and covariance.
        rng = np.random.default_rng(25)
        p, k, n = 2, 3, 20
        stats = make_stats(rng, p=p, k=k, l=1, n=n)
        hyper = selection_hyper(nu2=0.05)
        state = initial_state(stats, hyper)
        state.params.a = np.array([[0.0, 0.3], [-0.2, 0.0]])
        state.params.c = rng.standard_normal((p, 1))
        state.params.sigma_star = np.array([[1.0, 0.8], [0.8, 1.0]])
        state.refresh_precision()
        state.latent.phi = np.array([[1, 0, 1], [1, 1, 0]])
        state.latent.eta = np.array([[0.5, 2.0, 1.0], [3.0, 0.2, 1.5]])
        omega = np.linalg.inv(state.params.sigma_star)
        prior_var = np.where(state.latent.phi == 1, state.latent.eta, hyper.nu2 * state.latent.eta)
        prec = n * np.kron(omega, stats.s_xx) + np.diag(1.0 / prior_var.ravel())
        m = (np.eye(p) - state.params.a) @ stats.s_yx - state.params.c @ stats.s_xu.T
        cov = np.linalg.inv(prec)
        mean = cov @ (n * omega @ m).ravel()

        draws = []
        for _ in range(40_000):
            update_b(state, stats, hyper, rng)
            draws.append(state.params.b.ravel().copy())
        draws = np.array(draws[100:])
        centred = draws - mean
        products = (centred[:, :, None] * centred[:, None, :]).reshape(draws.shape[0], -1)
        # batch means absorb the autocorrelation between successive sweeps
        for values, expected in ((draws, mean), (products, cov.ravel())):
            batches = values[: values.shape[0] // 100 * 100].reshape(100, -1, values.shape[1]).mean(axis=1)
            se = batches.std(axis=0, ddof=1) / math.sqrt(100)
            assert np.all(np.abs(batches.mean(axis=0) - expected) < 4.5 * se + 1e-12)

    def test_update_a_skips_diagonal_and_recovers_effect(self):
        rng = np.random.default_rng(8)
        n = 10_000
        a_true = 0.12
        x = rng.standard_normal((n, 2))
        y1 = x[:, :1] + rng.standard_normal((n, 1))
        y2 = a_true * y1 + x[:, 1:] + rng.standard_normal((n, 1))
        data = RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0)))
        stats = compute_sufficient_stats(data)
        config = McmcConfig(
            iterations=4_000,
            burn_in=1_000,
            thin=2,
            seed=1,
            hyper=Hyperparameters(instrument_mode=FIXED_MAP, nu1=1e-4),
            fixed_b_support=np.eye(2, dtype=int),
        )
        chain = run_chain(stats, config)
        assert np.all(chain.a[:, 0, 0] == 0.0) and np.all(chain.a[:, 1, 1] == 0.0)
        post = chain.a[:, 1, 0]
        assert abs(post.mean() - a_true) < 2 * max(post.std(), 0.01)

    def test_singular_proposals_rejected(self):
        rng = np.random.default_rng(9)
        stats = make_stats(rng, p=2, k=2)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        state.params.a = np.array([[0.0, 0.999], [0.999, 0.0]])
        state.log_lik = log_likelihood_summary(state.params, stats)
        update_a(state, stats, hyper, rng)
        f = np.eye(2) - state.params.a
        assert abs(np.linalg.det(f)) > 0
        assert math.isfinite(state.log_lik)


class TestGibbsSteps:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_draw_gaussian_reads_only_the_lower_triangle(self, order):
        # _draw_gaussian leaves the factor's upper triangle as prec held it, so neither solve may read it.
        rng = np.random.default_rng(24)
        root = rng.standard_normal((6, 6))
        prec = root @ root.T + 6.0 * np.eye(6)
        linear, normals = rng.standard_normal(6), rng.standard_normal(6)
        poisoned = prec.copy()
        poisoned[np.triu_indices(6, 1)] = np.nan
        expected = mcmc._draw_gaussian(np.array(prec, order=order), linear, normals, "test")
        drawn = mcmc._draw_gaussian(np.array(poisoned, order=order), linear, normals, "test")
        assert np.all(np.isfinite(expected))
        assert np.array_equal(drawn, expected)

    def test_update_c_matches_matrix_normal(self):
        # 100 000 copies of one kept draw: their C draws are iid from MN(M, Sigma*, (n S_uu + I/tau_c)^-1).
        rng = np.random.default_rng(10)
        stats = make_stats(rng, p=2, k=1, l=1, n=40)
        hyper = selection_hyper(tau_c=5.0)
        a = np.array([[0.0, 0.3], [-0.2, 0.0]])
        b = rng.standard_normal((2, 1))
        root = rng.standard_normal((2, 2)) * 0.3
        sigma = root @ root.T + np.eye(2)
        n, draws = stats.dims.n, 100_000
        col_prec = n * stats.s_uu + np.eye(1) / hyper.tau_c
        col_cov = np.linalg.inv(col_prec)
        f = np.eye(2) - a
        mean = (n * f @ stats.s_yu - n * b @ stats.s_xu) @ col_cov

        def stack(matrix):
            return np.broadcast_to(matrix, (draws, *matrix.shape))

        c = update_c(stack(a), stack(b), stack(sigma), stats, hyper, rng)[:, :, 0]
        assert c.shape == (draws, 2)
        se = np.sqrt(np.diag(sigma) * col_cov[0, 0] / draws)
        assert np.all(np.abs(c.mean(axis=0) - mean[:, 0]) < 4 * se)
        emp_cov = np.cov(c.T)
        expected_cov = sigma * col_cov[0, 0]
        assert np.all(np.abs(emp_cov - expected_cov) < 4 * 3.0 / math.sqrt(draws))

    def test_update_c_noop_when_no_covariates(self):
        rng = np.random.default_rng(11)
        stats = make_stats(rng, p=2, k=2, l=0)
        before = rng.bit_generator.state
        a, b, sigma = np.zeros((5, 2, 2)), np.zeros((5, 2, 2)), np.tile(np.eye(2), (5, 1, 1))
        c = update_c(a, b, sigma, stats, selection_hyper(), rng)
        assert c.shape == (5, 2, 0)
        assert rng.bit_generator.state == before

    def test_update_z_frequency(self):
        rng = np.random.default_rng(12)
        stats = make_stats(rng, p=2, k=1)
        hyper = selection_hyper(omega1=1.0, omega2=0.1, pi_z=0.5)
        state = initial_state(stats, hyper)
        state.params.sigma_star = np.array([[1.0, 0.0], [0.0, 1.0]])
        hits = 0
        trials = 20_000
        for _ in range(trials):
            update_z(state, hyper, rng)
            hits += int(state.latent.z[0, 1])
            assert state.latent.z[0, 1] == state.latent.z[1, 0]
        expected = 1.0 / 11.0
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 4 * se

    def test_sigma_update_p1_gig_reduction(self):
        rng = np.random.default_rng(13)
        n = 12
        data = RawDataSet(
            y=rng.standard_normal((n, 1)), x=np.zeros((n, 0)), u=np.zeros((n, 0))
        )
        stats = compute_sufficient_stats(data)
        hyper = Hyperparameters(instrument_mode=SELECTION, lam=2.0)
        state = initial_state(stats, hyper)
        s11 = n * stats.s_yy[0, 0]
        draws = []
        for _ in range(50_000):
            update_sigma_star(state, stats, hyper, rng)
            draws.append(state.params.sigma_star[0, 0])
        draws = np.array(draws)
        order = 1.0 - n / 2.0
        omega = math.sqrt(hyper.lam * s11)
        scale = math.sqrt(s11 / hyper.lam)
        expected = scale * kv(order + 1, omega) / kv(order, omega)
        var = scale**2 * kv(order + 2, omega) / kv(order, omega) - expected**2
        se = math.sqrt(var / draws.size)
        assert abs(draws.mean() - expected) < 4 * se

    def test_sigma_update_preserves_pd(self):
        rng = np.random.default_rng(14)
        stats = make_stats(rng, p=3, k=2, n=30)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        for _ in range(2_000):
            update_z(state, hyper, rng)
            update_sigma_star(state, stats, hyper, rng)
            assert np.linalg.eigvalsh(state.params.sigma_star).min() > 0


class TestRunChain:
    def test_exactly_one_stored_sample(self):
        rng = np.random.default_rng(15)
        stats = make_stats(rng, p=2, k=2)
        config = McmcConfig(
            iterations=51, burn_in=50, thin=1, seed=0, hyper=selection_hyper()
        )
        chain = run_chain(stats, config)
        assert chain.n_samples == 1

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(16)
        stats = make_stats(rng, p=2, k=3)
        config = McmcConfig(iterations=300, burn_in=100, thin=3, seed=9, hyper=selection_hyper())
        c1 = run_chain(stats, config)
        c2 = run_chain(stats, config)
        for name in ("a", "b", "sigma_star", "gamma", "phi", "z", "loglik"):
            np.testing.assert_array_equal(getattr(c1, name), getattr(c2, name))

    def test_fixed_map_structural_zeros(self):
        rng = np.random.default_rng(17)
        stats = make_stats(rng, p=2, k=4, n=40)
        support = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
        config = McmcConfig(
            iterations=400,
            burn_in=100,
            thin=1,
            seed=3,
            hyper=Hyperparameters(instrument_mode=FIXED_MAP),
            fixed_b_support=support,
        )
        chain = run_chain(stats, config)
        assert np.all(chain.b[:, support == 0] == 0.0)
        np.testing.assert_array_equal(chain.phi[0], support)

    def test_configs_check_themselves_and_are_frozen(self):
        with pytest.raises(ValueError, match="nu1"):
            Hyperparameters(nu1=2.0)
        with pytest.raises(ValueError, match="burn_in"):
            McmcConfig(iterations=10, burn_in=10)
        config = McmcConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.hyper.nu1 = 2.0
        with pytest.raises(ValueError, match="nu1"):
            dataclasses.replace(config.hyper, nu1=2.0)  # replace builds, and so checks, a new one

    def test_fixed_map_requires_support(self):
        rng = np.random.default_rng(18)
        stats = make_stats(rng, p=2, k=2)
        config = McmcConfig(iterations=10, burn_in=1, thin=1, seed=0)
        with pytest.raises(ValueError, match="fixed_b_support"):
            run_chain(stats, config)

    def test_acceptance_rates_in_guard_band(self):
        rng = np.random.default_rng(19)
        stats = make_stats(rng, p=3, k=3, n=500)
        config = McmcConfig(
            iterations=2_000, burn_in=1_000, thin=2, seed=4, hyper=selection_hyper()
        )
        chain = run_chain(stats, config)
        assert 0.05 < chain.accept_rate_a < 0.95
        assert chain.accept_rate_b == 1.0  # B is drawn exactly

    def test_cached_loglik_matches_final_state(self):
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        config = McmcConfig(
            iterations=1_000, burn_in=500, thin=1, seed=5, hyper=selection_hyper()
        )
        chain = run_chain(stats, config)  # internal 1e-8 check runs after the sweep of iteration 1000
        assert np.all(np.isfinite(chain.loglik))
        assert np.all(chain.sigma_min_eig > 0)

    @pytest.mark.parametrize("step", ["update_b", "update_sigma_star"])
    def test_cache_check_catches_a_wrong_increment(self, monkeypatch, step):
        # Steps 4, 8 and 10 advance the cached log-likelihood by increments
        # and none recomputes it, so the check after the sweep sees a drift in any of them.
        # The drift comes only in the checked sweep, which a check placed before the step would miss.
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, l=1, n=60)
        exact_step = getattr(mcmc, step)

        def drifting_step(state, *args):
            result = exact_step(state, *args)
            if state.iteration == mcmc.LOG_LIK_CHECK_EVERY:
                state.log_lik += 1.0
            return result

        monkeypatch.setattr(mcmc, step, drifting_step)
        config = McmcConfig(iterations=1_000, burn_in=500, thin=1, seed=5, hyper=selection_hyper())
        with pytest.raises(NumericalError, match="iteration 1000"):
            run_chain(stats, config)

    @pytest.mark.parametrize("iterations", [600, 1_500])
    def test_cache_check_covers_the_last_sweeps(self, monkeypatch, iterations):
        # A chain whose length is not a multiple of LOG_LIK_CHECK_EVERY is checked after its last sweep too.
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        exact_sweep = mcmc.mcmc_sweep

        def drifting_sweep(state, *args):
            result = exact_sweep(state, *args)
            if state.iteration == iterations:
                state.log_lik += 1.0
            return result

        monkeypatch.setattr(mcmc, "mcmc_sweep", drifting_sweep)
        config = McmcConfig(iterations=iterations, burn_in=100, thin=1, seed=5, hyper=selection_hyper())
        with pytest.raises(NumericalError, match=f"iteration {iterations}"):
            run_chain(stats, config)

    def test_singular_i_minus_a_found_by_the_check_names_its_iteration(self, monkeypatch):
        # Sigma* stays positive definite and no step reads log|det(I - A)|, so only the periodic check sees this.
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        exact_sweep = mcmc.mcmc_sweep

        def singular_sweep(state, *args):
            result = exact_sweep(state, *args)
            if state.iteration == mcmc.LOG_LIK_CHECK_EVERY:
                state.params.a[...] = [[0.0, 1.0], [1.0, 0.0]]
            return result

        monkeypatch.setattr(mcmc, "mcmc_sweep", singular_sweep)
        config = McmcConfig(iterations=1_200, burn_in=100, thin=1, seed=5, hyper=selection_hyper())
        with pytest.raises(NumericalError, match="^iteration 1000: .*singular"):
            run_chain(stats, config)

    @pytest.mark.parametrize("cached, fresh", [(-1.0, -math.inf), (math.nan, -1.0), (-math.inf, -math.inf)])
    def test_cache_check_rejects_non_finite_values(self, monkeypatch, cached, fresh):
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        state = initial_state(stats, selection_hyper())
        state.log_lik = cached
        monkeypatch.setattr(mcmc, "log_likelihood_summary", lambda params, stats: fresh)
        with pytest.raises(NumericalError, match="diverged"):
            mcmc._check_log_lik(state, stats)

    def test_numerical_error_in_a_sweep_names_its_iteration(self, monkeypatch):
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        exact_step = mcmc.update_sigma_star

        def failing_step(state, *args):
            if state.iteration == 7:
                raise NumericalError("Sigma* is not positive definite")
            return exact_step(state, *args)

        monkeypatch.setattr(mcmc, "update_sigma_star", failing_step)
        config = McmcConfig(iterations=20, burn_in=5, thin=1, seed=5, hyper=selection_hyper())
        with pytest.raises(NumericalError, match="^iteration 7: Sigma\\* is not positive definite$"):
            run_chain(stats, config)

    def test_nan_met_by_a_sampler_in_a_sweep_names_its_iteration(self, monkeypatch):
        # Step 6's inverse-gamma draw raises ValueError on the planted NaN; run_chain reports it as numerical.
        rng = np.random.default_rng(20)
        stats = make_stats(rng, p=2, k=2, n=60)
        exact_step = mcmc.update_rho

        def poisoned_step(state, *args):
            exact_step(state, *args)
            if state.iteration == 5:
                state.latent.tau[0, 1] = np.nan

        monkeypatch.setattr(mcmc, "update_rho", poisoned_step)
        config = McmcConfig(iterations=20, burn_in=5, thin=1, seed=5, hyper=selection_hyper())
        with pytest.raises(NumericalError, match="^iteration 5: inverse-gamma parameters must be positive$"):
            run_chain(stats, config)

    @pytest.mark.parametrize("mode", [SELECTION, FIXED_MAP])
    @pytest.mark.parametrize(
        "iterations",
        [mcmc.MIN_EIG_BLOCK - 37, 2 * mcmc.MIN_EIG_BLOCK, mcmc.MIN_EIG_BLOCK + 37],
        ids=["short", "on-boundary", "partial-last-block"],
    )
    def test_sigma_min_eig_is_every_sweeps_smallest_eigenvalue(self, mode, iterations):
        # run_chain fills sigma_min_eig a block of sweeps at a time; every value must land on its own sweep.
        rng = np.random.default_rng(23)
        stats = make_stats(rng, p=3, k=2, n=40)
        support = np.array([[1, 0], [0, 1], [1, 1]]) if mode == FIXED_MAP else None
        config = McmcConfig(
            iterations=iterations, burn_in=0, thin=1, seed=8,
            hyper=Hyperparameters(instrument_mode=mode), fixed_b_support=support,
        )
        chain = run_chain(stats, config)
        assert chain.sigma_star.shape[0] == iterations
        assert np.array_equal(chain.sigma_min_eig, [np.linalg.eigvalsh(s)[0] for s in chain.sigma_star])

    def test_invalid_config_rejected(self):
        rng = np.random.default_rng(21)
        stats = make_stats(rng, p=2, k=2)
        with pytest.raises(ValueError):
            run_chain(stats, McmcConfig(iterations=10, burn_in=10, thin=1, hyper=selection_hyper()))

    def test_z_symmetric_every_sample(self):
        rng = np.random.default_rng(22)
        stats = make_stats(rng, p=3, k=2)
        config = McmcConfig(iterations=200, burn_in=50, thin=1, seed=6, hyper=selection_hyper())
        chain = run_chain(stats, config)
        for z in chain.z:
            np.testing.assert_array_equal(z, z.T)
            assert np.all(np.diag(z) == 1)


class TestSweepComposition:
    def test_selection_sweep_touches_all_blocks(self):
        rng = np.random.default_rng(23)
        stats = make_stats(rng, p=2, k=2, n=50)
        hyper = selection_hyper()
        state = initial_state(stats, hyper)
        before_psi = state.latent.psi.copy()
        before_sigma = state.params.sigma_star.copy()
        acc_a, tot_a, acc_b, tot_b = mcmc_sweep(state, stats, hyper, rng)
        assert tot_a == 2 and tot_b == 4
        assert not np.array_equal(state.latent.psi, before_psi)
        assert not np.array_equal(state.params.sigma_star, before_sigma)

    def test_fixed_map_sweep_skips_selection_steps(self):
        rng = np.random.default_rng(24)
        stats = make_stats(rng, p=2, k=2, n=50)
        hyper = Hyperparameters(instrument_mode=FIXED_MAP)
        support = np.eye(2, dtype=int)
        state = initial_state(stats, hyper, support)
        before_psi = state.latent.psi.copy()
        acc_a, tot_a, acc_b, tot_b = mcmc_sweep(state, stats, hyper, rng)
        assert tot_b == 2  # only the two support entries
        np.testing.assert_array_equal(state.latent.psi, before_psi)
