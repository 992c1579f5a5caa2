import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from cyclemr.model import (
    Dimensions,
    DimensionMismatchError,
    ModelParameters,
    NumericalError,
    RawDataSet,
    SummaryStatistics,
    compute_sufficient_stats,
    log_likelihood_raw,
    log_likelihood_summary,
    moment_shapes,
    reduced_form,
    residual_moments,
    residual_scatter,
)


def random_instance(rng, p=None, k=None, l=None, n=None):
    p = p if p is not None else int(rng.integers(1, 5))
    k = k if k is not None else int(rng.integers(0, 7))
    l = l if l is not None else int(rng.integers(0, 3))
    n = n if n is not None else int(rng.integers(2, 51))
    data = RawDataSet(
        y=rng.standard_normal((n, p)),
        x=rng.standard_normal((n, k)),
        u=rng.standard_normal((n, l)),
    )
    a = rng.uniform(-0.3, 0.3, (p, p))
    np.fill_diagonal(a, 0.0)
    root = rng.standard_normal((p, p))
    params = ModelParameters(
        a=a,
        b=rng.standard_normal((p, k)),
        c=rng.standard_normal((p, l)),
        sigma_star=root @ root.T + p * np.eye(p),
    )
    return params, data


class TestSufficientStats:
    def test_single_outer_product(self):
        data = RawDataSet(y=np.array([[1.0, 2.0]]), x=np.zeros((1, 0)), u=np.zeros((1, 0)))
        stats = compute_sufficient_stats(data)
        np.testing.assert_allclose(stats.s_yy, [[1.0, 2.0], [2.0, 4.0]])

    def test_all_zero_data(self):
        data = RawDataSet(y=np.zeros((4, 2)), x=np.zeros((4, 3)), u=np.zeros((4, 1)))
        stats = compute_sufficient_stats(data)
        for name in ("s_yy", "s_yx", "s_yu", "s_xx", "s_xu", "s_uu"):
            assert np.all(getattr(stats, name) == 0.0)

    def test_matches_naive_accumulation(self):
        rng = np.random.default_rng(7)
        n, p, k = 50, 3, 4
        y = rng.standard_normal((n, p))
        x = rng.standard_normal((n, k))
        stats = compute_sufficient_stats(RawDataSet(y=y, x=x, u=np.zeros((n, 0))))
        s_yy = sum(np.outer(y[i], y[i]) for i in range(n)) / n
        s_yx = sum(np.outer(y[i], x[i]) for i in range(n)) / n
        s_xx = sum(np.outer(x[i], x[i]) for i in range(n)) / n
        np.testing.assert_allclose(stats.s_yy, s_yy, atol=1e-12)
        np.testing.assert_allclose(stats.s_yx, s_yx, atol=1e-12)
        np.testing.assert_allclose(stats.s_xx, s_xx, atol=1e-12)

    def test_shape_mismatch_names_block(self):
        with pytest.raises(DimensionMismatchError, match="X"):
            RawDataSet(y=np.zeros((4, 2)), x=np.zeros((12, 1)), u=np.zeros((4, 0))).dims

    def test_joint_matrix_that_is_not_psd_raises_when_built(self):
        # Each block is finite and symmetric, but |corr(y, x)| = 2 has no data set behind it.
        blocks = _empty_blocks(p=1, k=1)
        blocks.update(s_yy=[[1.0]], s_yx=[[2.0]], s_xx=[[1.0]])
        with pytest.raises(ValueError, match="eigenvalue"):
            SummaryStatistics(**blocks, dims=Dimensions(p=1, k=1, l=0, n=10))

    def test_blocks_are_read_only_copies(self):
        s_xx = np.eye(2)
        blocks = _empty_blocks(p=1, k=2)
        blocks.update(s_yy=[[1.0]], s_yx=np.zeros((1, 2)), s_xx=s_xx)
        stats = SummaryStatistics(**blocks, dims=Dimensions(p=1, k=2, l=0, n=10))
        s_xx[0, 1] = s_xx[1, 0] = 5.0  # the caller's array does not reach the statistics
        assert stats.s_xx[0, 1] == 0.0 and stats.joint[1, 2] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            stats.s_xx[0, 0] = 2.0


def _empty_blocks(p, k):
    """Zero blocks of MOMENT_BLOCKS for p traits, k instruments and no covariates."""
    return {name: np.zeros(shape) for name, shape in moment_shapes(Dimensions(p=p, k=k, l=0, n=1)).items()}


def _params(p, a=None, b=None, c=None, sigma=None, k=0, l=0):
    return ModelParameters(
        a=np.zeros((p, p)) if a is None else np.asarray(a, dtype=float),
        b=np.zeros((p, k)) if b is None else np.asarray(b, dtype=float),
        c=np.zeros((p, l)) if c is None else np.asarray(c, dtype=float),
        sigma_star=np.eye(p) if sigma is None else np.asarray(sigma, dtype=float),
    )


class TestLogLikelihoodRaw:
    def test_standard_normal_point(self):
        params = _params(1)
        data = RawDataSet(y=np.array([[1.0]]), x=np.zeros((1, 0)), u=np.zeros((1, 0)))
        expected = -0.5 * math.log(2 * math.pi) - 0.5
        assert log_likelihood_raw(params, data) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-1.418939, abs=1e-6)

    def test_transformed_residual_point(self):
        params = _params(2, a=[[0.0, 0.5], [0.0, 0.0]])
        data = RawDataSet(y=np.array([[1.0, 1.0]]), x=np.zeros((1, 0)), u=np.zeros((1, 0)))
        # residual (0.5, 1), unit covariance, log|det(I-A)| = 0
        expected = -math.log(2 * math.pi) - 0.625
        assert log_likelihood_raw(params, data) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-2.462877, abs=1e-6)

    def test_singular_jacobian_sentinel(self):
        params = _params(2, a=[[0.0, 1.0], [1.0, 0.0]])
        data = RawDataSet(y=np.ones((3, 2)), x=np.zeros((3, 0)), u=np.zeros((3, 0)))
        with pytest.raises(NumericalError, match="singular"):
            log_likelihood_raw(params, data)

    def test_non_pd_sigma_sentinel(self):
        params = _params(2, sigma=[[1.0, 2.0], [2.0, 1.0]])
        data = RawDataSet(y=np.ones((3, 2)), x=np.zeros((3, 0)), u=np.zeros((3, 0)))
        with pytest.raises(NumericalError, match="Sigma\\* is not positive definite"):
            log_likelihood_raw(params, data)


class TestLogLikelihoodSummary:
    def test_standard_normal_point(self):
        params = _params(1)
        stats = SummaryStatistics(
            s_yy=np.array([[1.0]]),
            s_yx=np.zeros((1, 0)),
            s_yu=np.zeros((1, 0)),
            s_xx=np.zeros((0, 0)),
            s_xu=np.zeros((0, 0)),
            s_uu=np.zeros((0, 0)),
            dims=Dimensions(p=1, k=0, l=0, n=1),
        )
        assert log_likelihood_summary(params, stats) == pytest.approx(-1.4189385332046727, abs=1e-9)

    def test_frobenius_hand_value(self):
        params = _params(2, a=[[0.0, 0.5], [0.0, 0.0]])
        stats = SummaryStatistics(
            s_yy=np.eye(2),
            s_yx=np.zeros((2, 0)),
            s_yu=np.zeros((2, 0)),
            s_xx=np.zeros((0, 0)),
            s_xu=np.zeros((0, 0)),
            s_uu=np.zeros((0, 0)),
            dims=Dimensions(p=2, k=0, l=0, n=1),
        )
        expected = -math.log(2 * math.pi) - 1.125
        assert log_likelihood_summary(params, stats) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-2.962877, abs=1e-6)

    def test_agrees_with_raw_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            params, data = random_instance(rng)
            stats = compute_sufficient_stats(data)
            lr = log_likelihood_raw(params, data)
            ls = log_likelihood_summary(params, stats)
            assert abs(ls - lr) <= 1e-8 * max(1.0, abs(lr))

    def test_quadratic_invariant_to_block_transposition(self):
        rng = np.random.default_rng(5)
        params, data = random_instance(rng, p=3, k=4, l=2, n=30)
        stats = compute_sufficient_stats(data)
        flipped = SummaryStatistics(
            s_yy=stats.s_yy.T.copy(),
            s_yx=stats.s_yx,
            s_yu=stats.s_yu,
            s_xx=stats.s_xx.T.copy(),
            s_xu=stats.s_xu,
            s_uu=stats.s_uu.T.copy(),
            dims=stats.dims,
        )
        assert log_likelihood_summary(params, stats) == pytest.approx(
            log_likelihood_summary(params, flipped), rel=1e-12
        )


class TestResidualScatter:
    def test_zero_params_returns_scaled_syy(self):
        rng = np.random.default_rng(0)
        params, data = random_instance(rng, p=3, k=2, l=1, n=20)
        zero = _params(3, k=2, l=1)
        stats = compute_sufficient_stats(data)
        np.testing.assert_allclose(residual_scatter(zero, stats), 20 * stats.s_yy, atol=1e-10)

    def test_a_only_term(self):
        rng = np.random.default_rng(1)
        _, data = random_instance(rng, p=3, k=0, l=0, n=15)
        a = np.array([[0.0, 0.2, 0.0], [0.1, 0.0, 0.0], [0.0, -0.3, 0.0]])
        params = _params(3, a=a)
        stats = compute_sufficient_stats(data)
        f = np.eye(3) - a
        np.testing.assert_allclose(
            residual_scatter(params, stats), 15 * f @ stats.s_yy @ f.T, atol=1e-10
        )

    def test_equals_raw_residual_cross_product(self):
        # The likelihood's scatter alone: no term of C's prior, whatever C is.
        rng = np.random.default_rng(9)
        for _ in range(20):
            params, data = random_instance(rng)
            resid = data.y @ (np.eye(params.p) - params.a).T - data.x @ params.b.T - data.u @ params.c.T
            scatter = residual_scatter(params, compute_sufficient_stats(data))
            np.testing.assert_allclose(scatter, resid.T @ resid, rtol=1e-10, atol=1e-10)

    def test_symmetric_psd_on_real_data(self):
        rng = np.random.default_rng(3)
        params, data = random_instance(rng, p=4, k=3, l=1, n=40)
        scatter = residual_scatter(params, compute_sufficient_stats(data))
        np.testing.assert_allclose(scatter, scatter.T, atol=1e-10)
        assert np.linalg.eigvalsh(scatter).min() > -1e-8


class TestResidualMoments:
    @pytest.mark.parametrize("l", [0, 2])
    def test_matches_raw_residual_moments(self, l):
        rng = np.random.default_rng(40 + l)
        p, k, n = 3, 4, 50
        params, data = random_instance(rng, p=p, k=k, l=l, n=n)
        stats = compute_sufficient_stats(data)
        resid = data.y @ (np.eye(p) - params.a).T - data.x @ params.b.T - data.u @ params.c.T
        r, theta = residual_moments(params, stats)
        np.testing.assert_allclose(r, resid.T @ np.hstack([data.y, data.x, data.u]) / n, rtol=0, atol=1e-12)
        np.testing.assert_allclose(r @ theta.T, resid.T @ resid / n, rtol=0, atol=1e-12)
        for cols in (slice(0, p), slice(p, p + k), slice(p + k, None)):
            np.testing.assert_allclose(residual_moments(params, stats, cols)[0], r[:, cols], rtol=0, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        # The B and A steps read the likelihood gradient from R:
        # d/dB = n Omega R_x, d/dA = n Omega R_y - n (I - A)^-T.
        rng = np.random.default_rng(43)
        p, k, n = 3, 4, 30
        params, data = random_instance(rng, p=p, k=k, l=2, n=n)
        stats = compute_sufficient_stats(data)
        prec = np.linalg.inv(params.sigma_star)
        r_y, _ = residual_moments(params, stats, slice(0, p))
        r_x, _ = residual_moments(params, stats, slice(p, p + k))
        grads = {
            "b": n * prec @ r_x,
            "a": n * prec @ r_y - n * np.linalg.inv(np.eye(p) - params.a).T,
        }
        eps = 1e-6
        for name, grad in grads.items():
            for idx in np.ndindex(grad.shape):
                if name == "a" and idx[0] == idx[1]:
                    continue
                step = np.zeros(grad.shape)
                step[idx] = eps
                value = getattr(params, name)
                plus = dataclasses.replace(params, **{name: value + step})
                minus = dataclasses.replace(params, **{name: value - step})
                fd = (log_likelihood_summary(plus, stats) - log_likelihood_summary(minus, stats)) / (2 * eps)
                assert fd == pytest.approx(grad[idx], rel=1e-6, abs=1e-5), (name, idx)


class TestReducedForm:
    def test_identity_transform(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((3, 1))
        sigma = np.diag([1.0, 2.0, 3.0])
        gx, gu, v = reduced_form(_params(3, b=b, c=c, sigma=sigma, k=2, l=1))
        np.testing.assert_allclose(gx, b)
        np.testing.assert_allclose(gu, c)
        np.testing.assert_allclose(v, sigma)

    def test_bivariate_closed_form(self):
        a12, a21 = 0.4, -0.3
        b = np.array([[1.0, 0.0], [0.0, 2.0]])
        params = _params(2, a=[[0.0, a12], [a21, 0.0]], b=b, k=2)
        gx, _, _ = reduced_form(params)
        pref = 1.0 / (1.0 - a12 * a21)
        expected = pref * np.array([[1.0, a12 * 2.0], [a21 * 1.0, 2.0]])
        np.testing.assert_allclose(gx, expected, atol=1e-12)

    def test_residual_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params, _ = random_instance(rng, p=4, k=5, l=2, n=10)
            gx, gu, v = reduced_form(params)
            f = np.eye(4) - params.a
            np.testing.assert_allclose(f @ gx, params.b, atol=1e-12)
            np.testing.assert_allclose(f @ gu, params.c, atol=1e-12)
            assert np.linalg.eigvalsh(v).min() > 0

    def test_singular_raises(self):
        with pytest.raises(NumericalError, match="singular"):
            reduced_form(_params(2, a=[[0.0, 1.0], [1.0, 0.0]]))


class TestModelInvariants:
    def test_density_against_kernel_estimate_p1(self):
        # Monte-Carlo density of Y|X matches exp(loglik) pointwise within 10%.
        rng = np.random.default_rng(21)
        b = np.array([[0.5]])
        sigma = np.array([[2.0]])
        params = ModelParameters(a=np.zeros((1, 1)), b=b, c=np.zeros((1, 0)), sigma_star=sigma)
        x_val = 1.0
        draws = b[0, 0] * x_val + math.sqrt(sigma[0, 0]) * rng.standard_normal(200_000)
        kde = scipy.stats.gaussian_kde(draws)
        for y_val in (-0.5, 0.5, 1.5):
            data = RawDataSet(y=np.array([[y_val]]), x=np.array([[x_val]]), u=np.zeros((1, 0)))
            model_density = math.exp(log_likelihood_raw(params, data))
            assert kde(y_val)[0] == pytest.approx(model_density, rel=0.10)

    def test_jacobian_against_kernel_estimate_p2(self):
        # A cyclic A makes the Jacobian |det(I-A)| non-trivial; the simulated
        # joint density of Y must still match exp(loglik) pointwise.
        rng = np.random.default_rng(22)
        a = np.array([[0.0, 0.6], [-0.5, 0.0]])
        sigma = np.array([[1.0, 0.3], [0.3, 1.5]])
        params = ModelParameters(a=a, b=np.zeros((2, 0)), c=np.zeros((2, 0)), sigma_star=sigma)
        f = np.eye(2) - a
        eps = rng.multivariate_normal(np.zeros(2), sigma, size=400_000)
        draws = np.linalg.solve(f, eps.T)
        kde = scipy.stats.gaussian_kde(draws)
        for point in ([0.0, 0.0], [0.5, -0.5], [1.0, 1.0]):
            data = RawDataSet(y=np.array([point]), x=np.zeros((1, 0)), u=np.zeros((1, 0)))
            model_density = math.exp(log_likelihood_raw(params, data))
            assert kde(point)[0] == pytest.approx(model_density, rel=0.10)

    def test_reduced_form_error_covariance_roundtrip(self):
        # Structural residuals of reduced-form simulated data recover Sigma*.
        rng = np.random.default_rng(31)
        p, k, n = 3, 2, 120_000
        a = np.array([[0.0, 0.3, 0.0], [0.2, 0.0, -0.2], [0.0, 0.4, 0.0]])
        b = rng.standard_normal((p, k))
        root = rng.standard_normal((p, p)) * 0.5
        sigma = root @ root.T + np.eye(p)
        params = ModelParameters(a=a, b=b, c=np.zeros((p, 0)), sigma_star=sigma)
        gx, _, _ = reduced_form(params)
        x = rng.standard_normal((n, k))
        eps = rng.multivariate_normal(np.zeros(p), sigma, size=n)
        f = np.eye(p) - a
        y = x @ gx.T + np.linalg.solve(f, eps.T).T
        resid = y @ f.T - x @ b.T
        emp = resid.T @ resid / n
        rel_err = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel_err <= 0.05
