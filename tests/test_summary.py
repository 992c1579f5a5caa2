import dataclasses
import json

import numpy as np
import pytest

from cyclemr.io import summary_from_dict, summary_to_dict
from cyclemr.mcmc import FIXED_MAP, SELECTION, Chain, Hyperparameters, McmcConfig, run_chain
from cyclemr.model import RawDataSet, compute_sufficient_stats
from cyclemr.summary import summarize, total_effect_trivariate


def synthetic_chain(gamma_samples, a_samples, mode=SELECTION, phi_samples=None, z_samples=None):
    m, p, _ = np.asarray(a_samples).shape
    k = 2
    phi = np.asarray(phi_samples) if phi_samples is not None else np.ones((m, p, k), dtype=np.int8)
    z = np.asarray(z_samples) if z_samples is not None else np.ones((m, p, p), dtype=np.int8)
    config = McmcConfig(
        iterations=m,
        burn_in=0,
        thin=1,
        hyper=Hyperparameters(instrument_mode=mode),
        fixed_b_support=np.ones((p, k), dtype=int) if mode == FIXED_MAP else None,
    )
    return Chain(
        a=np.asarray(a_samples, dtype=float),
        b=np.zeros((m, p, k)),
        c=np.zeros((m, p, 0)),
        sigma_star=np.stack([np.eye(p)] * m),
        gamma=np.asarray(gamma_samples, dtype=np.int8),
        phi=phi,
        z=z,
        loglik=np.zeros(m),
        sigma_min_eig=np.ones(m),
        accept_rate_a=0.3,
        accept_rate_b=0.3,
        config=config,
    )


def four_sample_chain():
    gamma = np.zeros((4, 2, 2), dtype=int)
    gamma[:, 0, 1] = [1, 1, 1, 1]
    gamma[:, 1, 0] = [1, 0, 0, 1]
    a = np.zeros((4, 2, 2))
    a[:, 0, 1] = [0.5, 0.3, 0.4, 0.2]
    a[:, 1, 0] = [0.1, -0.1, 0.2, 0.0]
    return synthetic_chain(gamma, a)


class TestSummarize:
    def test_hand_computed_pips(self):
        fit = summarize(four_sample_chain())
        assert fit.pip_a[0, 1] == pytest.approx(1.0)
        assert fit.pip_a[1, 0] == pytest.approx(0.5)
        assert fit.mean_a[0, 1] == pytest.approx(0.35)

    def test_unanimous_edge_retained_any_threshold(self):
        fit = summarize(four_sample_chain(), threshold_a=1.0)
        assert fit.sparse_a[0, 1] == pytest.approx(0.35)

    def test_boundary_threshold_zeroes_entry(self):
        gamma = np.zeros((100, 2, 2), dtype=int)
        gamma[:49, 0, 1] = 1  # pip 0.49
        a = np.full((100, 2, 2), 0.3)
        fit = summarize(synthetic_chain(gamma, a), threshold_a=0.5)
        assert fit.pip_a[0, 1] == pytest.approx(0.49)
        assert fit.sparse_a[0, 1] == 0.0

    def test_sparsification_monotone_in_threshold(self):
        chain = four_sample_chain()
        edges = []
        for thr in (0.1, 0.4, 0.6, 0.9, 1.0):
            fit = summarize(chain, threshold_a=thr)
            edges.append(int(np.count_nonzero(fit.sparse_a)))
        assert edges == sorted(edges, reverse=True)

    def test_order_invariance(self):
        chain = four_sample_chain()
        perm = [2, 0, 3, 1]
        shuffled = synthetic_chain(chain.gamma[perm], chain.a[perm])
        f1, f2 = summarize(chain), summarize(shuffled)
        np.testing.assert_allclose(f1.pip_a, f2.pip_a)
        np.testing.assert_allclose(f1.mean_a, f2.mean_a)

    def test_credible_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((500, 2, 2))
        gamma = rng.integers(0, 2, (500, 2, 2))
        fit = summarize(synthetic_chain(gamma, a))
        assert np.all(fit.ci_a[..., 0] <= fit.mean_a)
        assert np.all(fit.ci_a[..., 1] >= fit.mean_a)

    def test_fixed_map_pip_b_is_support(self):
        gamma = np.zeros((3, 2, 2), dtype=int)
        a = np.zeros((3, 2, 2))
        phi = np.tile(np.array([[1, 0], [0, 1]], dtype=np.int8), (3, 1, 1))
        chain = synthetic_chain(gamma, a, mode=FIXED_MAP, phi_samples=phi)
        fit = summarize(chain)
        np.testing.assert_array_equal(fit.pip_b, [[1.0, 0.0], [0.0, 1.0]])

    def test_empty_chain_rejected(self):
        chain = four_sample_chain()
        empty = dataclasses.replace(
            chain,
            a=chain.a[:0],
            b=chain.b[:0],
            c=chain.c[:0],
            sigma_star=chain.sigma_star[:0],
            gamma=chain.gamma[:0],
            phi=chain.phi[:0],
            z=chain.z[:0],
        )
        with pytest.raises(ValueError, match="no stored samples"):
            summarize(empty)

    def test_diagonal_sparse_a_zero(self):
        fit = summarize(four_sample_chain())
        assert np.all(np.diag(fit.sparse_a) == 0.0)


class TestSummaryDocument:
    def test_round_trip_at_other_thresholds(self):
        """Reading summary.json back at new thresholds equals summarizing the chain at them."""
        rng = np.random.default_rng(31)
        n = 40
        data = RawDataSet(
            y=rng.standard_normal((n, 3)), x=rng.standard_normal((n, 2)), u=rng.standard_normal((n, 1))
        )
        config = McmcConfig(
            iterations=300, burn_in=100, thin=2, seed=7, hyper=Hyperparameters(instrument_mode=SELECTION)
        )
        chain = run_chain(compute_sufficient_stats(data), config)
        thresholds = (0.3, 0.7, 0.9)
        doc = json.loads(json.dumps(summary_to_dict(summarize(chain))))
        back = summary_from_dict(doc, *thresholds)
        direct = summarize(chain, *thresholds)
        for f in dataclasses.fields(direct):
            np.testing.assert_array_equal(getattr(back, f.name), getattr(direct, f.name), err_msg=f.name)
        for name in ("sparse_a", "sparse_b", "sparse_sigma_star"):
            np.testing.assert_array_equal(getattr(back, name), getattr(direct, name), err_msg=name)
        # The thresholds matter: the document's own sparse estimates differ.
        assert any(
            not np.array_equal(np.asarray(doc[name]), getattr(direct, name))
            for name in ("sparse_a", "sparse_b", "sparse_sigma_star")
        )


class TestTotalEffect:
    def test_no_mediation(self):
        a = np.zeros((3, 3))
        a[0, 1] = 0.25
        assert total_effect_trivariate(a) == pytest.approx(0.25)

    def test_hand_computed_value(self):
        a = np.zeros((3, 3))
        a[0, 1] = 0.1
        a[0, 2] = 0.2
        a[2, 1] = 0.3
        a[2, 0] = 0.4
        expected = (0.1 + 0.2 * 0.3) / abs(1.0 - 0.2 * 0.4)
        assert total_effect_trivariate(a) == pytest.approx(expected)
        assert expected == pytest.approx(0.17391304347826086)

    def test_zero_effects(self):
        assert total_effect_trivariate(np.zeros((3, 3))) == 0.0

    def test_singular_denominator(self):
        a = np.zeros((3, 3))
        a[0, 2] = 2.0
        a[2, 0] = 0.5
        with pytest.raises(ZeroDivisionError):
            total_effect_trivariate(a)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            total_effect_trivariate(np.zeros((2, 2)))
