"""Known-value tests for the benchmark's own diagnostics.

Run from the root of a checkout with `python3 -m pytest -q perfbench`.
"""

import numpy as np
import pytest

from diagnostics import ess, roc_auc, split_rhat


def ar1(phi, chains, draws, seed):
    """Stationary AR(1) chains with unit innovations."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ess_of_ar1_matches_closed_form(phi):
    chains, draws = 4, 20_000
    expected = chains * draws * (1.0 - phi) / (1.0 + phi)
    assert ess(ar1(phi, chains, draws, seed=1)) == pytest.approx(expected, rel=0.08)


def test_ess_is_nan_for_a_constant_quantity():
    assert np.isnan(ess(np.zeros((2, 100))))


def test_ess_pools_chains_that_disagree():
    x = ar1(0.5, 4, 2_000, seed=2)
    shifted = x.copy()
    shifted[0] += 3.0
    assert ess(shifted) < 0.5 * ess(x)


def test_rhat_near_one_for_iid_chains():
    x = np.random.default_rng(3).standard_normal((4, 2_000))
    assert split_rhat(x) == pytest.approx(1.0, abs=0.01)


def test_rhat_flags_a_mean_shifted_chain():
    x = np.random.default_rng(4).standard_normal((4, 1_000))
    x[0] += 2.0
    assert split_rhat(x) > 1.1


def test_rhat_flags_a_trend_within_chains():
    # Split chains catch drift that whole-chain means would hide.
    x = np.random.default_rng(5).standard_normal((2, 1_000)) + np.linspace(0.0, 3.0, 1_000)
    assert split_rhat(x) > 1.1


def test_rhat_flags_a_chain_with_a_different_scale():
    # The folded statistic catches chains that agree in location only.
    x = np.random.default_rng(6).standard_normal((4, 2_000))
    x[0] *= 4.0
    assert split_rhat(x) > 1.1


def test_auc_hand_worked():
    # Positives 0.35, 0.8; negatives 0.1, 0.4: 3 of the 4 pairs ordered.
    assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert roc_auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0
    assert roc_auc([0.9, 0.8, 0.1], [0, 0, 1]) == 0.0


def test_auc_counts_ties_as_half():
    # Pairs: (0.5 vs 0.5) tie, (0.5 vs 0.2) win, (0.7 vs 0.5) win, (0.7 vs 0.2) win.
    assert roc_auc([0.5, 0.7, 0.5, 0.2], [1, 1, 0, 0]) == 0.875
    assert roc_auc([1.0, 1.0, 1.0], [1, 0, 0]) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(ValueError):
        roc_auc([0.1, 0.2], [1, 1])
