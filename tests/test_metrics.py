import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclemr
from cyclemr.metrics import average_ranks, classification_metrics, deviation_metrics, roc_auc


class TestRocAuc:
    def test_perfect_scores(self):
        assert roc_auc([0.0, 1.0, 0.0, 1.0], [0, 1, 0, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_exhaustive_pair_count(self):
        assert roc_auc([0.9, 0.4, 0.6], [1, 0, 1]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [0, 0])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(40)
        truth = rng.integers(0, 2, 40)
        truth[0], truth[1] = 0, 1
        base = roc_auc(scores, truth)
        assert roc_auc(np.exp(scores), truth) == pytest.approx(base)
        assert roc_auc(3 * scores + 7, truth) == pytest.approx(base)

    def test_negation_complements_without_ties(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(30)
        truth = rng.integers(0, 2, 30)
        truth[0], truth[1] = 0, 1
        assert roc_auc(scores, truth) + roc_auc(-scores, truth) == pytest.approx(1.0)

    def test_partial_overlap_value(self):
        # positives (0.8, 0.2), negatives (0.5,): pairs win=1, lose=1 -> 0.5
        assert roc_auc([0.8, 0.2, 0.5], [1, 1, 0]) == 0.5

    def test_nan_score_gives_nan(self):
        assert math.isnan(roc_auc([0.8, np.nan, 0.5], [1, 1, 0]))


class TestAverageRanks:
    @pytest.mark.parametrize("seed", range(5))
    def test_equal_to_scipy_rankdata_on_random_and_tied_inputs(self, seed):
        from scipy.stats import rankdata  # only here: the package itself does not import scipy.stats

        rng = np.random.default_rng(seed)
        inputs = [
            rng.standard_normal(50),
            rng.integers(0, 4, 60).astype(float),
            np.r_[rng.standard_normal(10), np.inf, -np.inf, np.inf, 0.0, -0.0],
            np.full(7, 0.25),
            np.array([2.0]),
            np.array([]),
            np.array([1.0, np.nan, 0.5]),  # rankdata propagates NaN to every rank
        ]
        for values in inputs:
            ranks = average_ranks(values)
            assert ranks.dtype == np.float64
            np.testing.assert_array_equal(ranks, rankdata(values))


def test_importing_the_cli_leaves_scipy_stats_out():
    src = str(Path(cyclemr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cyclemr.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestClassificationMetrics:
    def test_perfect_prediction(self):
        tpr, fdr, mcc = classification_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert (tpr, fdr, mcc) == (1.0, 0.0, 1.0)

    def test_all_negative_convention(self):
        tpr, fdr, mcc = classification_metrics([0, 0, 0], [1, 0, 1])
        assert (tpr, fdr, mcc) == (0.0, 0.0, 0.0)

    def test_two_by_two_table(self):
        tpr, fdr, mcc = classification_metrics([1, 1, 0, 0], [1, 0, 1, 0])
        assert tpr == 0.5
        assert fdr == 0.5
        assert mcc == 0.0

    def test_label_swap_consistency(self):
        rng = np.random.default_rng(2)
        pred = rng.integers(0, 2, 50)
        truth = rng.integers(0, 2, 50)
        tpr_swapped, _, _ = classification_metrics(1 - pred, 1 - truth)
        tn = np.sum((pred == 0) & (truth == 0))
        fp = np.sum((pred == 1) & (truth == 0))
        denom = tn + fp
        expected = tn / denom if denom else 0.0
        assert tpr_swapped == pytest.approx(expected)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            classification_metrics([1, 0], [1, 0, 1])


class TestDeviationMetrics:
    def test_exact_match(self):
        a = np.array([[0.0, 0.3], [0.2, 0.0]])
        assert deviation_metrics(a, a) == (0.0, 0.0, 0.0)

    def test_single_entry_error(self):
        a_true = np.zeros((2, 2))
        a_hat = np.zeros((2, 2))
        a_hat[0, 1] = 0.1
        max_abs, mean_abs, mean_sq = deviation_metrics(a_hat, a_true)
        assert max_abs == pytest.approx(0.1)
        assert mean_abs == pytest.approx(0.05)
        assert mean_sq == pytest.approx(0.005)

    def test_diagonal_excluded(self):
        a_true = np.zeros((2, 2))
        a_hat = np.diag([5.0, 5.0])
        assert deviation_metrics(a_hat, a_true) == (0.0, 0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            deviation_metrics(np.zeros((2, 2)), np.zeros((3, 3)))
