"""Chain diagnostics and a ranking score, independent of the cyclemr package.

- ``ess``: effective sample size pooled across chains, from FFT
  autocovariances and Geyer's initial positive (monotone) sequence, as in
  Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021), *Bayesian
  Analysis* 16(2), eqs. (10)-(11).
- ``split_rhat``: rank-normalized split-R-hat of the same paper, the larger
  of its bulk and folded (tail) versions.
- ``roc_auc``: Mann-Whitney ROC AUC with average ranks for ties.

Every function takes draws as an array of shape (chains, draws).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x):
    """Biased autocovariance of each row of x at lags 0..n-1, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, size, axis=1)
    return np.fft.irfft(spectrum * spectrum.conj(), size, axis=1)[:, :n] / n


def _between_within(x):
    """(W, var_plus) of a (chains, draws) array: within-chain and pooled variance."""
    m, n = x.shape
    within = float(x.var(axis=1, ddof=1).mean())
    between = float(x.mean(axis=1).var(ddof=1)) if m > 1 else 0.0
    return within, within * (n - 1) / n + between


def ess(draws):
    """Effective sample size of all draws together; nan for a constant quantity."""
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("ess needs a (chains, draws) array with at least 4 draws per chain")
    m, n = x.shape
    within, var_plus = _between_within(x)
    if not var_plus > 0.0:
        return float("nan")
    acov = _autocovariance(x).mean(axis=0)
    rho = 1.0 - (within - acov) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    non_positive = np.flatnonzero(pairs <= 0.0)
    if non_positive.size:
        pairs = pairs[: non_positive[0]]
    tau = -1.0 + 2.0 * float(np.minimum.accumulate(pairs).sum())
    # The lower limit on tau keeps strongly antithetic chains from
    # reporting an ESS above m*n*log10(m*n).
    return m * n / max(tau, 1.0 / np.log10(m * n))


def _rank_normal(x):
    """Normal scores of the pooled ranks (Blom offsets), keeping the shape."""
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def _rhat(x):
    within, var_plus = _between_within(x)
    return float(np.sqrt(var_plus / within)) if within > 0 else float("nan")


def split_rhat(draws):
    """Rank-normalized split-R-hat: max of the bulk and the folded statistic."""
    x = np.asarray(draws, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError("split_rhat needs a (chains, draws) array with at least 4 draws per chain")
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)
    folded = np.abs(split - np.median(split))
    return max(_rhat(_rank_normal(split)), _rhat(_rank_normal(folded)))


def roc_auc(scores, labels):
    """P(score of a positive > score of a negative), ties counting one half."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).astype(bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels differ in length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs at least one positive and one negative label")
    ranks = rankdata(scores, method="average")
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
