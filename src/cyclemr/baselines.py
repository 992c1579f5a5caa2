"""Textbook MR estimators used as comparison points: ratio, IVW, medians, 2SLS.

These estimators target total causal effects per ordered trait pair; the
evaluation harness therefore scores them against total-effect truths for
effect deviation and against the direct-effect graph for edge recovery.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .model import RawDataSet, SummaryStatistics

WEAK_DENOMINATOR = 1e-12
WEAK_F_THRESHOLD = 10.0
MEDIAN_BOOTSTRAP = 200
BASELINE_METHODS = ("ratio", "ivw", "median", "wmedian", "tsls")


@dataclass
class RegressionSummary:
    """Simple-regression coefficients of every trait on every instrument.

    r[g, j] is the coefficient of trait j on instrument g alone; se holds
    the matching standard errors.
    """

    r: np.ndarray
    se: np.ndarray


@dataclass
class BaselineResult:
    """Total-effect estimates with evidence scores, per ordered trait pair.

    effect[j, h] estimates the effect of trait h on trait j; score is the
    absolute t-statistic and pvalue its two-sided normal p-value.  The
    diagonal is zero by convention.
    """

    effect: np.ndarray
    score: np.ndarray
    pvalue: np.ndarray
    method: str


def marginal_regressions(stats: SummaryStatistics) -> RegressionSummary:
    """Per-instrument simple regressions of each trait, from second moments alone."""
    n = stats.dims.n
    sxx_diag = np.diag(stats.s_xx)
    if np.any(sxx_diag <= 0):
        raise ValueError("an instrument has zero second moment")
    r = stats.s_yx.T / sxx_diag[:, None]
    resid_var = np.maximum(np.diag(stats.s_yy)[None, :] - r**2 * sxx_diag[:, None], 0.0)
    se = np.sqrt(np.maximum(resid_var / (n * sxx_diag[:, None]), 1e-300))
    return RegressionSummary(r=r, se=se)


def ratio_estimates(stats: SummaryStatistics, instrument_map, outcome, exposure):
    """Per-instrument ratio estimates of the effect of `exposure` on `outcome`.

    Returns (ratios, ses) over the exposure's instruments, with first-order
    delta-method standard errors.  Instruments whose first-stage
    coefficient vanishes are excluded with a warning.
    """
    regs = marginal_regressions(stats)
    instruments = np.flatnonzero(np.asarray(instrument_map)[exposure])
    ratios, ses = [], []
    for g in instruments:
        den = regs.r[g, exposure]
        if abs(den) < WEAK_DENOMINATOR:
            warnings.warn(
                f"instrument {g} has zero effect on trait {exposure}; excluded from ratios",
                stacklevel=2,
            )
            continue
        ratios.append(regs.r[g, outcome] / den)
        ses.append(regs.se[g, outcome] / abs(den))
    return np.asarray(ratios), np.asarray(ses)


def ivw(ratios, ses):
    """Inverse-variance weighted average of ratio estimates; returns (effect, se)."""
    ratios = np.asarray(ratios, dtype=float)
    ses = np.asarray(ses, dtype=float)
    if ratios.size == 0:
        raise ValueError("IVW needs at least one ratio estimate")
    weights = 1.0 / ses**2
    return float(np.sum(weights * ratios) / weights.sum()), float(weights.sum() ** -0.5)


def simple_median(ratios) -> float:
    ratios = np.asarray(ratios, dtype=float)
    if ratios.size == 0:
        raise ValueError("median needs at least one ratio estimate")
    return float(np.median(ratios))


def weighted_median(ratios, weights) -> float:
    """Weight-interpolated median of ratio estimates.

    The smallest ratio whose cumulative normalized weight reaches 1/2,
    linearly interpolated between the bracketing order statistics on the
    cumulative-weight scale.
    """
    ratios = np.asarray(ratios, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if ratios.size == 0:
        raise ValueError("weighted median needs at least one ratio estimate")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    order = np.argsort(ratios)
    r_sorted = ratios[order]
    cum = np.cumsum(weights[order]) / weights.sum()
    idx = int(np.searchsorted(cum, 0.5))
    if idx == 0 or r_sorted.size == 1:
        return float(r_sorted[0])
    r_lo, r_hi = r_sorted[idx - 1], r_sorted[idx]
    c_lo, c_hi = cum[idx - 1], cum[idx]
    if c_hi == c_lo:
        return float(r_hi)
    return float(r_lo + (r_hi - r_lo) * (0.5 - c_lo) / (c_hi - c_lo))


def tsls_pair(data: RawDataSet, exposure, outcome, instruments):
    """Two-stage least squares for one ordered pair; returns (effect, se).

    Warns when the first-stage F statistic falls below 10.
    """
    x = data.x[:, list(instruments)]
    if x.shape[1] == 0:
        raise ValueError("2SLS needs at least one instrument")
    n, k = x.shape
    y_exp = data.y[:, exposure]
    y_out = data.y[:, outcome]
    coef, *_ = np.linalg.lstsq(x, y_exp, rcond=None)
    fitted = x @ coef
    ess = float(np.sum(fitted**2))
    rss = float(np.sum((y_exp - fitted) ** 2))
    if n > k and rss > 0:
        fstat = (ess / k) / (rss / (n - k))
        if fstat < WEAK_F_THRESHOLD:
            warnings.warn(
                f"weak instruments for trait {exposure}: first-stage F = {fstat:.2f} < 10",
                stacklevel=2,
            )
    if ess <= 0:
        raise ValueError("first-stage fit is identically zero")
    effect = float(fitted @ y_out / ess)
    resid = y_out - effect * y_exp
    se = math.sqrt(max(float(resid @ resid) / n, 1e-300) / ess)
    return effect, se


def total_effect_matrix(a) -> np.ndarray:
    """Population total effects t[j, h] = M[j, h] / M[h, h] with M = (I - A)^{-1}.

    This is the estimand of instrument-ratio estimators in the cyclic SEM;
    at p = 3 it reduces to the trivariate closed form.
    """
    a = np.asarray(a, dtype=float)
    p = a.shape[0]
    m = np.linalg.inv(np.eye(p) - a)
    total = m / np.diag(m)[None, :]
    np.fill_diagonal(total, 0.0)
    return total


def reassign_pleiotropic(support, rng) -> np.ndarray:
    """Give each shared instrument to exactly one of its traits, at random.

    Mirrors how pleiotropy-unaware baselines receive the Case III
    instrument map.
    """
    support = np.asarray(support, dtype=int)
    out = support.copy()
    for col in range(support.shape[1]):
        rows = np.flatnonzero(support[:, col])
        if rows.size > 1:
            keep = rows[int(rng.integers(rows.size))]
            out[:, col] = 0
            out[keep, col] = 1
    return out


def _median_bootstrap_se(ratios, ses, estimator, rng):
    draws = rng.normal(ratios[None, :], ses[None, :], size=(MEDIAN_BOOTSTRAP, ratios.size))
    stats = np.array([estimator(row) for row in draws])
    return float(max(stats.std(ddof=1), 1e-300))


def baseline_effects(source, method, instrument_map, seed=0) -> BaselineResult:
    """Estimate every ordered trait pair with one baseline method.

    `source` is a SummaryStatistics for the summary-level methods (ratio,
    ivw, median, wmedian) and a RawDataSet for tsls.  The ratio method
    reports the unweighted mean of per-instrument ratios.  Pairs with no
    usable instrument get effect 0, score 0, p-value 1.
    """
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline method {method!r}")
    raw = method == "tsls"
    if not isinstance(source, RawDataSet if raw else SummaryStatistics):
        raise ValueError(f"{method} needs {'individual-level data' if raw else 'summary statistics'}")
    if raw and not (np.isfinite(source.y).all() and np.isfinite(source.x).all()):
        raise ValueError("tsls needs finite individual-level data")
    instrument_map = np.asarray(instrument_map, dtype=int)
    p = source.dims.p
    rng = np.random.Generator(np.random.PCG64(seed))
    effect = np.zeros((p, p))
    score = np.zeros((p, p))
    pvalue = np.ones((p, p))
    for j in range(p):
        for h in range(p):
            if j == h:
                continue
            if method == "tsls":
                instruments = np.flatnonzero(instrument_map[h])
                if instruments.size == 0:
                    continue
                est, se = tsls_pair(source, exposure=h, outcome=j, instruments=instruments)
            else:
                ratios, ses = ratio_estimates(source, instrument_map, outcome=j, exposure=h)
                if ratios.size == 0:
                    continue
                if method == "ivw":
                    est, se = ivw(ratios, ses)
                elif method == "ratio":
                    est = float(ratios.mean())
                    se = float(np.sqrt(np.sum(ses**2)) / ratios.size)
                elif method == "median":
                    est = simple_median(ratios)
                    se = _median_bootstrap_se(ratios, ses, simple_median, rng)
                else:  # wmedian
                    weights = 1.0 / ses**2
                    est = weighted_median(ratios, weights)
                    se = _median_bootstrap_se(
                        ratios, ses, lambda r: weighted_median(r, weights), rng
                    )
            effect[j, h] = est
            score[j, h] = abs(est) / se
            pvalue[j, h] = 2.0 * float(ndtr(-score[j, h]))
    return BaselineResult(effect=effect, score=score, pvalue=pvalue, method=method)
