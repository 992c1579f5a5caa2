"""Posterior summaries: inclusion probabilities, sparsified estimates, total effects."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mcmc import Chain

CREDIBLE_LEVEL = 0.95


@dataclass
class FitSummary:
    """Point estimates and structures derived from a chain.

    Sparse estimates are Hadamard products of posterior means with
    thresholded inclusion probabilities.  Credible intervals are
    equal-tailed at 95%, stored as (..., 2) arrays of (lower, upper).
    """

    pip_a: np.ndarray
    pip_b: np.ndarray
    pip_z: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    mean_c: np.ndarray
    mean_sigma_star: np.ndarray
    ci_a: np.ndarray
    ci_b: np.ndarray
    ci_c: np.ndarray
    ci_sigma_star: np.ndarray
    threshold_a: float
    threshold_b: float
    threshold_z: float
    instrument_mode: str

    @property
    def sparse_a(self):
        sparse = self.mean_a * (self.pip_a >= self.threshold_a)
        np.fill_diagonal(sparse, 0.0)
        return sparse

    @property
    def sparse_b(self):
        return self.mean_b * (self.pip_b >= self.threshold_b)

    @property
    def sparse_sigma_star(self):
        sparse = self.mean_sigma_star * (self.pip_z >= self.threshold_z)
        np.fill_diagonal(sparse, np.diag(self.mean_sigma_star))
        return sparse


def _credible_interval(samples):
    lo = (1.0 - CREDIBLE_LEVEL) / 2.0
    return np.moveaxis(np.quantile(samples, [lo, 1.0 - lo], axis=0), 0, -1)


def summarize(chain: Chain, threshold_a=0.5, threshold_b=0.5, threshold_z=0.5) -> FitSummary:
    """Posterior inclusion probabilities and thresholded sparsified estimates.

    In fixed-map mode phi never moves, so the instrument PIPs are the structural
    support mask and downstream consumers see a uniform interface across variants.
    """
    if chain.n_samples == 0:
        raise ValueError("chain holds no stored samples")
    return FitSummary(
        pip_a=chain.gamma.mean(axis=0),
        pip_b=chain.phi.mean(axis=0),
        pip_z=chain.z.mean(axis=0),
        mean_a=chain.a.mean(axis=0),
        mean_b=chain.b.mean(axis=0),
        mean_c=chain.c.mean(axis=0),
        mean_sigma_star=chain.sigma_star.mean(axis=0),
        ci_a=_credible_interval(chain.a),
        ci_b=_credible_interval(chain.b),
        ci_c=_credible_interval(chain.c),
        ci_sigma_star=_credible_interval(chain.sigma_star),
        threshold_a=threshold_a,
        threshold_b=threshold_b,
        threshold_z=threshold_z,
        instrument_mode=chain.config.hyper.instrument_mode,
    )


def total_effect_trivariate(a: np.ndarray) -> float:
    """Total causal effect of trait 2 on trait 1 in a three-trait network.

    t12 = (a_12 + a_13 a_32) / |1 - a_13 a_31|, combining the direct
    effect, the path mediated through trait 3, and the amplification from
    the reciprocal relationship between traits 1 and 3.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 effect matrix, got shape {a.shape}")
    denom = abs(1.0 - a[0, 2] * a[2, 0])
    if denom == 0.0:
        raise ZeroDivisionError("total effect undefined: 1 - a_13 a_31 is zero")
    return float((a[0, 1] + a[0, 2] * a[2, 1]) / denom)
