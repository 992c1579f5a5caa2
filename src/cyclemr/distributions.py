"""Samplers for the non-standard distributions the MCMC needs.

Every sampler is a deterministic function of its parameters and the numpy
Generator handed in, so identical seeds reproduce identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GigParams:
    """Generalized inverse Gaussian with density f(x) ~ x^(p_order-1) exp(-(a*x + b/x)/2).

    Valid for any finite order and finite positive rates a and b; NaN and
    infinite parameters are rejected.  The gamma (b = 0) and inverse-gamma
    (a = 0) limits are not part of the range.
    """

    p_order: float
    a: float
    b: float

    def __post_init__(self):
        # Written so that NaN fails too.
        if not (math.isfinite(self.p_order) and 0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValueError(f"GIG needs a finite order and finite positive rates, got {self}")


def sample_gig(params: GigParams, rng: np.random.Generator) -> float:
    """One draw from the generalized inverse Gaussian distribution.

    Uses the uniformly fast rejection method of Devroye (2014) in the
    two-parameter (lam, omega) standardization; valid over the whole range
    of GigParams, including the very negative orders produced by the
    error-covariance update at large n.  The log-density of the
    standardized variable is psi(x) = -alpha (cosh x - 1) - lam (e^x - x - 1),
    written out inline below.
    """
    lam, a, b = params.p_order, params.a, params.b
    omega = math.sqrt(a * b)
    swap = lam < 0
    if swap:
        lam = -lam
    alpha = math.sqrt(omega * omega + lam * lam) - lam
    cosh, sinh, exp = math.cosh, math.sinh, math.exp

    # Locate the envelope break points t and s from -psi(1) and -psi(-1).
    x = alpha * (cosh(1.0) - 1.0) + lam * (exp(1.0) - 1.0 - 1.0)
    if 0.5 <= x <= 2.0:
        t = 1.0
    elif x > 2.0:
        t = math.sqrt(2.0 / (alpha + lam))
    else:
        t = math.log(4.0 / (alpha + 2.0 * lam))

    x = alpha * (cosh(-1.0) - 1.0) + lam * (exp(-1.0) + 1.0 - 1.0)
    if 0.5 <= x <= 2.0:
        s = 1.0
    elif x > 2.0:
        s = math.sqrt(4.0 / (alpha * cosh(1.0) + lam))
    elif alpha == 0.0:
        s = 1.0 / lam
    else:
        inv_alpha = 1.0 / alpha
        cand = math.log(1.0 + inv_alpha + math.sqrt(inv_alpha * inv_alpha + 2.0 * inv_alpha))
        s = cand if lam == 0.0 else min(1.0 / lam, cand)

    # eta = -psi(t), zeta = -psi'(t), theta = -psi(-s), xi = psi'(-s).
    exp_t, exp_ms = exp(t), exp(-s)
    eta = alpha * (cosh(t) - 1.0) + lam * (exp_t - t - 1.0)
    zeta = alpha * sinh(t) + lam * (exp_t - 1.0)
    theta = alpha * (cosh(-s) - 1.0) + lam * (exp_ms + s - 1.0)
    xi = -alpha * sinh(-s) - lam * (exp_ms - 1.0)
    inv_xi = 1.0 / xi
    inv_zeta = 1.0 / zeta
    td = t - inv_zeta * eta
    sd = s - inv_xi * theta
    q = td + sd
    total = inv_xi + q + inv_zeta

    while True:
        u, v, w = rng.random(3).tolist()
        u *= total
        if u < q:
            rnd = -sd + q * v
        elif u < q + inv_zeta:
            rnd = td - inv_zeta * math.log(v)
        else:
            rnd = -sd + inv_xi * math.log(v)
        if -sd <= rnd <= td:
            envelope = 1.0
        elif rnd > td:
            envelope = exp(-eta - zeta * (rnd - t))
        else:
            envelope = exp(-theta + xi * (rnd + s))
        exp_rnd = exp(rnd)
        if w * envelope <= exp(-alpha * (cosh(rnd) - 1.0) - lam * (exp_rnd - rnd - 1.0)):
            break

    # Transform back from the standardized variable.
    out = exp_rnd * (lam / omega + math.sqrt(1.0 + lam * lam / (omega * omega)))
    if swap:
        out = 1.0 / out
    return out / math.sqrt(a / b)


def draw_matrix_normal(mean, l_row, l_col, rng: np.random.Generator) -> np.ndarray:
    """mean + l_row Z l_col' with Z iid standard normal, given the lower Cholesky factors of both covariances."""
    return mean + l_row @ rng.standard_normal(mean.shape) @ l_col.T


@np.errstate(divide="ignore", over="ignore")
def sample_inverse_gamma(shape, scale, rng: np.random.Generator):
    """Inverse gamma with density ~ x^(-shape-1) exp(-scale/x); accepts array arguments.

    Draws are clamped to the representable range [1e-300, 1e300]: the
    underlying gamma generator can return exact zeros (probability ~2^-53
    per draw), which would otherwise cascade inf/0 through the samplers.
    """
    shape = np.asarray(shape, dtype=float)
    scale = np.asarray(scale, dtype=float)
    # Written so that NaN fails too; an empty array passes.
    if not (shape.min(initial=1.0) > 0 and scale.min(initial=1.0) > 0):
        raise ValueError("inverse-gamma parameters must be positive")
    size = scale.shape if shape.ndim == 0 else np.broadcast_shapes(shape.shape, scale.shape)
    draw = rng.gamma(shape, 1.0, size=size)
    np.divide(scale, draw, out=draw)
    np.maximum(draw, 1e-300, out=draw)
    np.minimum(draw, 1e300, out=draw)
    return float(draw) if draw.ndim == 0 else draw


def sample_beta(a, b, rng: np.random.Generator):
    """Standard beta; accepts array arguments."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # Written so that NaN fails too; an empty array passes.
    if not (a.min(initial=1.0) > 0 and b.min(initial=1.0) > 0):
        raise ValueError("beta shapes must be positive")
    draw = rng.beta(a, b)
    return float(draw) if np.ndim(draw) == 0 else draw


def sample_bernoulli(q, rng: np.random.Generator):
    """Bernoulli indicator draw; q may leave [0, 1] by 1e-12 of slack.

    Uniforms lie in [0, 1), so q within the slack draws as if clamped to [0, 1].
    """
    q = np.asarray(q, dtype=float)
    # Written so that NaN fails too; an empty array passes.
    if not (q.min(initial=0.0) >= -1e-12 and q.max(initial=1.0) <= 1.0 + 1e-12):
        raise ValueError("bernoulli probability outside [0, 1]")
    draw = (rng.random(q.shape) < q).astype(np.int8)
    return int(draw) if draw.ndim == 0 else draw
