"""Eleven-step Markov kernel for the cyclic SEM, chain management, and variants.

One iteration applies, in order: Beta updates for the instrument-slab
weights, the half-Cauchy scale hierarchy and inclusion indicators for B,
an exact blocked Gibbs draw of B, the mirrored four updates for A (whose
entries move by random-walk Metropolis scaled to their own conditionals,
row by row), an exact matrix-normal Gibbs draw for C, Bernoulli updates
for the confounding indicators, and a column-wise blocked Gibbs draw for
the error covariance that preserves positive definiteness by construction.
C's matrix-normal prior MN(0, Sigma*, tau_c I) enters that last step as
C C'/tau_c in its scatter and -l/2 in its GIG order.

Only the last step changes Sigma*, so the chain state carries
Omega = Sigma*^{-1}, log|Sigma*| and the Cholesky factor of Sigma* from
one sweep to the next.  Steps 4, 8, 9 and 11 read them; step 11 keeps
Omega current column by column and refreshes all three from one fresh
Cholesky factor of Sigma* after its last column.

No accept/reject decision reads the cached log-likelihood: steps 4, 8, 9
and 11 advance it by exact increments, and run_chain checks it against a
fresh one after every LOG_LIK_CHECK_EVERY-th sweep and after the last.

Work that depends only on the statistics and the hyperparameters, such as
B's fixed support, C's column covariance, S_yy for step 8 and step 11's
scratch buffers, is built once per chain and held on the state
(ChainState.per_chain).

Two variants share the kernel: a fixed instrument map with plain normal
priors on the structurally non-zero entries of B, and full spike-and-slab
selection over all instrument-trait pairs.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger
from scipy.linalg.lapack import dgetrf, dgetri, dtrtrs
from scipy.special import expit

from .distributions import GigParams, draw_matrix_normal, sample_beta, sample_bernoulli, sample_gig
from .distributions import sample_inverse_gamma
from .model import (
    ModelParameters,
    SINGULAR_PIVOT_TOL,
    NumericalError,
    SummaryStatistics,
    _chol_inverse,
    _chol_logdet,
    _chol_lower,
    _identity,
    indicator_matrix,
    log_likelihood_summary,
    logabsdet_i_minus_a,
    residual_moments,
    residual_scatter,
)

logger = logging.getLogger(__name__)

FIXED_MAP = "fixed-map"
SELECTION = "selection"

# Floor for the GIG quadratic argument; only reachable through rounding.
GIG_QUAD_FLOOR = 1e-12

# Sweeps between checks of the cached log-likelihood against a fresh one.
LOG_LIK_CHECK_EVERY = 1000

# Sweeps whose Sigma* run_chain collects for one batched eigenvalue call.
MIN_EIG_BLOCK = 100

# The arrays a chain stores per kept draw, in output order; the indicator
# arrays come from LatentState and are stored as int8, the rest from
# ModelParameters.
SAMPLED = ("a", "b", "c", "sigma_star", "gamma", "phi", "z")
INDICATORS = ("gamma", "phi", "z")


@dataclass(frozen=True)
class Hyperparameters:
    """Fixed prior constants; building them with an invalid value raises ValueError.

    nu1/nu2 are the spike shrink factors for A and B, and lam is both the
    exponential rate on the error-covariance diagonal and the linear GIG
    rate.  No proposal is tuned: B is drawn exactly, and step 8 scales
    each A proposal from its entry's conditional.

    The default nu1 is much smaller than nu2 because causal effects live
    on a far smaller scale than instrument effects; a 1e-2 shrink leaves
    the spike wide enough to swallow every causal effect the slab should
    capture.
    """

    nu1: float = 1e-4
    nu2: float = 0.01
    a_rho: float = 1.0
    b_rho: float = 1.0
    a_psi: float = 1.0
    b_psi: float = 1.0
    omega1: float = 1.0
    omega2: float = 0.01
    pi_z: float = 0.5
    lam: float = 5.0
    tau_c: float = 10.0
    instrument_mode: str = FIXED_MAP
    b_prior_sd: float = 10.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            numeric = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if f.name != "instrument_mode" and not (numeric and math.isfinite(value)):
                raise ValueError(f"hyperparameter {f.name} must be a finite number, got {value!r}")
        if not (0.0 < self.nu1 < 1.0 and 0.0 < self.nu2 < 1.0):
            raise ValueError("spike shrink factors nu1, nu2 must lie in (0, 1)")
        positive = ("a_rho", "b_rho", "a_psi", "b_psi", "omega1", "lam", "tau_c", "b_prior_sd")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"hyperparameter {name} must be positive")
        if not 0.0 <= self.pi_z <= 1.0:
            raise ValueError("pi_z must lie in [0, 1]")
        if self.omega2 < 0.01:
            raise ValueError("omega2 must be at least 0.01")
        if self.omega1 / self.omega2 > 1000.0:
            raise ValueError("omega1/omega2 must not exceed 1000")
        if self.instrument_mode not in (FIXED_MAP, SELECTION):
            raise ValueError(f"unknown instrument_mode {self.instrument_mode!r}")


@dataclass
class LatentState:
    """Spike-and-slab indicators and scales for one MCMC state.

    gamma/rho/tau drive the entries of A, phi/psi/eta drive B, z the
    confounding indicators.
    """

    gamma: np.ndarray
    rho: np.ndarray
    tau: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    eta: np.ndarray
    z: np.ndarray


@dataclass
class ChainState:
    """One point of the chain with its cached summary log-likelihood.

    omega = Sigma*^{-1}, logdet_sigma = log|Sigma*| and chol_sigma, the
    lower Cholesky factor of Sigma*, are carried with the state and
    derived from params.sigma_star on construction.  Code that assigns
    params.sigma_star by hand must call refresh_precision afterwards, or
    steps 4, 8, 9 and 11 read a stale Omega; code that assigns any
    parameter by hand must reset log_lik too.  per_chain holds work that
    the steps build once per chain.
    """

    params: ModelParameters
    latent: LatentState
    log_lik: float
    iteration: int = 0
    omega: np.ndarray = field(init=False, repr=False)
    logdet_sigma: float = field(init=False, repr=False)
    chol_sigma: np.ndarray = field(init=False, repr=False)
    _per_chain: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.refresh_precision()

    def refresh_precision(self):
        """Recompute omega, logdet_sigma and chol_sigma from one Cholesky factor of params.sigma_star."""
        self.chol_sigma = chol = _chol_lower(self.params.sigma_star, "Sigma*")
        self.omega = _chol_inverse(chol)
        self.logdet_sigma = _chol_logdet(chol)

    def per_chain(self, name, stats, key, build):
        """The value of build(), built again only when stats (by identity) or key (by value) changes.

        Holds work that depends only on the statistics and on values the
        kernel never changes, such as hyperparameters.
        """
        held = self._per_chain.get(name)
        if held is None or held[0] is not stats or held[1] != key:
            held = self._per_chain[name] = (stats, key, build())
        return held[2]


@dataclass(frozen=True)
class McmcConfig:
    """Chain settings, checked when built.  The 0/1 instrument map is stored as ints; initial_state checks its shape."""

    iterations: int = 50_000
    burn_in: int = 10_000
    thin: int = 10
    seed: int = 0
    hyper: Hyperparameters = field(default_factory=Hyperparameters)
    fixed_b_support: np.ndarray | None = None

    def __post_init__(self):
        for name in ("iterations", "burn_in", "thin", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1 or self.thin < 1:
            raise ValueError("iterations and thin must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.fixed_b_support is not None:
            object.__setattr__(self, "fixed_b_support", indicator_matrix(self.fixed_b_support, "fixed_b_support"))


@dataclass
class Chain:
    """Thinned post-burn-in samples plus per-iteration diagnostics."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma_star: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    z: np.ndarray
    loglik: np.ndarray
    sigma_min_eig: np.ndarray
    accept_rate_a: float
    accept_rate_b: float
    config: McmcConfig

    @property
    def n_samples(self):
        return self.a.shape[0]


def _draw_gaussian(prec, linear, normals, what):
    """Draw from N(prec^-1 linear, prec^-1), given the precision matrix prec and standard normals.

    With prec = L L', the draw is L'^-1 (L^-1 linear + normals): two
    triangular solves (Rue 2001, "Fast sampling of Gaussian Markov random
    fields", JRSS B 63(2)).  Every caller passes a scratch prec: a
    Fortran-ordered one is factored in place, any other in a copy.  Only
    the lower triangle of prec is read, and the factor's strict upper
    triangle is left as prec held it, since both solves read only L.
    """
    chol = _chol_lower(prec, what, overwrite=True, clean=False)
    half, _ = dtrtrs(chol, linear, lower=1)
    half += normals
    draw, _ = dtrtrs(chol, half, lower=1, trans=1, overwrite_b=1)
    return draw


def _add_outer(mat, alpha, x, y):
    """mat += alpha x y' in place, through BLAS dger.

    dger writes in place only into a Fortran-ordered array and quietly
    updates a copy of any other, so a C-ordered mat is updated through its
    transpose.  x and y must not share memory with mat.
    """
    if mat.flags.f_contiguous:
        dger(alpha, x, y, a=mat, overwrite_a=1)
    else:
        dger(alpha, y, x, a=mat.T, overwrite_a=1)


def _read_only(array):
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=None)
def _offdiag_mask(p):
    return _read_only(~np.eye(p, dtype=bool))


@functools.lru_cache(maxsize=None)
def _upper_pairs(p):
    return tuple(_read_only(index) for index in np.triu_indices(p, 1))


def update_psi(state: ChainState, hyper: Hyperparameters, rng):
    """Step 1: conjugate Beta refresh of the instrument-slab weights."""
    latent = state.latent
    latent.psi = sample_beta(latent.phi + hyper.a_psi, 1 - latent.phi + hyper.b_psi, rng)


def _half_cauchy_scales(scales, values, included, shrink, rng):
    """Steps 2 and 6: new half-Cauchy slab scales of spike-and-slab effects, via auxiliary inverse gammas."""
    eps = sample_inverse_gamma(1.0, 1.0 + 1.0 / scales, rng)
    rate = values * values
    rate /= np.where(included == 1, 2.0, 2.0 * shrink)
    rate += 1.0 / eps
    return sample_inverse_gamma(1.0, np.maximum(rate, 1e-300, out=rate), rng)


def update_eta(state: ChainState, hyper: Hyperparameters, rng):
    """Step 2: half-Cauchy hierarchy for the B slab scales."""
    latent = state.latent
    latent.eta = _half_cauchy_scales(latent.eta, state.params.b, latent.phi, hyper.nu2, rng)


@np.errstate(divide="ignore")  # a weight of 0 or 1 gives a log of zero
def _inclusion_probability(values, scales, shrink, weights):
    """Posterior slab probability for a spike-and-slab normal mixture.

    values are the current effects, scales the slab variances, shrink the
    spike variance factor, weights the prior slab probabilities.
    """
    squares = values * values
    log_slab = np.log(weights) - squares / (2.0 * scales)
    log_spike = (
        np.log1p(-np.asarray(weights, dtype=float)) - squares / (2.0 * shrink * scales) - 0.5 * math.log(shrink)
    )
    return expit(log_slab - log_spike)


def update_phi(state: ChainState, hyper: Hyperparameters, rng):
    """Step 3: Bernoulli refresh of the instrument inclusion indicators."""
    latent = state.latent
    p_phi = _inclusion_probability(state.params.b, latent.eta, hyper.nu2, latent.psi)
    latent.phi = sample_bernoulli(p_phi, rng)


def update_b(state: ChainState, stats: SummaryStatistics, hyper: Hyperparameters, rng):
    """Step 4: exact Gibbs draw of the active entries of B, block by block.

    Fixed-map mode draws the whole support as one block, selection mode
    one row at a time.  Given the rest, a block E = (rows r, cols c) is
    Gaussian with precision L + diag(1 / prior variance), where
    L = n Omega[r, r'] S_xx[c, c'] and Omega = Sigma*^-1, and linear term
    g + L b_E, with g = n (Omega R_x)[E] and R_x from model.residual_moments.
    The cached log-likelihood advances by the exact quadratic increment
    delta' g - delta' L delta / 2.

    In fixed-map mode phi never changes, so the support, its S_xx blocks
    and the prior precision are built once per chain.  In selection mode
    row j has L = c_j S_xx with c_j = n Omega[j, j]; its precision is
    written into one Fortran-ordered buffer and factored in place, and
    L b_j = c_j (B S_xx)[j] comes from one product before the loop, since
    row j is unchanged until its turn.  Every row's standard normals come
    from one draw before the loop too; no other draw comes between the
    rows, so the random stream is that of one draw per row.  delta' S_xx
    serves both the increment and the rank-one gradient update
    n Omega[:, j] (delta' S_xx).  Returns (drawn, drawn): every draw is
    accepted.
    """
    params, latent = state.params, state.latent
    n = stats.dims.n
    prec = state.omega
    s_xx = stats.s_xx
    b_mat = params.b
    r_x, _ = residual_moments(params, stats, slice(params.p, params.p + stats.dims.k))
    grad = n * prec @ r_x
    if hyper.instrument_mode != SELECTION:
        return _update_b_support(state, stats, hyper, rng, grad)
    p, k = b_mat.shape
    if not k:
        return 0, 0
    prior_prec = 1.0 / np.where(latent.phi == 1, latent.eta, hyper.nu2 * latent.eta)
    b_sxx = b_mat @ s_xx
    row_prec = np.empty((k, k), order="F")
    diagonal = row_prec.ravel(order="F")[:: k + 1]  # a view
    normals = rng.standard_normal((p, k))
    log_lik = state.log_lik
    for j in range(p):
        c_j = n * float(prec[j, j])
        np.multiply(s_xx.T, c_j, out=row_prec)  # S_xx' is Fortran-ordered like row_prec
        diagonal += prior_prec[j]
        g = grad[j]
        new = _draw_gaussian(row_prec, g + c_j * b_sxx[j], normals[j], "B row precision")
        delta = new - b_mat[j]
        b_mat[j] = new
        delta_sxx = delta @ s_xx
        log_lik += float(delta @ g) - 0.5 * c_j * float(delta_sxx @ delta)
        _add_outer(grad, -n, prec[:, j], delta_sxx)
    state.log_lik = log_lik
    return p * k, p * k


def _update_b_support(state, stats, hyper, rng, grad):
    """Step 4 in fixed-map mode: one exact Gibbs draw of B on its fixed support."""
    support = state.per_chain(
        "b_support", stats, (hyper.b_prior_sd, state.latent.phi.tobytes()),
        lambda: _b_support(state.latent.phi, stats.s_xx, hyper.b_prior_sd),
    )
    if support is None:
        return 0, 0
    rows, cols, sxx_block, prior_prec = support
    n = stats.dims.n
    prec = state.omega
    b_mat = state.params.b
    lik_prec = n * prec[rows[:, None], rows] * sxx_block
    old, g = b_mat[rows, cols], grad[rows, cols]
    normals = rng.standard_normal(old.size)
    new = _draw_gaussian(lik_prec + prior_prec, g + lik_prec @ old, normals, "B block precision")
    delta = new - old
    b_mat[rows, cols] = new
    state.log_lik += float(delta @ g - 0.5 * delta @ lik_prec @ delta)
    return delta.size, delta.size


def _b_support(phi, s_xx, b_prior_sd):
    """The fixed-map support of B with its gathered S_xx block and prior precision, or None if empty."""
    rows, cols = np.nonzero(phi == 1)
    if not rows.size:
        return None
    return rows, cols, s_xx[cols[:, None], cols], np.eye(rows.size) / b_prior_sd**2


def update_rho(state: ChainState, hyper: Hyperparameters, rng):
    """Step 5: conjugate Beta refresh of the edge-slab weights."""
    latent = state.latent
    off = _offdiag_mask(latent.rho.shape[0])
    gamma = latent.gamma[off]
    latent.rho[off] = sample_beta(gamma + hyper.a_rho, 1 - gamma + hyper.b_rho, rng)


def update_tau(state: ChainState, hyper: Hyperparameters, rng):
    """Step 6: half-Cauchy hierarchy for the A slab scales."""
    latent = state.latent
    off = _offdiag_mask(latent.tau.shape[0])
    latent.tau[off] = _half_cauchy_scales(latent.tau[off], state.params.a[off], latent.gamma[off], hyper.nu1, rng)


def update_gamma(state: ChainState, hyper: Hyperparameters, rng):
    """Step 7: Bernoulli refresh of the causal-edge indicators."""
    latent = state.latent
    off = _offdiag_mask(latent.gamma.shape[0])
    p_gamma = _inclusion_probability(
        state.params.a[off], latent.tau[off], hyper.nu1, latent.rho[off]
    )
    latent.gamma[off] = sample_bernoulli(p_gamma, rng)


def update_a(state: ChainState, stats: SummaryStatistics, hyper: Hyperparameters, rng):
    """Step 8: entrywise random-walk Metropolis on the off-diagonal entries of A, row by row.

    A[j, h] moves by a standard normal times 2.38 (Gelman, Roberts & Gilks
    1996) over the root of n Omega[j, j] S_yy[h, h] + 1/v, its conditional's
    curvature without the log-det term, with v its spike or slab prior
    variance.  It does not depend on A, so the walk stays symmetric.

    Every entry is proposed once per sweep, so when its turn comes it still
    holds its value from the start of the sweep.  One vectorized pass
    therefore gives every entry its step delta, its prior term
    -delta (2a + delta)/(2v) and the -(n/2) delta^2 Omega[j, j] S_yy[h, h]
    part of its quadratic change; diag(S_yy) and the rows of S_yy as Python
    floats are built once per chain.

    Moving A[j, h] by delta multiplies det(I - A) by 1 - delta F[h, j], with
    F = (I - A)^{-1}, and shifts row j of the quadratic gradient
    Omega R_y (model.residual_moments) by -delta Omega[j, j] S_yy[h, :].  The
    proposals of row j read only column j of F, which each accepted move
    divides by its determinant ratio, and the entries of row j of the
    gradient still to be proposed, so both are held as Python floats while
    the row is proposed.  After the row, one Sherman-Morrison update carries
    its whole change Delta into F, and one rank-one update,
    -Omega[:, j] (Delta' S_yy), into the gradient.
    Proposals that would make (I - A) singular are rejected.
    """
    params, latent = state.params, state.latent
    p = params.p
    n = stats.dims.n
    a_mat = params.a
    prec = state.omega
    lu, piv, _ = dgetrf(_identity(p) - a_mat)
    f_inv, _ = dgetri(lu, piv, overwrite_lu=1)
    r_y, _ = residual_moments(params, stats, slice(0, p))
    grad = prec @ r_y
    s_yy = stats.s_yy
    syy_diag, syy_rows = state.per_chain("a_syy", stats, (), lambda: (s_yy.diagonal().copy(), s_yy.tolist()))
    inv_var = 1.0 / np.where(latent.gamma == 1, latent.tau, hyper.nu1 * latent.tau)
    prec_diag = prec.diagonal()
    curvature = n * (prec_diag[:, None] * syy_diag)
    proposed = p * (p - 1)
    # Laid out as A, so the off-diagonal entries are filled in the order they are proposed.
    off = _offdiag_mask(p)
    delta = np.zeros((p, p))
    delta[off] = rng.standard_normal(proposed)
    delta *= 2.38 / np.sqrt(curvature + inv_var)
    uniforms = np.empty((p, p))
    uniforms[off] = rng.random(proposed)
    half_delta = -0.5 * delta
    quads = (curvature * delta * half_delta).tolist()
    log_priors = ((half_delta - a_mat) * delta * inv_var).tolist()  # -delta (2a + delta) / (2v)
    deltas, uniforms, prec_diag = delta.tolist(), uniforms.tolist(), prec_diag.tolist()
    log, exp = math.log, math.exp
    log_lik = state.log_lik
    accepted = 0
    for j in range(p):
        g_row = grad[j].tolist()
        a_row = None  # row j of A as a list, once a move is accepted
        prec_jj = prec_diag[j]
        scale = 1.0  # column j of F is its value at the start of the row times scale
        entries = zip(deltas[j], f_inv[:, j].tolist(), quads[j], log_priors[j], uniforms[j])
        for h, (step, f, quad, log_prior, uniform) in enumerate(entries):
            if h == j:
                continue
            denom = 1.0 - step * f * scale
            if abs(denom) < SINGULAR_PIVOT_TOL:
                continue
            d_ll = n * (log(abs(denom)) + step * g_row[h]) + quad
            log_alpha = d_ll + log_prior
            if log_alpha >= 0.0 or uniform < exp(log_alpha):
                if a_row is None:
                    a_row = a_mat[j].tolist()
                a_row[h] += step
                log_lik += d_ll
                scale /= denom
                shift, syy_h = step * prec_jj, syy_rows[h]
                for later in range(h + 1, p):
                    g_row[later] -= shift * syy_h[later]
                accepted += 1
        if a_row is not None:
            change = np.array(a_row) - a_mat[j]
            a_mat[j] = a_row
            if j + 1 < p:  # nothing reads F or the gradient after the last row
                f_change = change @ f_inv
                _add_outer(f_inv, 1.0 / (1.0 - f_change[j]), f_inv[:, j].copy(), f_change)
                _add_outer(grad, -1.0, prec[:, j], change @ s_yy)
    state.log_lik = log_lik
    return accepted, proposed


def update_c(state: ChainState, stats: SummaryStatistics, hyper: Hyperparameters, rng):
    """Step 9: exact matrix-normal Gibbs draw of the covariate effects (skipped when l = 0).

    The column covariance (n S_uu + I/tau_c)^-1 and its factor are built
    once per chain, and the row factor is the carried Cholesky factor of
    Sigma*.
    """
    if stats.dims.l == 0:
        return
    params = state.params
    n = stats.dims.n
    col_cov, col_chol = state.per_chain(
        "c_column", stats, (hyper.tau_c,), lambda: _c_column(stats, hyper.tau_c)
    )
    r_u, _ = residual_moments(params, stats, slice(params.p + stats.dims.k, None))
    mean = n * (r_u + params.c @ stats.s_uu) @ col_cov
    c_old = params.c
    params.c = draw_matrix_normal(mean, state.chol_sigma, col_chol, rng)
    delta = params.c - c_old
    # C + Delta moves Q = tr(Omega R Theta') by tr(Delta' Omega (Delta S_uu - 2 R_u)).
    state.log_lik -= 0.5 * n * float(np.vdot(state.omega @ delta, delta @ stats.s_uu - 2.0 * r_u))


def _c_column(stats, tau_c):
    """Step 9's column covariance (n S_uu + I/tau_c)^-1 and its lower Cholesky factor."""
    col_cov = _chol_inverse(_chol_lower(stats.dims.n * stats.s_uu + np.eye(stats.dims.l) / tau_c,
                                        "covariate-effect column precision"))
    return col_cov, _chol_lower(col_cov, "covariate-effect column covariance")


def confounding_probability(sigma_values, hyper: Hyperparameters):
    """Step 10 slab probability for off-diagonal error-covariance entries: slab variance omega1^2, spike omega2^2."""
    return _inclusion_probability(sigma_values, hyper.omega1**2, (hyper.omega2 / hyper.omega1) ** 2, hyper.pi_z)


def update_z(state: ChainState, hyper: Hyperparameters, rng):
    """Step 10: Bernoulli refresh of the symmetric confounding indicators."""
    latent = state.latent
    sigma = state.params.sigma_star
    p = sigma.shape[0]
    iu = _upper_pairs(p)
    draws = sample_bernoulli(confounding_probability(sigma[iu], hyper), rng)
    latent.z[iu] = draws
    latent.z.T[iu] = draws


def update_sigma_star(state: ChainState, stats: SummaryStatistics, hyper: Hyperparameters, rng):
    """Step 11: column-wise blocked Gibbs draw of the error covariance.

    Column j is repartitioned into u = Sigma*[rest, j] and the Schur
    complement v = Sigma*[j, j] - u' Sigma11^-1 u, where Sigma11 holds the
    other rows and columns.  u gets a Gaussian draw whose precision mixes
    the scatter matrix S with the spike-and-slab prior variances, and v a GIG
    draw.  Reassembly through the Schur complement keeps Sigma* positive
    definite whenever v > 0.  S is residual_scatter plus C C'/tau_c from C's
    matrix-normal prior, whose |Sigma*|^(-l/2) also lowers the GIG order by l/2.

    No block is gathered or factored (Wang 2012, "Bayesian graphical lasso
    models and efficient posterior computation", Bayesian Analysis 7(4)).
    With w = Omega[:, j] of the carried Omega, Sigma11^-1 = Omega11 - w w'/w_j
    and the current v = 1/w_j; Sigma11^-1 is held as the p x p matrix
    K = Omega - w w'/w_j with row and column j zero.  Column j's precision
    w_j K S K + lam K + diag(prior) is built in one Fortran-ordered buffer,
    held per chain with the other scratch arrays, and factored in place.
    Its coordinate j is uncoupled from the others, and what it draws is set
    to zero.  Then t = K u with t[j] = -1 gives the GIG quadratic t' S t
    and Sigma*[j, j] = v + u' t, and one rank-one
    update K + t t'/v rebuilds the whole of Omega, row and column j
    included: Omega11 = K + t t'/v, Omega[rest, j] = -t/v and
    Omega[j, j] = 1/v.  After the last column one Cholesky factor of Sigma*
    refreshes Omega and log|Sigma*|, so rounding drift never outlives a
    sweep, and a Sigma* that is not positive definite raises NumericalError.
    """
    params, latent = state.params, state.latent
    p = params.p
    n = stats.dims.n
    lam = hyper.lam
    resid = residual_scatter(params, stats)  # n R Theta'
    # The log-likelihood is a constant minus (sum(Omega o resid) + n log|Sigma*|) / 2.
    before = float(np.vdot(state.omega, resid)) + n * state.logdet_sigma
    # C's prior MN(0, Sigma*, tau_c I) adds C C'/tau_c to S and |Sigma*|^(-l/2) to the likelihood's ^(-n/2).
    scatter = resid + params.c @ params.c.T / hyper.tau_c
    order = 1.0 - (n + stats.dims.l) / 2.0
    sigma = params.sigma_star

    prior_prec = np.where(latent.z == 1, 1.0 / hyper.omega1**2, 1.0 / hyper.omega2**2)
    # With K's row and column j zero, this makes coordinate j of column j's
    # precision one and uncoupled from the others, so it cannot move them.
    prior_prec.ravel()[:: p + 1] = 1.0
    k_mat = state.omega  # K while column j is drawn, Omega again after it
    # Entry j of the normals feeds only the uncoupled coordinate, so a draw left there from before is harmless.
    scratch = state.per_chain("sigma_columns", stats, (), lambda: _sigma_scratch(p))
    k_s, k_s_diagonal, u_prec, diagonal, normals = scratch
    for j in range(p):
        w = k_mat[:, j].copy()
        w_jj = float(w[j])  # 1 / the current v
        _add_outer(k_mat, -1.0 / w_jj, w, w)
        k_mat[:, j] = 0.0
        k_mat[j, :] = 0.0
        np.matmul(k_mat, scatter, out=k_s)
        k_s *= w_jj
        linear = k_s[:, j].copy()
        k_s_diagonal += lam
        np.matmul(k_s, k_mat, out=u_prec)  # (w_j K S + lam I) K
        diagonal += prior_prec[:, j]
        drawn = rng.standard_normal(p - 1)
        normals[:j], normals[j + 1 :] = drawn[:j], drawn[j:]
        # _draw_gaussian factors the lower triangle only, so u_prec needs no symmetrizing.
        u = _draw_gaussian(u_prec, linear, normals, "error-covariance column precision")
        u[j] = 0.0

        t = k_mat @ u
        t[j] = -1.0
        quad = float(t @ (scatter @ t))
        if quad <= GIG_QUAD_FLOOR:
            logger.warning("GIG quadratic argument %.3e clamped to floor", quad)
            quad = GIG_QUAD_FLOOR
        v_new = sample_gig(GigParams(order, lam, quad), rng)

        sigma[:, j] = u
        sigma[j, :] = u
        sigma[j, j] = v_new + float(u @ t)
        _add_outer(k_mat, 1.0 / v_new, t, t)

    state.refresh_precision()
    after = float(np.vdot(state.omega, resid)) + n * state.logdet_sigma
    state.log_lik -= 0.5 * (after - before)
    logabsdet_i_minus_a(params.a)  # raises NumericalError on a singular (I - A)
    if not math.isfinite(state.log_lik):
        raise NumericalError("non-finite log-likelihood after the blocked Gibbs sweep")


def _sigma_scratch(p):
    """Step 11's buffers K S and column precision, each with a view of its diagonal, and its normals."""
    k_s, u_prec = np.empty((p, p)), np.empty((p, p), order="F")
    return k_s, k_s.ravel()[:: p + 1], u_prec, u_prec.ravel(order="F")[:: p + 1], np.zeros(p)


def initial_state(stats: SummaryStatistics, hyper: Hyperparameters, fixed_b_support=None) -> ChainState:
    """Deterministic starting point inside the support with finite likelihood.

    A and C start at zero; B starts at a per-equation ridge regression on
    its support columns in fixed-map mode and at zero in selection mode;
    Sigma* starts as the diagonal of the per-trait residual second moments.
    """
    dims = stats.dims
    p, k, l = dims.p, dims.k, dims.l
    b0 = np.zeros((p, k))
    if hyper.instrument_mode == FIXED_MAP:
        if fixed_b_support is None:
            raise ValueError("fixed-map mode requires fixed_b_support")
        support = np.asarray(fixed_b_support, dtype=int)
        if support.shape != (p, k):
            raise ValueError(f"fixed_b_support has shape {support.shape}, expected {(p, k)}")
        for j in range(p):
            cols = np.flatnonzero(support[j])
            if cols.size:
                gram = stats.s_xx[np.ix_(cols, cols)] + 1e-3 * np.eye(cols.size)
                b0[j, cols] = np.linalg.solve(gram, stats.s_yx[j, cols])
        phi0 = support.copy()
    else:
        phi0 = np.ones((p, k), dtype=int)

    params = ModelParameters(a=np.zeros((p, p)), b=b0, c=np.zeros((p, l)), sigma_star=np.eye(p))
    scatter0 = residual_scatter(params, stats) / dims.n
    params.sigma_star = np.diag(np.maximum(np.diag(scatter0), 1e-8))

    latent = LatentState(
        gamma=(1 - np.eye(p, dtype=int)),
        rho=np.full((p, p), 0.5),
        tau=np.ones((p, p)),
        phi=phi0,
        psi=np.full((p, k), 0.5),
        eta=np.ones((p, k)),
        z=np.ones((p, p), dtype=int),
    )
    state = ChainState(params=params, latent=latent, log_lik=log_likelihood_summary(params, stats))
    if not math.isfinite(state.log_lik):
        raise NumericalError("non-finite log-likelihood at initialization")
    return state


def _check_log_lik(state: ChainState, stats: SummaryStatistics):
    """Replace the cached log-likelihood by a fresh one; both must be finite and agree to 1e-8 relative."""
    fresh = log_likelihood_summary(state.params, stats)
    # A non-finite cache fails the comparison; a non-finite fresh value could pass it.
    if not (math.isfinite(fresh) and abs(fresh - state.log_lik) <= 1e-8 * max(1.0, abs(fresh))):
        raise NumericalError(f"cached log-likelihood diverged: cached {state.log_lik!r}, fresh {fresh!r}")
    state.log_lik = fresh


def mcmc_sweep(state, stats, hyper, rng):
    """One full pass over the eleven updates; returns (accepted, proposed) for A, then B.

    Steps 4, 8, 9 and 11 advance the cached log-likelihood by their exact
    increments; none of them computes a fresh one.
    """
    selection = hyper.instrument_mode == SELECTION
    if selection:
        update_psi(state, hyper, rng)
        update_eta(state, hyper, rng)
        update_phi(state, hyper, rng)
    acc_b, tot_b = update_b(state, stats, hyper, rng)
    update_rho(state, hyper, rng)
    update_tau(state, hyper, rng)
    update_gamma(state, hyper, rng)
    acc_a, tot_a = update_a(state, stats, hyper, rng)
    update_c(state, stats, hyper, rng)
    update_z(state, hyper, rng)
    update_sigma_star(state, stats, hyper, rng)
    return acc_a, tot_a, acc_b, tot_b


def run_chain(stats: SummaryStatistics, config: McmcConfig) -> Chain:
    """Run the full kernel and collect thinned post-burn-in samples.

    Fully deterministic given config.seed.  After every LOG_LIK_CHECK_EVERY-th
    sweep, and after the last sweep, the cached log-likelihood is replaced by
    a fresh one; the two must be finite and agree to 1e-8 relative, or
    NumericalError is raised.  A NumericalError or ValueError from a sweep or
    a check (a sampler meeting a NaN) is raised again as a NumericalError
    with its iteration in front of the message.  Samples of the SAMPLED
    arrays are kept every config.thin sweeps after burn-in.

    sigma_min_eig holds the smallest eigenvalue of every sweep's Sigma*.
    No step reads it, so each sweep only copies Sigma* into a block of
    MIN_EIG_BLOCK slots; one eigvalsh call fills each full block's values,
    and one more those of the partial block left after the last sweep.
    """
    hyper = config.hyper
    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = initial_state(stats, hyper, config.fixed_b_support)

    # (destination, owner, attribute): the steps may replace an array, so it is looked up at every kept sweep.
    n_keep = -(-(config.iterations - config.burn_in) // config.thin)
    sources = []
    for name in SAMPLED:
        owner = state.latent if name in INDICATORS else state.params
        shape = getattr(owner, name).shape
        sources.append((np.empty((n_keep, *shape), dtype=np.int8 if name in INDICATORS else float), owner, name))
    loglik = np.empty(config.iterations)
    min_eig = np.empty(config.iterations)
    burn_in, thin, params = config.burn_in, config.thin, state.params
    sigma_block = np.empty((MIN_EIG_BLOCK, *params.sigma_star.shape))

    acc_a_post = tot_a_post = acc_b_post = tot_b_post = 0
    stored = 0

    try:
        for it in range(1, config.iterations + 1):
            state.iteration = it
            acc_a, tot_a, acc_b, tot_b = mcmc_sweep(state, stats, hyper, rng)
            if it % LOG_LIK_CHECK_EVERY == 0:
                _check_log_lik(state, stats)
            loglik[it - 1] = state.log_lik
            slot = (it - 1) % MIN_EIG_BLOCK
            sigma_block[slot] = params.sigma_star
            if slot == MIN_EIG_BLOCK - 1:
                min_eig[it - MIN_EIG_BLOCK : it] = np.linalg.eigvalsh(sigma_block)[:, 0]  # eigenvalues ascend

            if it > burn_in:
                acc_a_post += acc_a
                tot_a_post += tot_a
                acc_b_post += acc_b
                tot_b_post += tot_b
                if (it - burn_in - 1) % thin == 0:
                    for kept, owner, name in sources:
                        kept[stored] = getattr(owner, name)
                    stored += 1
        # Check the sweeps since the last periodic check too; loglik already holds their cached values.
        if config.iterations % LOG_LIK_CHECK_EVERY:
            _check_log_lik(state, stats)
    except (NumericalError, ValueError) as exc:  # inputs were checked before the first sweep
        raise NumericalError(f"iteration {state.iteration}: {exc}") from exc
    filled = config.iterations % MIN_EIG_BLOCK
    if filled:
        min_eig[-filled:] = np.linalg.eigvalsh(sigma_block[:filled])[:, 0]

    return Chain(
        **{name: kept[:stored] for kept, _, name in sources},
        loglik=loglik,
        sigma_min_eig=min_eig,
        accept_rate_a=acc_a_post / tot_a_post if tot_a_post else float("nan"),
        accept_rate_b=acc_b_post / tot_b_post if tot_b_post else float("nan"),
        config=config,
    )
