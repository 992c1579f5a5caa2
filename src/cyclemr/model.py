"""Cyclic structural equation model: domain types and likelihood evaluators.

The model is Y = A Y + B X + C U + E*, with E* ~ N(0, Sigma*), so that
(I - A) Y = B X + C U + E*.  Both the raw-data and the summary-statistics
form of the conditional log-likelihood are provided; they agree exactly
whenever the summary statistics were computed from the raw data.
The summary form reads the data only through R = Theta J (residual_moments),
with Theta = [I - A, -B, -C] and J the joint second-moment matrix of (y, x, u).
MOMENT_BLOCKS names the six blocks of J, and moment_shapes gives their shapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgetrf, dpotrf, dpotrs

LOG_2PI = math.log(2.0 * math.pi)

# Pivot magnitudes below this are treated as a singular (I - A).
SINGULAR_PIVOT_TOL = 1e-12

# Relative tolerance of SummaryStatistics' symmetry and positive-semidefiniteness checks.
MOMENT_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """A matrix block has an inconsistent shape; the message names the block."""


class NumericalError(ArithmeticError):
    """A numerically invalid state, such as a singular (I - A) or a covariance that is not positive definite."""


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: p traits, k instruments, l covariates, n samples."""

    p: int
    k: int
    l: int
    n: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"trait count p must be >= 1, got {self.p}")
        if self.n < 1:
            raise ValueError(f"sample size n must be >= 1, got {self.n}")
        if self.k < 0 or self.l < 0:
            raise ValueError(f"instrument/covariate counts must be >= 0, got k={self.k}, l={self.l}")


# The second-moment blocks in stats.json and joint-matrix order: s_ab holds
# E[a b'] for a, b among the traits y, the instruments x and the covariates u.
MOMENT_BLOCKS = ("s_yy", "s_yx", "s_yu", "s_xx", "s_xu", "s_uu")


def moment_shapes(dims):
    """The shape of each block of MOMENT_BLOCKS, by name: s_ab has one row per a and one column per b."""
    size = {"y": dims.p, "x": dims.k, "u": dims.l}
    return {name: (size[name[2]], size[name[3]]) for name in MOMENT_BLOCKS}


def indicator_matrix(value, name):
    """value as an int matrix: it must be 2-D, of numbers or bools, with every entry 0 or 1."""
    arr = np.asarray(value)
    if arr.ndim != 2 or arr.dtype.kind not in "biuf" or not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be a matrix of zeros and ones")
    return arr.astype(int)


@dataclass(frozen=True)
class SummaryStatistics:
    """The six empirical second-moment blocks, the sample size and the joint matrix, all read-only.

    Blocks are 1/n-scaled raw (uncentered) cross moments; data are assumed
    to be centered by the caller, since the model carries no intercept.
    Building them raises ValueError unless every block has its shape and
    finite entries, the square blocks are symmetric and joint is PSD.
    """

    s_yy: np.ndarray
    s_yx: np.ndarray
    s_yu: np.ndarray
    s_xx: np.ndarray
    s_xu: np.ndarray
    s_uu: np.ndarray
    dims: Dimensions
    joint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Copies, so that no caller's array aliases a block and drifts from joint.
        blocks = {name: np.array(getattr(self, name), dtype=float) for name in MOMENT_BLOCKS}
        for name, shape in moment_shapes(self.dims).items():
            if blocks[name].shape != shape:
                raise DimensionMismatchError(f"{name} has shape {blocks[name].shape}, expected {shape}")
        for name, block in blocks.items():
            if not np.isfinite(block).all():
                raise ValueError(f"{name} has a non-finite entry")
            if name[2] == name[3] and not np.allclose(block, block.T, atol=MOMENT_TOL, rtol=MOMENT_TOL):
                raise ValueError(f"{name} is not symmetric")
            block.setflags(write=False)
            object.__setattr__(self, name, block)
        joint = np.block([[self.s_yy, self.s_yx, self.s_yu], [self.s_yx.T, self.s_xx, self.s_xu],
                          [self.s_yu.T, self.s_xu.T, self.s_uu]])
        min_eig = float(np.linalg.eigvalsh(joint).min())  # joint is at least 1 x 1, since p >= 1
        if min_eig < -MOMENT_TOL * max(1.0, float(np.abs(np.diag(joint)).max())):
            raise ValueError(f"joint second-moment matrix has eigenvalue {min_eig:.3e} < 0")
        joint.setflags(write=False)
        object.__setattr__(self, "joint", joint)


@dataclass
class ModelParameters:
    """Causal effects A, instrument effects B, covariate effects C, error covariance Sigma*."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    sigma_star: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.sigma_star = np.asarray(self.sigma_star, dtype=float)

    @property
    def p(self):
        return self.a.shape[0]


@dataclass
class RawDataSet:
    """Individual-level data: traits Y (n x p), instruments X (n x k), covariates U (n x l)."""

    y: np.ndarray
    x: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.u = np.atleast_2d(np.asarray(self.u, dtype=float))
        n = self.y.shape[0]
        if self.x.size == 0:
            self.x = self.x.reshape(n, -1)
        if self.u.size == 0:
            self.u = self.u.reshape(n, -1)

    @property
    def dims(self):
        n, p = self.y.shape
        if self.x.shape[0] != n:
            raise DimensionMismatchError(f"X has {self.x.shape[0]} rows, Y has {n}")
        if self.u.shape[0] != n:
            raise DimensionMismatchError(f"U has {self.u.shape[0]} rows, Y has {n}")
        return Dimensions(p=p, k=self.x.shape[1], l=self.u.shape[1], n=n)


@functools.lru_cache(maxsize=None)
def _identity(p):
    """The read-only p x p identity, built once per size."""
    identity = np.eye(p)
    identity.setflags(write=False)
    return identity


def logabsdet_i_minus_a(a):
    """log|det(I - A)| via LU with absolute-value pivot accumulation.

    Raises NumericalError when any pivot magnitude falls below SINGULAR_PIVOT_TOL.
    """
    # LAPACK getrf, as in scipy.linalg.lu_factor; an exact zero pivot is handled below.
    lu, _, _ = dgetrf(_identity(a.shape[0]) - a)
    pivots = np.abs(lu.diagonal())
    if pivots.min(initial=1.0) < SINGULAR_PIVOT_TOL:
        raise NumericalError("(I - A) is singular")
    return float(np.log(pivots).sum())


def _chol_lower(sigma, what="matrix", overwrite=False, clean=True):
    """Lower Cholesky factor of a symmetric matrix; NumericalError("{what} is not positive definite") if it is not PD.

    LAPACK is called directly: scipy.linalg.cholesky runs the same routine,
    but at these sizes its argument handling costs more than the factorization.
    With overwrite, a Fortran-ordered sigma is factored in place and returned.
    dpotrf reads only the lower triangle of sigma.  With clean, the factor's
    strict upper triangle is zeroed, as a full matrix product of the factor
    needs; without it, that triangle keeps what sigma held there, so only a
    reader of the lower triangle alone, such as dtrtrs(lower=1), may use it.
    """
    chol, info = dpotrf(sigma, lower=1, clean=clean, overwrite_a=overwrite)
    if info:
        raise NumericalError(f"{what} is not positive definite")
    return chol


def _chol_inverse(chol_l):
    """Invert a matrix from its lower Cholesky factor (LAPACK potrs, as scipy.linalg.cho_solve)."""
    inverse, _ = dpotrs(chol_l, _identity(chol_l.shape[0]), lower=1)  # solves into a copy
    return inverse


def _chol_logdet(chol_l):
    """log det of a matrix from its lower Cholesky factor."""
    return 2.0 * float(np.log(chol_l.diagonal()).sum())


def compute_sufficient_stats(data: RawDataSet) -> SummaryStatistics:
    """All six 1/n-scaled second-moment blocks of (Y, X, U), uncentered (see SummaryStatistics)."""
    dims = data.dims
    columns = {"y": data.y, "x": data.x, "u": data.u}
    blocks = {name: columns[name[2]].T @ columns[name[3]] / dims.n for name in MOMENT_BLOCKS}
    return SummaryStatistics(**blocks, dims=dims)


def log_likelihood_raw(params: ModelParameters, data: RawDataSet) -> float:
    """Sum of per-sample Gaussian log-densities of (I-A)y - Bx - Cu, plus the Jacobian term.

    Raises NumericalError on a singular (I - A) or a Sigma* that is not positive definite.
    """
    dims = data.dims
    p, n = dims.p, dims.n
    ld_f = logabsdet_i_minus_a(params.a)
    chol = _chol_lower(params.sigma_star, "Sigma*")
    f = np.eye(p) - params.a
    resid = data.y @ f.T - data.x @ params.b.T - data.u @ params.c.T
    # Solve L w = resid^T so that the quadratic form is ||w||^2 per sample.
    w = scipy.linalg.solve_triangular(chol, resid.T, lower=True, check_finite=False)
    quad = float(np.sum(w * w))
    return -0.5 * n * p * LOG_2PI - 0.5 * n * _chol_logdet(chol) + n * ld_f - 0.5 * quad


def residual_moments(params: ModelParameters, stats: SummaryStatistics, cols=slice(None)):
    """(R, Theta): R = Theta J[:, cols] holds the moments of the residual e = Theta (y, x, u).

    Columns [0, p) of J are y, [p, p+k) x and [p+k, p+k+l) u; R Theta' is E[e e'].
    """
    # -[A, B, C] with one added along the diagonal of its leading p x p block: one allocation, no np.eye.
    theta = -np.concatenate((params.a, params.b, params.c), axis=1)
    theta.ravel()[:: theta.shape[1] + 1] += 1.0
    return theta @ stats.joint[:, cols], theta


def log_likelihood_summary(params: ModelParameters, stats: SummaryStatistics) -> float:
    """Summary-statistics form of the conditional log-likelihood.

    Equals log_likelihood_raw on the data that produced the statistics.
    Raises NumericalError on a singular (I - A) or a Sigma* that is not positive definite.
    """
    dims = stats.dims
    p, n = dims.p, dims.n
    ld_f = logabsdet_i_minus_a(params.a)
    chol = _chol_lower(params.sigma_star, "Sigma*")
    # The per-sample quadratic Q = tr(Sigma*^{-1} R Theta').
    r, theta = residual_moments(params, stats)
    q = float(np.sum(_chol_inverse(chol) * (r @ theta.T)))
    return -0.5 * n * p * LOG_2PI - 0.5 * n * _chol_logdet(chol) + n * ld_f - 0.5 * n * q


def residual_scatter(params: ModelParameters, stats: SummaryStatistics) -> np.ndarray:
    """The likelihood's residual scatter n R Theta', symmetrized, with R and Theta from residual_moments.

    On the data that produced the statistics it equals E'E for the raw
    residuals E = Y (I - A)' - X B' - U C'.
    """
    r, theta = residual_moments(params, stats)
    scatter = stats.dims.n * (r @ theta.T)
    return 0.5 * (scatter + scatter.T)


def reduced_form(params: ModelParameters):
    """Reduced-form coefficients and marginal covariance.

    Returns (GX, GU, V) with GX = (I-A)^{-1} B, GU = (I-A)^{-1} C and
    V = (I-A)^{-1} Sigma* (I-A)^{-T}.  Raises on singular (I - A).
    """
    p = params.p
    # One LU of I - A, checked as logabsdet_i_minus_a checks its own.
    lu, piv, _ = dgetrf(np.eye(p) - params.a)
    if np.abs(lu.diagonal()).min() < SINGULAR_PIVOT_TOL:
        raise NumericalError("(I - A) is singular; no reduced form exists")
    gx = scipy.linalg.lu_solve((lu, piv), params.b, check_finite=False)
    gu = scipy.linalg.lu_solve((lu, piv), params.c, check_finite=False)
    f_inv = scipy.linalg.lu_solve((lu, piv), np.eye(p), check_finite=False)
    v = f_inv @ params.sigma_star @ f_inv.T
    return gx, gu, 0.5 * (v + v.T)
