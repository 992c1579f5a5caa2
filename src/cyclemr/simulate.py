"""Ground-truth network generators and synthetic data for the simulation study.

Three scenarios: scale-free graphs with feedback loops (I), small-world
graphs with feedback loops (II), and small-world graphs with added
horizontal pleiotropy through shared instruments (III).  All scenarios
include unmeasured confounding through sign-valued loadings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx
import numpy as np
import scipy.linalg

from .model import RawDataSet

CASES = ("I", "II", "III")

INSTRUMENTS_PER_TRAIT = 3
NOISE_VARIANCE = 9.0
# Causal effects are 0.1 in magnitude with random sign.  The reported
# recovery rates (graph AUC near 1 by n = 10^4 with zero false-discovery
# rate) are only attainable when effect magnitudes stay bounded away from
# zero; interval-uniform draws would leave a fifth of the edges below the
# n = 10^4 detection scale.
EFFECT_MAGNITUDE = 0.1
# Probability that a skeleton edge becomes a two-cycle.
RECIPROCAL_PROB = 0.2
MIN_DET = 1e-6


@dataclass(frozen=True)
class CaseSpec:
    """One simulation scenario: case label, trait count, sample size, confounders, seed."""

    case: str
    p: int
    n: int
    t: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {self.case!r}")
        if self.p < 2:
            raise ValueError("at least two traits are required")
        if self.n < 1:
            raise ValueError("sample size must be positive")


@dataclass
class SimulationTruth:
    """Ground truth for one replicate: effects, instrument map, confounding."""

    a_true: np.ndarray
    b_support: np.ndarray
    b_true: np.ndarray
    d: np.ndarray
    sigma_noise: np.ndarray
    t: int
    graph_truth: np.ndarray
    confounding_truth: np.ndarray
    case: str


def _skeleton(case, p, seed):
    """Undirected skeleton: preferential attachment (I) or ring lattice with rewiring (II/III)."""
    if p == 2:
        return [(0, 1)]
    if case == "I":
        m = min(2, p - 1)
        graph = nx.barabasi_albert_graph(p, m, seed=seed)
    else:
        graph = nx.watts_strogatz_graph(p, 2, 0.1, seed=seed)
    return list(graph.edges())


def gen_graph(case, p, seed):
    """Directed adjacency with at least one two-cycle; adj[j, h] = 1 means h -> j.

    Each undirected skeleton edge gets a random direction and becomes
    reciprocal with probability RECIPROCAL_PROB; generation is repeated until a
    reciprocal pair exists.  For p = 2 the single edge is forced reciprocal.
    """
    if p < 2:
        raise ValueError("a directed cycle needs at least two traits")
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        adj = np.zeros((p, p), dtype=int)
        edges = _skeleton(case, p, int(rng.integers(2**31 - 1)))
        for i, j in edges:
            if rng.random() < 0.5:
                src, dst = i, j
            else:
                src, dst = j, i
            adj[dst, src] = 1
            if p == 2 or rng.random() < RECIPROCAL_PROB:
                adj[src, dst] = 1
        if np.any(adj * adj.T * (1 - np.eye(p, dtype=int))):
            return adj


def _draw_effects(adj, rng):
    """Effect sizes on the graph support, resampled until (I - A) is safely invertible."""
    p = adj.shape[0]
    while True:
        a = rng.choice([-EFFECT_MAGNITUDE, EFFECT_MAGNITUDE], size=(p, p)) * adj
        np.fill_diagonal(a, 0.0)
        f = np.eye(p) - a
        if abs(np.linalg.det(f)) > MIN_DET and np.max(np.abs(np.linalg.eigvals(a))) < 1.0:
            return a


def _instrument_support(case, p):
    k = INSTRUMENTS_PER_TRAIT * p + (p - 1 if case == "III" else 0)
    support = np.zeros((p, k), dtype=int)
    for j in range(p):
        support[j, INSTRUMENTS_PER_TRAIT * j : INSTRUMENTS_PER_TRAIT * (j + 1)] = 1
    if case == "III":
        for i in range(p - 1):
            col = INSTRUMENTS_PER_TRAIT * p + i
            support[i, col] = 1
            support[i + 1, col] = 1
    return support


def confounding_truth(d, sigma_noise):
    """Binary confounding mask from the true error covariance D D' + Sigma.

    Absolute off-diagonal values are min-max normalized to [0, 1] and
    thresholded strictly at their mean.  Degenerate all-equal values count
    as edges when positive and as non-edges when zero.
    """
    sigma_true = d @ d.T + sigma_noise
    p = sigma_true.shape[0]
    mask = np.zeros((p, p), dtype=int)
    iu = np.triu_indices(p, 1)
    vals = np.abs(sigma_true[iu])
    if vals.size == 0:
        return mask
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        edges = np.full(vals.shape, hi > 0)
    else:
        norm = (vals - lo) / (hi - lo)
        edges = norm > norm.mean()
    mask[iu] = edges
    mask.T[iu] = edges
    return mask


def gen_truth(spec: CaseSpec) -> SimulationTruth:
    """Ground-truth effects, instrument map, and confounding for one scenario."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    adj = gen_graph(spec.case, spec.p, int(rng.integers(2**31 - 1)))
    a_true = _draw_effects(adj, rng)
    support = _instrument_support(spec.case, spec.p)
    t = spec.t if spec.t is not None else math.ceil(spec.p / 2)
    d = np.zeros((spec.p, t))
    for col in range(t):
        size = int(rng.integers(2, 4))
        size = min(size, spec.p)
        rows = rng.choice(spec.p, size=size, replace=False)
        d[rows, col] = rng.choice([-1.0, 1.0], size=size)
    sigma_noise = NOISE_VARIANCE * np.eye(spec.p)
    return SimulationTruth(
        a_true=a_true,
        b_support=support,
        b_true=support.astype(float),
        d=d,
        sigma_noise=sigma_noise,
        t=t,
        graph_truth=adj.copy(),
        confounding_truth=confounding_truth(d, sigma_noise),
        case=spec.case,
    )


def gen_data(truth: SimulationTruth, n, seed) -> RawDataSet:
    """Simulate instruments, confounders, and traits through the reduced form.

    X and W are iid standard normal, errors have the configured diagonal
    covariance, and Y solves (I - A) Y = B X + D W + E.  No observed
    covariates are generated.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    p = truth.a_true.shape[0]
    k = truth.b_support.shape[1]
    x = rng.standard_normal((n, k))
    w = rng.standard_normal((n, truth.t))
    errs = rng.standard_normal((n, p)) * np.sqrt(np.diag(truth.sigma_noise))[None, :]
    rhs = x @ truth.b_true.T + w @ truth.d.T + errs
    f = np.eye(p) - truth.a_true
    y = scipy.linalg.solve(f, rhs.T, check_finite=False).T
    return RawDataSet(y=y, x=x, u=np.zeros((n, 0)))
