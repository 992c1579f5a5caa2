"""Inputs and fit settings of the three benchmark workloads.

Each workload turns the benchmark seed into one simulated data set, writes
the files ``cyclemr fit`` reads (``stats.json``, the instrument map CSV and
one config document per chain) and keeps the simulation truth in memory
for the output checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from cyclemr.io import stats_to_dict, write_json, write_matrix
from cyclemr.model import RawDataSet, compute_sufficient_stats
from cyclemr.simulate import CaseSpec, gen_truth

N_SAMPLES = 30_000
# The network, its effects and the confounding come from this fixed seed,
# so each workload fits one reference problem, the one its output-check
# bounds were set on; the benchmark seed draws the data and the chains.
TRUTH_SEED = 1
COVARIATES = 2
# Covariate effects are drawn as +-COVARIATE_EFFECT, half an instrument
# effect (B entries are 1), so C is well identified at n = 3e4.
COVARIATE_EFFECT = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    case: str
    p: int
    covariates: int
    mode: str  # the `cyclemr fit --mode` value
    iterations: int
    burn_in: int
    thin: int


# Chain lengths keep one fit near 5 s (12 s for selection-p20) on a 2-core
# Xeon, so a 30 s run holds about six chains (three) and the R-hat check
# always sees at least two.  Burn-in is a fifth to a quarter of each chain.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fixedmap-p10", "I", 10, 0, "rgm", 1500, 300, 2),
        Workload("selection-p20", "III", 20, 0, "rgm-plus", 600, 150, 2),
        Workload("covariates-p3", "II", 3, COVARIATES, "rgm", 3000, 600, 2),
    )
}


@dataclass
class Inputs:
    stats_path: Path
    support_path: Path
    truth: object  # cyclemr.simulate.SimulationTruth
    c_true: np.ndarray  # (p, l) covariate effects; (p, 0) without covariates
    raw: RawDataSet


def simulate(workload: Workload, data_seed: int) -> tuple[object, np.ndarray, RawDataSet]:
    """Truth and raw data; with covariates, Y solves (I - A) Y = B X + C U + D W + E.

    This is the simulator's own data model with an added C U term: X, W
    and U are iid standard normal, E has the simulator's noise variance.
    """
    truth = gen_truth(CaseSpec(case=workload.case, p=workload.p, n=N_SAMPLES, seed=TRUTH_SEED))
    rng = np.random.Generator(np.random.PCG64(data_seed))
    p, k, l, n = workload.p, truth.b_support.shape[1], workload.covariates, N_SAMPLES
    x = rng.standard_normal((n, k))
    w = rng.standard_normal((n, truth.t))
    u = rng.standard_normal((n, l))
    c_true = COVARIATE_EFFECT * rng.choice([-1.0, 1.0], size=(p, l))
    errs = rng.standard_normal((n, p)) * np.sqrt(np.diag(truth.sigma_noise))
    rhs = x @ truth.b_true.T + u @ c_true.T + w @ truth.d.T + errs
    y = scipy.linalg.solve(np.eye(p) - truth.a_true, rhs.T, check_finite=False).T
    return truth, c_true, RawDataSet(y=y, x=x, u=u)


def prepare(workload: Workload, data_seed: int, out_dir: Path) -> Inputs:
    """Simulate the workload's data and write the files the fit reads."""
    truth, c_true, raw = simulate(workload, data_seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "stats.json"
    support_path = out_dir / "B_support.csv"
    write_json(stats_path, stats_to_dict(compute_sufficient_stats(raw)))
    write_matrix(support_path, truth.b_support, "B_support")
    return Inputs(stats_path, support_path, truth, c_true, raw)


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    write_json(
        path,
        {
            "iterations": workload.iterations,
            "burn_in": workload.burn_in,
            "thin": workload.thin,
            "seed": seed,
        },
    )
    return path


def fit_argv(workload: Workload, inputs: Inputs, config_path: Path, out_dir: Path) -> list[str]:
    argv = ["fit", "--stats", str(inputs.stats_path), "--config", str(config_path), "--out", str(out_dir)]
    argv += ["--mode", workload.mode]
    if workload.mode == "rgm":
        argv += ["--b-support", str(inputs.support_path)]
    return argv
