"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is
pinned here; seeds are fixed so results are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import kv

from cyclemr.baselines import baseline_effects, tsls_pair
from cyclemr.cli import main as cli_main
from cyclemr.distributions import GigParams, draw_matrix_normal, sample_beta, sample_gig, sample_inverse_gamma
from cyclemr.mcmc import FIXED_MAP, SELECTION, Hyperparameters, McmcConfig, run_chain
from cyclemr.metrics import evaluate_fit
from cyclemr.model import (
    RawDataSet,
    _chol_lower,
    compute_sufficient_stats,
    log_likelihood_raw,
    log_likelihood_summary,
)
from cyclemr.simulate import CaseSpec, gen_data, gen_truth
from cyclemr.summary import summarize

from geweke import geweke_fixed_map_test, geweke_micro_test
from test_model import random_instance


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _fit_replicate(case, mode, master_seed, rep, iterations=20_000, burn_in=5_000, p=5, n=10_000):
    truth = gen_truth(CaseSpec(case=case, p=p, n=n, seed=master_seed + rep))
    data = gen_data(truth, n, master_seed + 1_000 + rep)
    stats = compute_sufficient_stats(data)
    config = McmcConfig(
        iterations=iterations,
        burn_in=burn_in,
        thin=10,
        seed=master_seed + 2_000 + rep,
        hyper=Hyperparameters(instrument_mode=mode),
        fixed_b_support=truth.b_support if mode == FIXED_MAP else None,
    )
    chain = run_chain(stats, config)
    return evaluate_fit(summarize(chain), truth), chain


class TestAcceptance:
    def test_criterion_1_likelihood_oracle(self):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(200):
            params, data = random_instance(rng)
            stats = compute_sufficient_stats(data)
            raw = log_likelihood_raw(params, data)
            summ = log_likelihood_summary(params, stats)
            worst = max(worst, abs(summ - raw) / max(1.0, abs(raw)))
        elapsed = time.monotonic() - started
        _report(
            1,
            "summary and raw log-likelihoods agree to 1e-8 over 200 instances",
            worst <= 1e-8 and elapsed < 10.0,
            f"worst rel diff {worst:.2e}, {elapsed:.1f}s",
        )

    def test_criterion_2_distribution_moments(self):
        started = time.monotonic()
        size = 100_000
        failures = []

        for p_order in (-5.0, -1.0, -0.5, 0.5, 1.0, 5.0):
            for a in (0.5, 2.0, 10.0):
                for b in (0.5, 2.0, 10.0):
                    rng = np.random.default_rng(hash((p_order, a, b)) % 2**32)
                    params = GigParams(p_order=p_order, a=a, b=b)
                    draws = np.array([sample_gig(params, rng) for _ in range(size)])
                    omega = math.sqrt(a * b)
                    scale = math.sqrt(b / a)
                    for moment in (1, 2):
                        expected = scale**moment * kv(p_order + moment, omega) / kv(p_order, omega)
                        second = scale ** (2 * moment) * kv(p_order + 2 * moment, omega) / kv(p_order, omega)
                        se = math.sqrt(max(second - expected**2, 1e-300) / size)
                        err = abs((draws**moment).mean() - expected)
                        if err >= 4 * se:
                            failures.append(("gig", p_order, a, b, moment, err / se))

        rng = np.random.default_rng(202)
        ig = sample_inverse_gamma(3.0, np.full(size, 2.0), rng)
        ig_mean, ig_var = 1.0, 1.0  # scale/(shape-1), scale^2/((shape-1)^2 (shape-2))
        if abs(ig.mean() - ig_mean) >= 4 * math.sqrt(ig_var / size):
            failures.append(("invgamma",))

        beta = sample_beta(np.full(size, 2.0), np.full(size, 3.0), rng)
        beta_se = math.sqrt(0.4 * 0.6 / (6.0 * size))
        if abs(beta.mean() - 0.4) >= 4 * beta_se:
            failures.append(("beta",))

        row_cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        l_row, l_col = _chol_lower(row_cov), _chol_lower(np.eye(1))
        mn = np.stack([draw_matrix_normal(np.zeros((2, 1)), l_row, l_col, rng)[:, 0] for _ in range(size)])
        emp = np.cov(mn.T, bias=True)
        if np.any(np.abs(emp - row_cov) >= 4 * 3.0 / math.sqrt(size)):
            failures.append(("matrix-normal",))

        elapsed = time.monotonic() - started
        _report(
            2,
            "GIG/inverse-gamma/Beta/matrix-normal moments within 4 SE at 1e5 draws",
            not failures and elapsed < 60.0,
            f"failures={failures!r}, {elapsed:.1f}s",
        )

    def test_criterion_3_geweke_joint_distribution(self):
        started = time.monotonic()
        zs = geweke_micro_test(total_sweeps=50_000, chain_length=10, seed=303, n=30)
        elapsed = time.monotonic() - started
        worst = float(np.abs(zs).max())
        _report(
            3,
            "marginal- vs successive-conditional moments agree within 4 SE",
            worst < 4.0 and elapsed < 300.0,
            f"max |z| {worst:.2f} over {zs.size} comparisons, {elapsed:.0f}s",
        )

    def test_criterion_3_geweke_selection_with_a_covariate(self):
        started = time.monotonic()
        zs = geweke_micro_test(total_sweeps=50_000, chain_length=10, seed=2026, n=30, p=3, k=2, l=1, tau_c=1.0)
        elapsed = time.monotonic() - started
        worst = float(np.abs(zs).max())
        _report(
            3,
            "selection, p=3, l=1: marginal- vs successive-conditional moments agree within 4 SE",
            worst < 4.0 and elapsed < 300.0,
            f"max |z| {worst:.2f} over {zs.size} comparisons, {elapsed:.0f}s",
        )

    def test_criterion_3_geweke_fixed_map_with_covariates(self):
        started = time.monotonic()
        zs = geweke_fixed_map_test(total_sweeps=30_000, chain_length=10, seed=2025, n=30)
        elapsed = time.monotonic() - started
        worst = float(np.abs(zs).max())
        _report(
            3,
            "fixed-map, l=1: marginal- vs successive-conditional moments agree within 4 SE",
            worst < 4.0 and elapsed < 300.0,
            f"max |z| {worst:.2f} over {zs.size} comparisons, {elapsed:.0f}s",
        )

    def test_criterion_4_pd_invariant(self):
        truth = gen_truth(CaseSpec(case="I", p=5, n=10_000, seed=404))
        data = gen_data(truth, 10_000, 405)
        stats = compute_sufficient_stats(data)
        config = McmcConfig(
            iterations=50_000,
            burn_in=10_000,
            thin=10,
            seed=406,
            hyper=Hyperparameters(instrument_mode=FIXED_MAP),
            fixed_b_support=truth.b_support,
        )
        chain = run_chain(stats, config)
        min_eig = float(chain.sigma_min_eig.min())
        _report(
            4,
            "Sigma* minimum eigenvalue positive at every iteration of a 5e4-step fit",
            min_eig > 0.0,
            f"min eigenvalue {min_eig:.3e}",
        )

    def test_criterion_5_case_i_desk_scale(self):
        started = time.monotonic()
        reports = [_fit_replicate("I", FIXED_MAP, 500, rep)[0] for rep in range(5)]
        graph_auc = float(np.mean([r.graph.auc for r in reports]))
        mad = float(np.mean([r.effects.mean_abs_dev for r in reports]))
        conf_auc = float(np.mean([r.confounding.auc for r in reports]))
        elapsed = time.monotonic() - started
        ok = graph_auc >= 0.90 and mad <= 0.03 and conf_auc >= 0.85 and elapsed <= 1200.0
        _report(
            5,
            "Case I desk scale: graph AUC >= 0.90, MAD <= 0.03, confounding AUC >= 0.85",
            ok,
            f"graph {graph_auc:.3f}, MAD {mad:.4f}, confounding {conf_auc:.3f}, {elapsed:.0f}s",
        )

    def test_criterion_6_case_iii_selection(self):
        started = time.monotonic()
        reports = [_fit_replicate("III", SELECTION, 600, rep)[0] for rep in range(5)]
        graph_auc = float(np.mean([r.graph.auc for r in reports]))
        instr_auc = float(np.mean([r.instruments.auc for r in reports]))
        elapsed = time.monotonic() - started
        ok = graph_auc >= 0.90 and instr_auc >= 0.90 and elapsed <= 1800.0
        _report(
            6,
            "Case III with instrument selection: graph AUC >= 0.90, instrument AUC >= 0.90",
            ok,
            f"graph {graph_auc:.3f}, instruments {instr_auc:.3f}, {elapsed:.0f}s",
        )

    def test_criterion_7_baseline_sanity(self):
        started = time.monotonic()
        rng = np.random.default_rng(707)
        n = 30_000
        # bivariate SEM with one instrument per trait, shared confounder,
        # unit-variance exogenous errors
        x = rng.standard_normal((n, 2))
        w = rng.standard_normal((n, 1))
        y1 = x[:, :1] + w + rng.standard_normal((n, 1))
        y2 = 0.1 * y1 + x[:, 1:] + w + rng.standard_normal((n, 1))
        data = RawDataSet(y=np.hstack([y1, y2]), x=x, u=np.zeros((n, 0)))
        stats = compute_sufficient_stats(data)
        support = np.eye(2, dtype=int)
        ivw_est = baseline_effects(stats, "ivw", support).effect[1, 0]
        tsls_est, _ = tsls_pair(data, exposure=0, outcome=1, instruments=[0])
        ols = float(stats.s_yy[1, 0] / stats.s_yy[0, 0])
        elapsed = time.monotonic() - started
        ok = (
            abs(ivw_est - 0.1) < 0.02
            and abs(tsls_est - 0.1) < 0.02
            and abs(ols - 0.1) > 0.05
            and elapsed < 30.0
        )
        _report(
            7,
            "IVW/2SLS within 0.02 of the true effect; naive OLS biased by > 0.05",
            ok,
            f"ivw {ivw_est:.4f}, 2sls {tsls_est:.4f}, ols {ols:.4f}, {elapsed:.1f}s",
        )

    def test_criterion_8_performance_envelope(self):
        truth = gen_truth(CaseSpec(case="I", p=10, n=30_000, seed=808))
        data = gen_data(truth, 30_000, 809)
        stats = compute_sufficient_stats(data)
        config = McmcConfig(
            iterations=50_000,
            burn_in=10_000,
            thin=10,
            seed=810,
            hyper=Hyperparameters(instrument_mode=FIXED_MAP),
            fixed_b_support=truth.b_support,
        )
        started = time.monotonic()
        chain = run_chain(stats, config)
        elapsed = time.monotonic() - started
        _report(
            8,
            "p=10 summary fit, 50k iterations, completes within 5 minutes",
            elapsed <= 300.0 and chain.n_samples == 4_000,
            f"{elapsed:.0f}s",
        )

    def test_criterion_9_determinism(self, tmp_path):
        truth = gen_truth(CaseSpec(case="I", p=3, n=500, seed=909))
        data = gen_data(truth, 500, 910)
        stats = compute_sufficient_stats(data)
        config = McmcConfig(
            iterations=800,
            burn_in=200,
            thin=2,
            seed=911,
            hyper=Hyperparameters(instrument_mode=SELECTION),
        )
        chains = [run_chain(stats, config) for _ in range(2)]
        identical = all(
            np.array_equal(getattr(chains[0], name), getattr(chains[1], name))
            for name in ("a", "b", "c", "sigma_star", "gamma", "phi", "z", "loglik")
        )
        fits = [summarize(chain) for chain in chains]
        identical = identical and np.array_equal(fits[0].pip_a, fits[1].pip_a)
        identical = identical and np.array_equal(fits[0].ci_a, fits[1].ci_a)

        import json as _json

        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            _json.dumps(
                {
                    "iterations": 150,
                    "burn_in": 50,
                    "thin": 2,
                    "hyper": {"instrument_mode": "selection"},
                }
            )
        )
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"bench{jobs}"
            code = cli_main(
                [
                    "benchmark", "--case", "I", "--p", "3", "--n", "300",
                    "--replicates", "2", "--jobs", str(jobs), "--seed", "912",
                    "--out", str(out), "--config", str(cfg_path),
                    "--methods", "rgm-plus,ivw",
                ]
            )
            assert code == 0
            outputs.append((out / "results.csv").read_bytes())
        identical = identical and outputs[0] == outputs[1]
        _report(
            9,
            "identical seeds give bit-identical chains, summaries, and benchmark CSVs",
            identical,
        )
