"""One benchmark run: set up a workload, fit it for a while, check it, report metrics.

The run generates the workload's inputs from the seed (SETUP_REPEATS
times, timing each), then runs `cyclemr fit` in-process through
`cyclemr.cli.main`, one chain after another with distinct seeds, until
the given seconds have passed and at least MIN_FITS chains are done: a
closed loop with one client.  Every fit's outputs are checked; the run's
chains together give the ESS and split-R-hat figures.

Untraced runs report the end-to-end metrics.  Traced runs fit each chain
seed twice, plain and under the tracer, alternating which goes first;
they check that both write identical samples and report the per-layer
metrics.  The tracing overhead is reported twice: as traced minus plain
fit time, and as the cost of the wrappers per sweep, calibrated on a
no-op in the same run.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import cyclemr.cli
import diagnostics
import tracing
import workloads

MIN_FITS = 2
SETUP_REPEATS = 7

# Output checks; README.md gives the reason for each bound.
GRAPH_AUC_MIN = 0.85
INSTRUMENT_AUC_MIN = 0.90
C_TRUTH_TOL = 0.10
C_OLS_TOL = 0.05
RHAT_MEDIAN_MAX = 1.15


class Checks:
    """Named output checks; a failed one is reported on stderr and fails the run."""

    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def fit_seed(seed, index):
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


def run(workload_name, seed, seconds, trace, work_root):
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload_name!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    checks = Checks()
    try:
        result = _run(workload, seed, seconds, trace, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["correct"] = not checks.failures
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _run(workload, seed, seconds, trace, work, checks):
    data_seed = int(np.random.SeedSequence(seed).generate_state(1)[0])
    setup_times, stats_bytes = [], set()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workloads.prepare(workload, data_seed, work / "inputs")
        setup_times.append(time.perf_counter() - started)
        stats_bytes.add(inputs.stats_path.read_bytes())
    checks.require(len(stats_bytes) == 1, "setup writes the same stats.json every time")

    def run_fit(index, tracer=None):
        """One `cyclemr fit` call; returns its wall time and what the checks read, or None."""
        out = work / f"fit-{index}{'-traced' if tracer else ''}"
        config = workloads.write_config(workload, fit_seed(seed, index), work / f"config-{index}.json")
        argv = workloads.fit_argv(workload, inputs, config, out)
        call = tracer.span("cli.main", cyclemr.cli.main) if tracer else cyclemr.cli.main
        started = time.perf_counter()
        code = call(argv)
        elapsed = time.perf_counter() - started
        checks.require(code == 0, f"fit {index} exits 0 (got {code})")
        if code != 0:
            return None
        record = {
            "seconds": elapsed,
            "bytes": sum(f.stat().st_size for f in out.iterdir()),
            "diagnostics": json.loads((out / "diagnostics.json").read_text()),
            "summary": json.loads((out / "summary.json").read_text()),
        }
        with np.load(out / "samples.npz") as samples:
            record["samples"] = {key: samples[key] for key in samples.files}
        shutil.rmtree(out)
        return record

    plain, traced, overheads = [], [], []
    tracer = tracing.Tracer() if trace else None
    started = time.perf_counter()
    index = 0
    while index < MIN_FITS or time.perf_counter() - started < seconds:
        if tracer is None:
            plain.append(run_fit(index))
        else:
            pair = {}
            for traced_run in (False, True) if index % 2 == 0 else (True, False):
                if traced_run:
                    with tracer:
                        pair[True] = run_fit(index, tracer)
                else:
                    pair[False] = run_fit(index)
            plain.append(pair[False])
            traced.append(pair[True])
            if pair[False] and pair[True]:
                overheads.append(pair[True]["seconds"] - pair[False]["seconds"])
                same = all(
                    np.array_equal(pair[False]["samples"][key], pair[True]["samples"][key])
                    for key in pair[False]["samples"]
                )
                checks.require(same, f"fit {index}: traced and plain runs write identical samples")
        index += 1
    attempted = len(plain) + len(traced)
    failed = sum(record is None for record in plain + traced)
    fits = [record for record in plain if record is not None]
    traced = [record for record in traced if record is not None]
    if len(fits) < MIN_FITS or (trace and len(traced) < len(fits)):
        raise SystemExit(f"perfbench: {failed} of {attempted} fits failed; no metrics")

    notes = {"fits": len(fits)}
    check_fits(workload, inputs, fits, checks, notes)
    notes.update(mixing(workload, fits, checks))
    total_fit_s = sum(record["seconds"] for record in fits)

    if not trace:
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "fit_s": metric(statistics.median(record["seconds"] for record in fits), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced, overheads)
        metrics["ess.median_per_s"] = metric(notes["ess_median"] / total_fit_s, "1/s")
        metrics["ess.min_per_s"] = metric(notes["ess_min"] / total_fit_s, "1/s")
        metrics["ess.rhat_median"] = metric(notes["rhat_median"], "ratio")
        metrics["ess.frozen_entries"] = metric(notes["frozen_per_chain"], "1/chain")
        gap_us = metrics["trace.step_gap_us"]["value"]
        checks.require(gap_us >= 0.0, f"the update steps nest inside the sweep (sweep minus steps {gap_us:.1f} us)")
    print("perfbench: " + json.dumps(notes), file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def check_fits(workload, inputs, fits, checks, notes):
    """Output checks against the simulation truth, on the posterior pooled over the run's chains."""
    for i, record in enumerate(fits):
        checks.require(record["diagnostics"]["sigma_min_eig"] > 0.0, f"fit {i}: Sigma* stays positive definite")

    def pooled(key):
        return np.mean([np.asarray(record["summary"][key]) for record in fits], axis=0)

    truth = inputs.truth
    off = ~np.eye(workload.p, dtype=bool)
    if workload.covariates == 0:
        auc = diagnostics.roc_auc(pooled("pip_a")[off], truth.graph_truth[off])
        notes["graph_auc"] = auc
        checks.require(auc >= GRAPH_AUC_MIN, f"graph AUC {auc:.3f} >= {GRAPH_AUC_MIN}")
    if workload.mode == "rgm-plus":
        auc = diagnostics.roc_auc(pooled("pip_b").ravel(), truth.b_support.ravel())
        notes["instrument_auc"] = auc
        checks.require(auc >= INSTRUMENT_AUC_MIN, f"instrument AUC {auc:.3f} >= {INSTRUMENT_AUC_MIN}")
    if workload.covariates:
        mean_c = pooled("mean_c")
        err_truth = float(np.abs(mean_c - inputs.c_true).max())
        err_ols = float(np.abs(mean_c - ols_covariate_effects(inputs)).max())
        notes["c_err_truth"], notes["c_err_ols"] = err_truth, err_ols
        checks.require(err_truth <= C_TRUTH_TOL, f"max |mean C - C| {err_truth:.4f} <= {C_TRUTH_TOL}")
        checks.require(err_ols <= C_OLS_TOL, f"max |mean C - C_ols| {err_ols:.4f} <= {C_OLS_TOL}")


def ols_covariate_effects(inputs):
    """C recovered by regressing Y on [X, U] and mapping through the true (I - A)."""
    raw = inputs.raw
    coef, *_ = np.linalg.lstsq(np.hstack([raw.x, raw.u]), raw.y, rcond=None)
    reduced_c = coef[raw.x.shape[1] :].T
    return (np.eye(raw.y.shape[1]) - inputs.truth.a_true) @ reduced_c


def mixing(workload, fits, checks):
    """ESS and split-R-hat over the run's chains, with the R-hat check.

    Entries are the off-diagonal A and the strict-upper Sigma*.  An entry
    that holds one value through a whole chain had every proposal
    rejected; that chain is left out of the entry's ESS and R-hat, and
    counted as frozen.
    """
    p = workload.p
    off = ~np.eye(p, dtype=bool)
    iu = np.triu_indices(p, 1)
    draws = np.stack(  # (chains, draws, entries)
        [np.concatenate([r["samples"]["a"][:, off], r["samples"]["sigma_star"][:, iu[0], iu[1]]], axis=1) for r in fits]
    )
    moving = draws.max(axis=1) > draws.min(axis=1)  # (chains, entries)
    ess, rhat = [], []
    for e in np.flatnonzero(moving.any(axis=0)):
        chains = draws[moving[:, e], :, e]
        ess.append(diagnostics.ess(chains))
        rhat.append(diagnostics.split_rhat(chains))
    rhat_median = float(np.median(rhat))
    checks.require(rhat_median <= RHAT_MEDIAN_MAX, f"median split-R-hat {rhat_median:.4f} <= {RHAT_MEDIAN_MAX}")
    return {
        "rhat_median": rhat_median,
        "ess_min": float(np.min(ess)),
        "ess_median": float(np.median(ess)),
        "frozen_per_chain": float((~moving).sum() / len(fits)),
    }


def layer_metrics(tracer, traced, overheads):
    """Per-layer figures from the tracer's totals over the traced fits."""
    totals, in_sweep = tracer.totals, tracer.in_sweep
    sweeps = totals["mcmc.sweep"][0]
    fits = len(traced)

    def per_sweep_us(name):
        return in_sweep[name][1] / sweeps / 1e3

    def per_fit_ms(name):
        return totals[name][1] / fits / 1e6

    steps_us = {step: per_sweep_us(f"mcmc.{step}") for step in tracing.UPDATE_STEPS}
    out = {f"mcmc.{step}_us": metric(value, "us") for step, value in steps_us.items()}
    sweep_us = totals["mcmc.sweep"][1] / sweeps / 1e3
    out["mcmc.sweep_ms"] = metric(sweep_us / 1e3, "ms")
    out["mcmc.run_chain_s"] = metric(totals["mcmc.run_chain"][1] / fits / 1e9, "s")
    out["mcmc.chain_self_us"] = metric(totals["mcmc.run_chain"][2] / sweeps / 1e3, "us")
    for block in ("a", "b"):
        proposed = tracer.proposals[f"mcmc.update_{block}"][1]
        out[f"mcmc.{block}_proposals_per_sweep"] = metric(proposed / sweeps, "1/sweep")
        rates = [r["diagnostics"][f"accept_rate_{block}"] for r in traced]
        out[f"mcmc.accept_{block}"] = metric(statistics.mean(rates), "ratio")
    out["model.cholesky_per_sweep"] = metric(in_sweep["model.cholesky"][0] / sweeps, "1/sweep")
    out["model.loglik_per_sweep"] = metric(in_sweep["model.loglik"][0] / sweeps, "1/sweep")
    out["model.loglik_us"] = metric(per_sweep_us("model.loglik"), "us")
    out["model.residual_scatter_us"] = metric(per_sweep_us("model.residual_scatter"), "us")
    out["distributions.gig_per_sweep"] = metric(in_sweep["distributions.gig"][0] / sweeps, "1/sweep")
    out["distributions.gig_us"] = metric(per_sweep_us("distributions.gig"), "us")
    out["distributions.draws_us"] = metric(per_sweep_us("distributions.draws"), "us")
    out["cli.fit_self_ms"] = metric(totals["cli.main"][2] / fits / 1e6, "ms")
    out["io.read_ms"] = metric(per_fit_ms("io.read"), "ms")
    out["io.write_ms"] = metric(per_fit_ms("io.write"), "ms")
    out["io.bytes_written"] = metric(statistics.median(r["bytes"] for r in traced), "B")
    out["summary.summarize_ms"] = metric(per_fit_ms("summary.summarize"), "ms")
    out["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    wrapped_calls = sum(entry[0] for entry in totals.values())
    out["trace.wrapper_us"] = metric(wrapped_calls / sweeps * tracing.wrapper_cost_ns() / 1e3, "us")
    out["trace.step_gap_us"] = metric(sweep_us - sum(steps_us.values()), "us")
    return out
