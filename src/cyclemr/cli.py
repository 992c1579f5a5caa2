"""Command-line front end for simulate / fit / evaluate / baseline / benchmark runs.

Every command is deterministic given its seed and inputs.  Per-replicate
seeds derive from the master seed through numpy's SeedSequence with the
replicate index as spawn key, so results do not depend on --jobs.

Exit codes: 0 success, 2 usage error, 3 data or file-system error, 4
numerical failure.  Failures emit a machine-readable JSON object on stderr
and remove what the command wrote (see _Workspace).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import multiprocessing
import os
import shutil
import sys
import warnings
import time
import types
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BASELINE_METHODS, baseline_effects, reassign_pleiotropic, total_effect_matrix
from .io import (
    config_from_dict,
    config_to_dict,
    read_json,
    read_matrix,
    stats_from_dict,
    stats_to_dict,
    summary_from_dict,
    summary_to_dict,
    write_json,
    write_manifest,
    write_matrix,
)
from .mcmc import FIXED_MAP, SAMPLED, SELECTION, run_chain
from .metrics import DeviationMetrics, _target_metrics, deviation_metrics, evaluate_fit
from .model import RawDataSet, compute_sufficient_stats, indicator_matrix
from .simulate import CaseSpec, gen_data, gen_truth
from .summary import summarize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

INSTRUMENT_MODES = {"rgm": FIXED_MAP, "rgm-plus": SELECTION}
MODEL_METHODS = tuple(INSTRUMENT_MODES)
SIGNIFICANCE = 0.05
# BLAS thread-pool sizes, read once when a process loads its BLAS.  The sampler's
# matrices are at most about 20 x 20, so extra BLAS threads only compete for cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def derive_seeds(master_seed, index, count):
    """Splittable counter scheme: word stream of SeedSequence(master, spawn_key=(index,))."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return [int(word) for word in seq.generate_state(count, dtype=np.uint64)]


class _Workspace:
    """One command's output transaction: entering creates the directory; if the block raises, exiting
    removes the directory and any parents the command created, or else the files named by path() and,
    once any was named, manifest.json, so no manifest names a removed file.  Report commands write no
    manifest (manifest=False) and leave the directory's own alone.
    """

    def __init__(self, out_dir, manifest=True):
        self.out_dir = Path(out_dir)
        self.manifest = manifest
        self.files = []

    def __enter__(self):
        missing = [d for d in (self.out_dir, *self.out_dir.parents) if not d.exists()]
        self.created = missing[-1] if missing else None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self

    def path(self, name):
        target = self.out_dir / name
        self.files.append(target)
        return target

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return
        if self.created is not None:
            shutil.rmtree(self.created, ignore_errors=True)
            return
        if self.files and self.manifest:
            self.files.append(self.out_dir / "manifest.json")
        for target in self.files:
            target.unlink(missing_ok=True)


def cmd_simulate(args):
    started = time.monotonic()
    with _Workspace(args.out) as ws:
        truth_seed, data_seed = derive_seeds(args.seed, 0, 2)
        spec = CaseSpec(case=args.case, p=args.p, n=args.n, t=args.t, seed=truth_seed)
        truth = gen_truth(spec)
        data = gen_data(truth, args.n, data_seed)
        stats = compute_sufficient_stats(data)

        write_matrix(ws.path("A_true.csv"), truth.a_true, "A_true")
        write_matrix(ws.path("B_true.csv"), truth.b_true, "B_true")
        write_matrix(ws.path("B_support.csv"), truth.b_support, "B_support")
        write_matrix(ws.path("D.csv"), truth.d, "D")
        write_matrix(ws.path("Sigma_noise.csv"), truth.sigma_noise, "Sigma_noise")
        write_matrix(ws.path("graph_truth.csv"), truth.graph_truth, "graph_truth")
        write_matrix(ws.path("confounding_truth.csv"), truth.confounding_truth, "confounding_truth")
        write_matrix(ws.path("Y.csv"), data.y, "Y")
        write_matrix(ws.path("X.csv"), data.x, "X")
        write_json(ws.path("stats.json"), stats_to_dict(stats))
        write_json(
            ws.path("truth_meta.json"),
            {"case": args.case, "p": args.p, "n": args.n, "t": truth.t, "seed": args.seed},
        )
        snapshot = {"case": args.case, "p": args.p, "n": args.n, "t": args.t, "seed": args.seed}
        write_manifest(
            ws.out_dir, "simulate", snapshot, args.seed, time.monotonic() - started, [], ws.files
        )
    return EXIT_OK


def _fit_config(doc, method, support):
    """(config, sample_format) of a config document, with method's mode and the map support set in."""
    config, sample_format = config_from_dict(doc)
    if method:
        config = replace(config, hyper=replace(config.hyper, instrument_mode=INSTRUMENT_MODES[method]))
    if support is not None:
        config = replace(config, fixed_b_support=support)
    if config.hyper.instrument_mode == FIXED_MAP and config.fixed_b_support is None:
        raise ValueError("fixed-map mode requires --b-support (or a selection-mode config)")
    return config, sample_format


def cmd_fit(args):
    started = time.monotonic()
    stats = stats_from_dict(read_json(args.stats))
    doc = read_json(args.config) if args.config else {}
    support = read_matrix(args.b_support) if args.b_support else None
    config, sample_format = _fit_config(doc, args.mode, support)
    with _Workspace(args.out) as ws:
        chain = run_chain(stats, config)
        fit = summarize(
            chain,
            threshold_a=args.threshold_a,
            threshold_b=args.threshold_b,
            threshold_z=args.threshold_z,
        )
        write_json(ws.path("summary.json"), summary_to_dict(fit))
        write_matrix(ws.path("loglik.csv"), chain.loglik.reshape(-1, 1), "loglik")
        write_json(
            ws.path("diagnostics.json"),
            {
                "accept_rate_a": chain.accept_rate_a,
                "accept_rate_b": chain.accept_rate_b,
                "sigma_min_eig": float(chain.sigma_min_eig.min()),
                "n_samples": chain.n_samples,
            },
        )
        if sample_format == "npz":
            np.savez(ws.path("samples.npz"), **{name: getattr(chain, name) for name in SAMPLED})
        elif sample_format == "csv":
            m = chain.n_samples
            for name in SAMPLED:
                arr = getattr(chain, name)
                write_matrix(ws.path(f"samples_{name}.csv"), arr.reshape(m, -1), f"samples_{name}")
        inputs = [args.stats] + ([args.config] if args.config else []) + (
            [args.b_support] if args.b_support else []
        )
        write_manifest(
            ws.out_dir,
            "fit",
            config_to_dict(config, sample_format),
            config.seed,
            time.monotonic() - started,
            inputs,
            ws.files,
        )
    return EXIT_OK


def _read_indicator(path):
    """A 0/1 matrix file as ints; any other entry is a data error that names the file."""
    return indicator_matrix(read_matrix(path), str(path))


def _read_truth(truth_dir):
    truth_dir = Path(truth_dir)
    return types.SimpleNamespace(
        a_true=read_matrix(truth_dir / "A_true.csv"),
        b_support=_read_indicator(truth_dir / "B_support.csv"),
        graph_truth=_read_indicator(truth_dir / "graph_truth.csv"),
        confounding_truth=_read_indicator(truth_dir / "confounding_truth.csv"),
    )


def _write_report(path, payload):
    """Write a single-file JSON report through a workspace on its directory."""
    path = Path(path)
    with _Workspace(path.parent, manifest=False) as ws:
        write_json(ws.path(path.name), payload)


def cmd_evaluate(args):
    doc = read_json(Path(args.fit) / "summary.json")
    truth = _read_truth(args.truth)
    fit = summary_from_dict(doc, args.threshold_a, args.threshold_b, args.threshold_z)
    _write_report(args.out, evaluate_fit(fit, truth).to_dict())
    return EXIT_OK


def _baseline_metrics(result, truth):
    p = truth.a_true.shape[0]
    off = ~np.eye(p, dtype=bool)
    pred = result.pvalue[off] < SIGNIFICANCE
    graph = _target_metrics(result.score[off], pred, truth.graph_truth[off])
    dev = deviation_metrics(result.effect, total_effect_matrix(truth.a_true))
    return {"graph": asdict(graph), "effects": asdict(DeviationMetrics(*dev))}


def cmd_baseline(args):
    data_dir = Path(args.data)
    stats = stats_from_dict(read_json(data_dir / "stats.json"))
    support = _read_indicator(data_dir / "B_support.csv")
    reassign_seed, estimate_seed = derive_seeds(args.seed, 0, 2)
    rng = np.random.Generator(np.random.PCG64(reassign_seed))
    instrument_map = reassign_pleiotropic(support, rng)
    if args.method == "tsls":
        source = RawDataSet(
            y=read_matrix(data_dir / "Y.csv"), x=read_matrix(data_dir / "X.csv"),
            u=np.zeros((stats.dims.n, 0)),
        )
    else:
        source = stats
    result = baseline_effects(source, args.method, instrument_map, seed=estimate_seed)
    _write_report(
        args.out,
        {
            "method": args.method,
            "effect": result.effect.tolist(),
            "score": result.score.tolist(),
            "pvalue": result.pvalue.tolist(),
            "instrument_map": instrument_map.tolist(),
        },
    )
    return EXIT_OK


def _replicate_metrics(task):
    """One benchmark replicate: simulate, fit or estimate, evaluate.  Runs in a worker."""
    index, case, p, n, t, master_seed, config_doc, methods, thresholds = task
    truth_seed, data_seed, fit_seed, baseline_seed = derive_seeds(master_seed, index, 4)
    truth = gen_truth(CaseSpec(case=case, p=p, n=n, t=t, seed=truth_seed))
    data = gen_data(truth, n, data_seed)
    stats = compute_sufficient_stats(data)
    out = {}
    for method in methods:
        started = time.monotonic()
        if method in MODEL_METHODS:
            support = truth.b_support if INSTRUMENT_MODES[method] == FIXED_MAP else None
            config, _ = _fit_config(config_doc, method, support)
            chain = run_chain(stats, replace(config, seed=fit_seed))
            fit = summarize(chain, *thresholds)
            out[method] = evaluate_fit(fit, truth).to_dict()
        else:
            rng = np.random.Generator(np.random.PCG64(baseline_seed))
            instrument_map = reassign_pleiotropic(truth.b_support, rng)
            source = data if method == "tsls" else stats
            result = baseline_effects(source, method, instrument_map, seed=baseline_seed)
            out[method] = _baseline_metrics(result, truth)
        out[method]["runtime"] = {"seconds": time.monotonic() - started}
    return index, {"truth": truth_seed, "data": data_seed, "fit": fit_seed, "baseline": baseline_seed}, out


@contextlib.contextmanager
def _one_blas_thread():
    """Set each unset one of BLAS_THREAD_VARS to "1" for the processes spawned inside, and unset it on exit."""
    unset = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        yield
    finally:
        for name in unset:
            os.environ.pop(name, None)


def cmd_benchmark(args):
    started = time.monotonic()
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in MODEL_METHODS + BASELINE_METHODS:
            raise ValueError(f"unknown method {method!r}")
    config_doc = read_json(args.config) if args.config else {}
    config_from_dict(config_doc)  # fail on a bad config before any replicate runs

    thresholds = (args.threshold_a, args.threshold_b, args.threshold_z)
    tasks = [
        (i, args.case, args.p, args.n, args.t, args.seed, config_doc, methods, thresholds)
        for i in range(args.replicates)
    ]
    # Every replicate runs in a worker, so that all run under the same BLAS thread count whatever --jobs is.
    spawn = multiprocessing.get_context("spawn")
    # Entered before the replicates run, so that an unusable --out fails at once.
    with _Workspace(args.out) as ws:
        with _one_blas_thread(), concurrent.futures.ProcessPoolExecutor(max(1, args.jobs), mp_context=spawn) as pool:
            results = list(pool.map(_replicate_metrics, tasks))  # in task order

        seed_lines = ["replicate,truth_seed,data_seed,fit_seed,baseline_seed"]
        for index, seeds, _ in results:
            seed_lines.append(
                f"{index},{seeds['truth']},{seeds['data']},{seeds['fit']},{seeds['baseline']}"
            )
        ws.path("seeds.csv").write_text("\n".join(seed_lines) + "\n")

        rows = ["method,target,metric,mean,sd"]
        runtimes = {}
        for method in methods:
            per_rep = [metrics[method] for _, _, metrics in results]
            secs = np.array([rep.pop("runtime")["seconds"] for rep in per_rep])
            runtimes[method] = {
                "mean_s": float(secs.mean()),
                "median_s": float(np.median(secs)),
                "sd_s": float(secs.std(ddof=1)) if secs.size > 1 else 0.0,
            }
            targets = sorted({key for rep in per_rep for key in rep})
            for target in targets:
                metric_names = sorted(per_rep[0].get(target, {}))
                for metric in metric_names:
                    values = np.array(
                        [rep[target][metric] for rep in per_rep if target in rep], dtype=float
                    )
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        mean = float(np.nanmean(values))
                        valid = np.count_nonzero(~np.isnan(values))
                        sd = float(np.nanstd(values, ddof=1)) if valid > 1 else 0.0
                    rows.append(f"{method},{target},{metric},{mean:.17g},{sd:.17g}")
        ws.path("results.csv").write_text("\n".join(rows) + "\n")

        snapshot = {
            "case": args.case,
            "p": args.p,
            "n": args.n,
            "t": args.t,
            "replicates": args.replicates,
            "jobs": args.jobs,
            "methods": methods,
            "seed": args.seed,
            "config": config_doc,
            "thresholds": list(thresholds),
            "runtimes": runtimes,
        }
        inputs = [args.config] if args.config else []
        write_manifest(
            ws.out_dir, "benchmark", snapshot, args.seed, time.monotonic() - started, inputs, ws.files
        )
    return EXIT_OK


def _add_threshold_flags(parser):
    parser.add_argument("--threshold-a", type=float, default=0.5, help="PIP threshold for causal edges")
    parser.add_argument("--threshold-b", type=float, default=0.5, help="PIP threshold for instrument effects")
    parser.add_argument("--threshold-z", type=float, default=0.5, help="PIP threshold for confounding edges")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclemr",
        description="Bayesian multivariable bidirectional MR over cyclic structural equation models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate ground truth, raw data, and summary statistics")
    sim.add_argument("--case", required=True, choices=["I", "II", "III"])
    sim.add_argument("--p", required=True, type=int)
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--t", type=int, default=None, help="confounder count (default ceil(p/2))")
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="run the MCMC on summary statistics")
    fit.add_argument("--stats", required=True)
    fit.add_argument("--config", default=None)
    fit.add_argument("--out", required=True)
    fit.add_argument("--mode", choices=list(INSTRUMENT_MODES), default=None)
    fit.add_argument("--b-support", default=None)
    _add_threshold_flags(fit)
    fit.set_defaults(func=cmd_fit)

    ev = sub.add_parser("evaluate", help="score a fit against a simulation truth")
    ev.add_argument("--fit", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True)
    _add_threshold_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    base = sub.add_parser("baseline", help="run a textbook MR estimator on simulated data")
    base.add_argument("--data", required=True)
    base.add_argument("--method", required=True, choices=list(BASELINE_METHODS))
    base.add_argument("--out", required=True)
    base.add_argument("--seed", type=int, default=0)
    base.set_defaults(func=cmd_baseline)

    bench = sub.add_parser("benchmark", help="replicate pipelines with aggregated metrics")
    bench.add_argument("--case", required=True, choices=["I", "II", "III"])
    bench.add_argument("--p", required=True, type=int)
    bench.add_argument("--n", required=True, type=int)
    bench.add_argument("--t", type=int, default=None)
    bench.add_argument("--replicates", required=True, type=int)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--seed", required=True, type=int)
    bench.add_argument("--out", required=True)
    bench.add_argument("--config", default=None)
    bench.add_argument("--methods", default="rgm")
    _add_threshold_flags(bench)
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, KeyError, ValueError) as exc:
        _emit_error("data_error", exc)
        return EXIT_DATA
    except ArithmeticError as exc:
        _emit_error("numerical_error", exc)
        return EXIT_NUMERIC


def _emit_error(kind, exc):
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
