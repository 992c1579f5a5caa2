"""Mixing of the sampler in two source trees: ESS per 1000 kept sweeps from fixed seeds; writes JSON.

Usage, from anywhere:

    python3 scripts/bench_mixing.py --parent PARENT_TREE --change CHANGE_TREE \\
        --workload covariates-p3 --workload fixedmap-p10 --out BENCH_topic.json

Each tree is a checkout holding src/ and perfbench/.  One worker
subprocess per tree, both at once, imports cyclemr from that tree's src/
with one BLAS thread.  For each workload and each of its data seeds it
simulates the workload's data with that tree's perfbench/workloads.py and
runs --chains chains of --sweeps sweeps through run_chain, from chain
seeds CHAIN_SEED, CHAIN_SEED + 1, ...  The first fifth of each chain is
burned in and every later sweep is kept.  ESS and split-R-hat come from
the tree's own perfbench/diagnostics.py.  ESS per sweep depends only on
the seeds and the code, so the figures do not move with the machine's
load, and one tree run against itself gives identical figures.

Per tree, workload and data seed the output gives, for the off-diagonal
entries of A with the strict upper triangle of Sigma* ("a_sigma"), for
A alone and Sigma* alone, and for C when the workload has covariates:
min and median ESS per 1000 kept sweeps, the number of entries whose ESS
is below ESS_FLOOR, max split-R-hat and the frozen (chain, entry) pairs.
A chain in which an entry never moves is left out of that entry's ESS and
R-hat, as perfbench/harness.py does.  "spread" gives, per group, the
smallest, median and largest value over the data seeds of the min and
median ESS per 1000 kept sweeps and of max split-R-hat.  The figures go
under the key "mixing" of --out; any other key a file there already holds,
such as the pairs that scripts/bench_pairs.py writes, is kept.  Run
bench_pairs.py first, since it rewrites its whole file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import environment
from step_times import SINGLE_THREAD

CHAIN_SEED = 1000
BURN_IN_SHARE = 0.2
ESS_FLOOR = 50
# Per workload: data seeds, chains, sweeps per chain.
DEFAULTS = {
    "fixedmap-p10": ([902, 903, 904, 905, 906], 4, 1500),
    "selection-p20": ([901, 904], 3, 1200),
    "covariates-p3": ([901, 902, 903, 904, 905], 4, 3000),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout before the change")
    parser.add_argument("--change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", action="append", choices=sorted(DEFAULTS), help="repeatable; default: all")
    parser.add_argument("--data-seeds", type=int, nargs="+", help="override every workload's data seeds")
    parser.add_argument("--chains", type=int, help="override every workload's chain count")
    parser.add_argument("--sweeps", type=int, help="override every workload's sweeps per chain")
    parser.add_argument("--out", type=Path, default=Path("bench_mixing.json"))
    parser.add_argument("--worker", type=Path, metavar="TREE", help=argparse.SUPPRESS)
    parser.add_argument("--plan", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and (args.parent is None or args.change is None):
        parser.error("--parent and --change are required")
    if (args.chains is not None and args.chains < 1) or (args.sweeps is not None and args.sweeps < 10):
        parser.error("--chains must be positive and --sweeps at least 10")
    return args


def plan_of(args):
    """Workload -> {data_seeds, chains, sweeps, burn_in}."""
    plan = {}
    for name in args.workload or DEFAULTS:
        seeds, chains, sweeps = DEFAULTS[name]
        seeds, chains, sweeps = args.data_seeds or seeds, args.chains or chains, args.sweeps or sweeps
        plan[name] = {"data_seeds": seeds, "chains": chains, "sweeps": sweeps, "burn_in": int(sweeps * BURN_IN_SHARE)}
    return plan


# ---------------------------------------------------------------- worker side


def mixing(draws, diagnostics):
    """Figures of one group of entries; draws has shape (chains, kept sweeps, entries)."""
    import numpy as np

    moving = draws.max(axis=1) > draws.min(axis=1)  # (chains, entries)
    ess, rhat = [], []
    for e in np.flatnonzero(moving.any(axis=0)):
        chains = draws[moving[:, e], :, e]
        ess.append(diagnostics.ess(chains))
        rhat.append(diagnostics.split_rhat(chains))
    per_1000 = [1000.0 * value / (draws.shape[0] * draws.shape[1]) for value in ess]
    return {
        "entries": draws.shape[2],
        "ess_min_per_1000": min(per_1000, default=None),
        "ess_median_per_1000": statistics.median(per_1000) if per_1000 else None,
        f"ess_below_{ESS_FLOOR}": sum(value < ESS_FLOOR for value in ess),
        "rhat_max": max(rhat, default=None),
        "frozen": int((~moving).sum()),
    }


def worker(tree, plan):
    """Run the plan on one tree; prints one JSON line: workload -> data seed -> figures."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str((tree / "perfbench").resolve())]
    import numpy as np

    import cyclemr
    import diagnostics
    import workloads
    from cyclemr.cli import INSTRUMENT_MODES
    from cyclemr.mcmc import FIXED_MAP, Hyperparameters, McmcConfig, run_chain
    from cyclemr.model import compute_sufficient_stats

    if Path(cyclemr.__file__).resolve().parent != src / "cyclemr":
        raise SystemExit(f"bench_mixing: imported cyclemr from {cyclemr.__file__}, not from {src}")
    out = {}
    for name, spec in plan.items():
        workload = workloads.WORKLOADS[name]
        hyper = Hyperparameters(instrument_mode=INSTRUMENT_MODES[workload.mode])
        p = workload.p
        off, iu = ~np.eye(p, dtype=bool), np.triu_indices(p, 1)
        per_seed = out[name] = {}
        for data_seed in spec["data_seeds"]:
            truth, _, raw = workloads.simulate(workload, data_seed)
            stats = compute_sufficient_stats(raw)
            support = truth.b_support if hyper.instrument_mode == FIXED_MAP else None
            started = time.perf_counter()
            chains = [
                run_chain(stats, McmcConfig(iterations=spec["sweeps"], burn_in=spec["burn_in"], thin=1,
                                            seed=CHAIN_SEED + i, hyper=hyper, fixed_b_support=support))
                for i in range(spec["chains"])
            ]
            seconds = time.perf_counter() - started
            a = np.stack([chain.a[:, off] for chain in chains])
            sigma = np.stack([chain.sigma_star[:, iu[0], iu[1]] for chain in chains])
            groups = {"a_sigma": np.concatenate([a, sigma], axis=2), "a": a, "sigma_star": sigma}
            if workload.covariates:
                groups["c"] = np.stack([chain.c.reshape(chain.n_samples, -1) for chain in chains])
            figures = {group: mixing(draws, diagnostics) for group, draws in groups.items()}
            figures["seconds"] = seconds
            per_seed[str(data_seed)] = figures
    print(json.dumps(out), flush=True)


# ---------------------------------------------------------------- coordinating side


def spread(per_seed):
    """Per group: smallest, median and largest over the data seeds of each ESS and R-hat figure."""
    groups = [group for group, figures in next(iter(per_seed.values())).items() if isinstance(figures, dict)]
    out = {}
    for group in groups:
        out[group] = {}
        for key in ("ess_min_per_1000", "ess_median_per_1000", "rhat_max"):
            values = [figures[group][key] for figures in per_seed.values() if figures[group][key] is not None]
            out[group][key] = (
                {"min": min(values), "median": statistics.median(values), "max": max(values)} if values else None
            )
    return out


def main(argv=None):
    args = parse_args(argv)
    if args.worker is not None:
        worker(args.worker, json.loads(args.plan))
        return 0
    plan = plan_of(args)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "cyclemr").is_dir() or not (tree / "perfbench" / "diagnostics.py").is_file():
            raise SystemExit(f"bench_mixing: no src/cyclemr or perfbench/diagnostics.py under {tree}")
    env = {**os.environ, **SINGLE_THREAD}
    env.pop("PYTHONPATH", None)
    procs = {
        side: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--plan", json.dumps(plan)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for side, tree in trees.items()
    }
    replies = {}
    for side, proc in procs.items():
        stdout, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"bench_mixing: the {side} worker exited with code {proc.returncode}")
        replies[side] = json.loads(stdout.strip().splitlines()[-1])
    result = {
        "protocol": {
            "chain_seeds": f"{CHAIN_SEED}, {CHAIN_SEED} + 1, ...",
            "burn_in": f"the first {BURN_IN_SHARE:g} of each chain; every later sweep is kept",
            "blas_threads": 1,
            "unit": "ESS per 1000 kept sweeps, pooled over the chains",
            "plan": plan,
        },
        "environment": environment(),
        "workloads": {
            name: {side: {"per_seed": replies[side][name], "spread": spread(replies[side][name])} for side in trees}
            for name in plan
        },
    }
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["mixing"] = result
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
