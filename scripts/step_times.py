"""Time each update step per sweep in two source trees, in alternating rounds; writes JSON.

Usage, from anywhere:

    python3 scripts/step_times.py --parent PARENT_TREE --change CHANGE_TREE --workload covariates-p3 \\
        --sweeps 1000 --warmup 200 --rounds 6 --out step_times.json

Each tree is a checkout holding src/ and perfbench/.  One worker
subprocess per tree imports cyclemr from that tree's src/ with one BLAS
thread, builds the workload's summary statistics from that tree's
perfbench/workloads.py on data seed DATA_SEED, and starts one chain from
seed CHAIN_SEED.  In a tree that has mcmc.collapse_covariates, the chain
sweeps on its covariate-free statistics, as run_chain does.  It replaces
each step that UPDATE_STEPS in the tree's perfbench/tracing.py names by a
timing wrapper in cyclemr.mcmc, where mcmc_sweep looks them up, and times
each mcmc_sweep call; nothing below the step level is wrapped, so a sweep
pays one wrapper per step.  The chain runs --warmup sweeps untimed; then
each of --rounds rounds asks both workers for --sweeps sweeps, the parent
first in even rounds and the change first in odd ones, so that a drift of
the machine's speed does not favour one side.

The coordinator takes the step names from the workers' replies.  The
output holds, per step and for the whole sweep, each side's median and
quartiles over the rounds in microseconds per sweep and the median of the
per-round differences (change minus parent); `outside_steps` is the sweep
minus its steps, that is mcmc_sweep's own code and the wrappers.  It also
says whether both chains ended with the same generator state and the same
indicator arrays, which holds when the change kept the random stream, and
gives every round and the Python, numpy and scipy versions and nproc.

Only mcmc_sweep is timed.  run_chain's own per-iteration work outside
the sweep (storing kept draws, the log-likelihood trace and
sigma_min_eig) never runs here; it shows only in the traced benchmark's
`mcmc.chain_self_us`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import environment, spread

DATA_SEED = 12345
CHAIN_SEED = 1
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout before the change")
    parser.add_argument("--change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    parser.add_argument("--sweeps", type=int, default=1000, help="timed sweeps per round and tree")
    parser.add_argument("--warmup", type=int, default=200, help="untimed sweeps before the first round")
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--out", type=Path, default=Path("step_times.json"))
    parser.add_argument("--worker", type=Path, metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is None and (args.parent is None or args.change is None):
        parser.error("--parent and --change are required")
    if args.rounds < 1 or args.sweeps < 1 or args.warmup < 0:
        parser.error("--rounds and --sweeps must be positive and --warmup not negative")
    return args


# ---------------------------------------------------------------- worker side


def worker(tree, workload_name):
    """Serve timing requests on stdin: each line holds a sweep count, each reply is one JSON line."""
    src = (tree / "src").resolve()
    sys.path[:0] = [str(src), str((tree / "perfbench").resolve())]
    import numpy as np

    import cyclemr
    import cyclemr.mcmc as mcmc
    import tracing
    import workloads
    from cyclemr.cli import INSTRUMENT_MODES
    from cyclemr.model import compute_sufficient_stats

    if Path(cyclemr.__file__).resolve().parent != src / "cyclemr":
        raise SystemExit(f"step_times: imported cyclemr from {cyclemr.__file__}, not from {src}")
    workload = workloads.WORKLOADS[workload_name]
    truth, _, raw = workloads.simulate(workload, DATA_SEED)
    hyper = mcmc.Hyperparameters(instrument_mode=INSTRUMENT_MODES[workload.mode])
    stats = compute_sufficient_stats(raw)
    if hasattr(mcmc, "collapse_covariates"):
        stats, _ = mcmc.collapse_covariates(stats, hyper)
    support = truth.b_support if hyper.instrument_mode == mcmc.FIXED_MAP else None
    state = mcmc.initial_state(stats, hyper, support)
    rng = np.random.Generator(np.random.PCG64(CHAIN_SEED))

    steps = tracing.UPDATE_STEPS
    totals = dict.fromkeys(steps, 0)
    clock = time.perf_counter_ns

    def timed(name, func):
        def wrapped(*args):
            start = clock()
            result = func(*args)
            totals[name] += clock() - start
            return result

        return wrapped

    for name in steps:
        setattr(mcmc, name, timed(name, getattr(mcmc, name)))
    sweep = mcmc.mcmc_sweep

    for line in sys.stdin:
        sweeps = int(line)
        for name in steps:
            totals[name] = 0
        start = clock()
        for _ in range(sweeps):
            state.iteration += 1
            sweep(state, stats, hyper, rng)
        elapsed = clock() - start
        indicators = hashlib.sha256(b"".join(getattr(state.latent, k).tobytes() for k in ("gamma", "phi", "z")))
        reply = {
            "sweeps": sweeps,
            "sweep_ns": elapsed,
            "step_ns": totals,
            "iteration": state.iteration,
            "log_lik": state.log_lik,
            "rng_state": json.dumps(rng.bit_generator.state, sort_keys=True),
            "indicators_sha256": indicators.hexdigest(),
        }
        print(json.dumps(reply), flush=True)


# ---------------------------------------------------------------- coordinating side


class Worker:
    """One worker subprocess on one tree."""

    def __init__(self, tree, args):
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--workload", args.workload]
        env = {**os.environ, **SINGLE_THREAD}
        env.pop("PYTHONPATH", None)
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)

    def run(self, sweeps):
        self.proc.stdin.write(f"{sweeps}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"step_times: worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def per_sweep_us(reply):
    """Microseconds per sweep of each step that ran, of the whole sweep and of the part outside the steps."""
    sweeps = reply["sweeps"]
    out = {name: ns / sweeps / 1e3 for name, ns in reply["step_ns"].items() if ns}
    in_steps = sum(out.values())
    out["sweep"] = reply["sweep_ns"] / sweeps / 1e3
    out["outside_steps"] = out["sweep"] - in_steps
    return out


def summarize(rounds):
    """Per step that ran on either side, in the workers' order, then the whole sweep and the part outside the steps."""
    totals = ("sweep", "outside_steps")
    steps = dict.fromkeys(name for side in rounds[0].values() for name in side if name not in totals)
    table = {}
    for name in (*steps, *totals):
        parent = [r["parent"].get(name, 0.0) for r in rounds]
        change = [r["change"].get(name, 0.0) for r in rounds]
        table[name] = {
            "parent": spread(parent),
            "change": spread(change),
            "change_minus_parent": statistics.median(c - p for p, c in zip(parent, change)),
        }
    return table


def main(argv=None):
    args = parse_args(argv)
    if args.worker is not None:
        worker(args.worker, args.workload)
        return 0
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "cyclemr").is_dir() or not (tree / "perfbench" / "workloads.py").is_file():
            raise SystemExit(f"step_times: no src/cyclemr or perfbench/workloads.py under {tree}")
    workers = {side: Worker(tree, args) for side, tree in trees.items()}
    try:
        for w in workers.values():
            w.run(args.warmup)
        last, rounds = {}, []
        for i in range(args.rounds):
            record = {}
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                last[side] = workers[side].run(args.sweeps)
                record[side] = per_sweep_us(last[side])
            rounds.append(record)
    finally:
        for w in workers.values():
            w.close()
    doc = {
        "workload": args.workload,
        "trees": {side: str(tree) for side, tree in trees.items()},
        "protocol": {
            "data_seed": DATA_SEED,
            "chain_seed": CHAIN_SEED,
            "warmup": args.warmup,
            "sweeps": args.sweeps,
            "rounds": args.rounds,
            "blas_threads": 1,
            "order": "round i runs the parent first for even i, the change first for odd i",
            "unit": "us per sweep",
        },
        "environment": environment(),
        "summary": summarize(rounds),
        "same_stream": {
            "rng_state": last["parent"]["rng_state"] == last["change"]["rng_state"],
            "indicators": last["parent"]["indicators_sha256"] == last["change"]["indicators_sha256"],
        },
        "log_lik": {side: reply["log_lik"] for side, reply in last.items()},
        "rounds": rounds,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
