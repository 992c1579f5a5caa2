"""Paired before/after runs of the sampler benchmark; writes BENCH_<topic>.json.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent PARENT_TREE --change CHANGE_TREE \\
        --topic carried_precision --pairs fixedmap-p10=10 --pairs selection-p20=3 \\
        --pairs covariates-p3=3 --seed 301 --traced-pairs 3 --out BENCH_carried_precision.json

Each tree is a checkout holding perfbench/run.py and src/.  Pair i of a
workload runs `perfbench/run.py --trace 0 --seed SEED+i` once in each tree,
the parent first for even i and the change first for odd i, so that a
drift of the machine's speed does not favour one side.  Both runs of a
pair use the same seed.  Every run lasts the run_seconds that the change
tree's BENCHMARK.json sets.  With --traced-pairs N, each workload also
gets N traced pairs (`--trace 1`), for the per-layer and mixing figures,
on the same seeds and in the same alternating order, so that a drift of
the machine's speed between the two sides reads as spread, not as a
per-step change.

The output holds, per workload and metric, each side's median and
quartiles, the number of pairs the change won (a tie wins neither) and a
verdict, under "summary" for the untraced pairs and "traced_summary" for
the traced ones, with the direction and bound read from the change
tree's BENCHMARK.json.  The verdict's claim_met holds when the change won
at least nine tenths of the pairs and its median is better than the
parent's by more than the parent's quartile spread; within_bound holds
when the change's median is no worse than the parent's by more than the
metric's relative bound (null for a metric without one).  Per workload, each side's fits per run (the run's
`attempted`: median and quartiles), which peak_rss_mb tracks because the
benchmark keeps every fit's samples until the run ends; every raw run;
and the Python, numpy and scipy versions and nproc.  It is rewritten after every run, so an
interrupted session keeps what it measured.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout with the change")
    parser.add_argument("--topic", required=True, help="names the output BENCH_<topic>.json")
    parser.add_argument(
        "--pairs", action="append", required=True, metavar="WORKLOAD=N", help="N pairs on WORKLOAD; repeatable"
    )
    parser.add_argument("--seed", type=int, default=301, help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--traced-pairs", type=int, default=0, metavar="N", help="also N traced pairs per workload")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<topic>.json in the change tree")
    args = parser.parse_args(argv)
    args.pairs = [(name, int(count)) for name, count in (item.split("=", 1) for item in args.pairs)]
    args.out = args.out or args.change / f"BENCH_{args.topic}.json"
    return args


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run in tree; returns its result record (the last stdout line, parsed)."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    started = time.time()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr_tail": done.stderr[-2000:]}
    result.update({"seed": seed, "exit_code": done.returncode, "started": started})
    return result


def spread(values):
    """Median and quartiles of values."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def metric_directions(bench):
    """Metric name -> "lower" or "higher", as BENCHMARK.json declares it."""
    return {m["name"]: m["better"] for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}


def metric_bounds(bench):
    """Metric name -> the relative bound by which it may worsen, for the metrics BENCHMARK.json bounds."""
    return {m["name"]: m["bound"] for m in bench.get("end_to_end", []) if "bound" in m}


def verdict(row, bound):
    """claim_met and within_bound for one summarized metric; see the module docstring."""
    parent, change = row["parent"]["median"], row["change"]["median"]
    gain = parent - change if row["better"] == "lower" else change - parent
    within = None
    if bound is not None:
        within = change <= parent * (1.0 + bound) if row["better"] == "lower" else change >= parent * (1.0 - bound)
    return {
        "claim_met": 10 * row["change_won"] >= 9 * row["pairs"] and gain > row["parent_quartile_spread"],
        "within_bound": within,
    }


def summarize(runs, directions, bounds):
    """Per workload and metric: each side's median and quartiles, the pairs the change won and the verdict.

    Each workload also gets each side's fits per run, which peak_rss_mb tracks.
    """
    out = {}
    for workload, pairs in runs.items():
        complete = [pair for pair in pairs if "parent" in pair and "change" in pair]
        if not complete:
            continue
        names = sorted(set(complete[0]["parent"]["metrics"]) & set(complete[0]["change"]["metrics"]))
        table = {}
        for name in names:
            parent = [pair["parent"]["metrics"][name]["value"] for pair in complete]
            change = [pair["change"]["metrics"][name]["value"] for pair in complete]
            lower_better = directions.get(name, "lower") == "lower"
            won = sum((c < p) if lower_better else (c > p) for p, c in zip(parent, change))
            row = {"unit": complete[0]["parent"]["metrics"][name]["unit"], "better": "lower" if lower_better else "higher"}
            for side, values in (("parent", parent), ("change", change)):
                row[side] = spread(values)
            row["change_won"] = won
            row["pairs"] = len(complete)
            row["parent_quartile_spread"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["verdict"] = verdict(row, bounds.get(name))
            table[name] = row
        # A run that printed no result has no fit count.
        fits = {side: [pair[side].get("attempted") for pair in complete] for side in ("parent", "change")}
        out[workload] = {
            "pairs": len(complete),
            "all_correct": all(pair[side].get("correct") for pair in complete for side in ("parent", "change")),
            "fits_per_run": {side: None if None in counts else spread(counts) for side, counts in fits.items()},
            "metrics": table,
        }
    return out


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            raise SystemExit(f"bench_pairs: no perfbench/run.py under {tree}")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    directions, bounds = metric_directions(bench), metric_bounds(bench)
    doc = {
        "topic": args.topic,
        "written": None,
        "environment": environment(),
        "protocol": {
            "command": "perfbench/run.py --trace 0",
            "seconds": seconds,
            "first_seed": args.seed,
            "pairs": dict(args.pairs),
            "order": "pair i runs the parent first for even i, the change first for odd i; both use seed first_seed + i",
            "traced_pairs": args.traced_pairs,
        },
        "summary": {},
        "traced_summary": {},
        "runs": {},
        "traced": {},
    }

    def save():
        doc["written"] = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        doc["summary"] = summarize(doc["runs"], directions, bounds)
        doc["traced_summary"] = summarize(doc["traced"], directions, bounds)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    def run_pairs(runs, workload, count, trace):
        pairs = runs.setdefault(workload, [])
        for i in range(count):
            seed = args.seed + i
            pair = {"seed": seed}
            pairs.append(pair)
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                pair[side] = run_once(trees[side], workload, seed, seconds, trace)
                fit_s = pair[side]["metrics"].get("fit_s", {}).get("value")
                kind = "traced" if trace else "untraced"
                print(f"bench_pairs: {workload} {kind} seed {seed} {side}: fit_s {fit_s}", file=sys.stderr)
                save()

    for workload, count in args.pairs:
        run_pairs(doc["runs"], workload, count, trace=False)
        if args.traced_pairs:
            run_pairs(doc["traced"], workload, args.traced_pairs, trace=True)
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
