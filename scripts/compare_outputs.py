"""Run one fixed set of cyclemr commands against two source trees and compare every output file.

Usage, from anywhere:

    python3 scripts/compare_outputs.py --parent PARENT_TREE --change CHANGE_TREE [--work DIR]

Each tree is a checkout holding src/ and perfbench/.  Each side runs, in
its own process with PYTHONPATH set to the tree's src/ and perfbench/,
the same seeded commands under WORK/parent or WORK/change:

- `simulate` for Cases I and III;
- `fit` in rgm mode with npz samples and in rgm-plus mode with csv samples;
- `evaluate` of both fits, and `baseline` with wmedian and with tsls;
- `benchmark` with rgm, rgm-plus, ivw, tsls and median;
- one `fit` per perfbench workload, on the inputs and config that
  perfbench/workloads.py writes for benchmark seed 1 and chain 0.

Every command gets relative paths, so the manifests of the two sides name
the same inputs.  Each output file is reported as identical or not.
Manifests are compared after removing `duration_s` and the benchmark's
runtimes and after replacing each side's work directory by `<work>`; a
manifest that still differs is reported with the top-level keys that differ.
For any other file that differs, the largest relative difference
|a - b| / max(|a|, |b|) is given for each array in it: each array of an
npz file, each top-level key of a JSON file, the numbers of a CSV file.
The comparison reads values as floats, so an npz member present on both
sides whose dtype or shape changed is also named, as `gamma int8 -> int64`
or `a shape (10, 2, 2) -> (12, 2, 2)`.
Exits 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIM = [["simulate", "--case", case, "--p", "3", "--n", "2000", "--seed", seed, "--out", f"sim-{case}"]
       for case, seed in (("I", "11"), ("III", "12"))]
COMMANDS = [
    *SIM,
    ["fit", "--stats", "sim-I/stats.json", "--config", "config-npz.json", "--out", "fit-rgm", "--mode", "rgm",
     "--b-support", "sim-I/B_support.csv"],
    ["fit", "--stats", "sim-III/stats.json", "--config", "config-csv.json", "--out", "fit-rgm-plus",
     "--mode", "rgm-plus"],
    ["evaluate", "--fit", "fit-rgm", "--truth", "sim-I", "--out", "eval-rgm.json"],
    ["evaluate", "--fit", "fit-rgm-plus", "--truth", "sim-III", "--out", "eval-rgm-plus.json"],
    ["baseline", "--data", "sim-I", "--method", "wmedian", "--out", "baseline-wmedian.json", "--seed", "3"],
    ["baseline", "--data", "sim-III", "--method", "tsls", "--out", "baseline-tsls.json", "--seed", "4"],
    ["benchmark", "--case", "I", "--p", "3", "--n", "1000", "--replicates", "2", "--seed", "5",
     "--methods", "rgm,rgm-plus,ivw,tsls,median", "--config", "config-bench.json", "--out", "benchmark"],
]
CONFIGS = {
    "config-npz.json": {"iterations": 300, "burn_in": 100, "thin": 2, "seed": 21},
    "config-csv.json": {"iterations": 200, "burn_in": 50, "thin": 3, "seed": 22, "sample_format": "csv"},
    "config-bench.json": {"iterations": 150, "burn_in": 50, "thin": 2},
}
BENCHMARK_SEED = 1


def run_side(root):
    """Run the command set in root (the working directory), with the cyclemr and perfbench on sys.path."""
    import harness
    import workloads
    from cyclemr.cli import main

    os.chdir(root)
    for name, doc in CONFIGS.items():
        Path(name).write_text(json.dumps(doc))
    for argv in COMMANDS:
        if main(argv) != 0:
            raise SystemExit(f"command failed: cyclemr {' '.join(argv)}")
    data_seed = int(np.random.SeedSequence(BENCHMARK_SEED).generate_state(1)[0])
    for name, workload in workloads.WORKLOADS.items():
        inputs = workloads.prepare(workload, data_seed, Path(f"{name}-inputs"))
        config = workloads.write_config(workload, harness.fit_seed(BENCHMARK_SEED, 0), Path(f"{name}-config.json"))
        if main(workloads.fit_argv(workload, inputs, config, Path(f"{name}-fit"))) != 0:
            raise SystemExit(f"workload fit failed: {name}")


def relative_difference(a, b):
    """Largest |a - b| / max(|a|, |b|) over two arrays of one shape; equal entries, NaNs included, count 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
    return float(np.nan_to_num(rel, nan=np.inf).max(initial=0.0))


def _numbers(value):
    """The numbers of a JSON value in document order, with None read as NaN."""
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _numbers(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    if value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
        return [float("nan") if value is None else float(value)]
    return []


def _csv_numbers(text):
    numbers = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for field in line.split(","):
            try:
                numbers.append(float(field))
            except ValueError:
                pass
    return numbers


def _manifest(text, root):
    doc = json.loads(text.replace(str(root), "<work>"))
    doc.pop("duration_s", None)
    doc.get("config", {}).pop("runtimes", None)
    return doc


def compare_file(rel, parent_root, change_root):
    """One report line for the file rel of the two sides."""
    parent, change = parent_root / rel, change_root / rel
    if not (parent.exists() and change.exists()):
        return f"{rel}: only in {'parent' if parent.exists() else 'change'}"
    old, new = parent.read_bytes(), change.read_bytes()
    if old == new:
        return f"{rel}: identical"
    if rel.name == "manifest.json":
        a, b = _manifest(old.decode(), parent_root), _manifest(new.decode(), change_root)
        if a == b:
            return f"{rel}: identical after removing durations and normalizing paths"
        missing = object()
        keys = [key for key in sorted(set(a) | set(b)) if a.get(key, missing) != b.get(key, missing)]
        return f"{rel}: differs after removing durations and normalizing paths, in: {', '.join(keys)}"
    changed = []
    if rel.suffix == ".npz":
        with np.load(parent) as a, np.load(change) as b:
            arrays = _pairs({key: a[key] for key in a.files}, {key: b[key] for key in b.files})
        both = [(key, x, y) for key, (x, y) in arrays.items() if key in a.files and key in b.files]
        changed = [f"{key} {x.dtype} -> {y.dtype}" for key, x, y in both if x.dtype != y.dtype]
        changed += [f"{key} shape {x.shape} -> {y.shape}" for key, x, y in both if x.shape != y.shape]
    elif rel.suffix == ".json":
        a, b = json.loads(old), json.loads(new)
        if not (isinstance(a, dict) and isinstance(b, dict)):
            a, b = {"numbers": a}, {"numbers": b}
        arrays = _pairs({key: _numbers(val) for key, val in a.items()}, {key: _numbers(val) for key, val in b.items()})
    else:
        arrays = {"numbers": (_csv_numbers(old.decode()), _csv_numbers(new.decode()))}
    diffs = {key: relative_difference(*pair) for key, pair in arrays.items()}
    listed = ", ".join(f"{key} {diff:.3g}" for key, diff in diffs.items() if diff > 0.0)
    line = f"{rel}: differs; largest relative difference: {listed or 'none in numbers'}"
    return f"{line}; dtype or shape changed: {', '.join(changed)}" if changed else line


def _pairs(a, b):
    """name -> (parent array, change array); a name on one side only pairs with an empty array."""
    return {key: (a.get(key, []), b.get(key, [])) for key in sorted(set(a) | set(b))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout before the change")
    parser.add_argument("--change", type=Path, help="checkout with the change")
    parser.add_argument("--work", type=Path, default=None, help="output root (default: a new temporary directory)")
    parser.add_argument("--run-side", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_side:
        run_side(args.run_side)
        return 0
    if not (args.parent and args.change):
        parser.error("--parent and --change are required")
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    roots = {}
    for side, tree in (("parent", args.parent), ("change", args.change)):
        tree = tree.resolve()
        roots[side] = (work / side).resolve()
        roots[side].mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "perfbench")]))
        subprocess.run([sys.executable, __file__, "--run-side", str(roots[side])], env=env, check=True)
    files = {path.relative_to(root) for root in roots.values() for path in root.rglob("*") if path.is_file()}
    lines = [compare_file(rel, roots["parent"], roots["change"]) for rel in sorted(files)]
    print("\n".join(lines))
    print(f"outputs under {work}")
    return 0 if all(": identical" in line for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
