"""Sampler benchmark: `cyclemr fit` wall time, ESS per second and a per-step profile.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixedmap-p10 --seed 1 --seconds 30 --trace 0

Prints one JSON object as its last line and exits 0 when every output
check passed.  See harness.py for what a run does and README.md for the
workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def cap_blas_threads():
    """Keep the OpenBLAS pool at most nproc; has effect only before numpy is imported."""
    nproc = os.cpu_count() or 1
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)


def import_program():
    """Put this checkout's src/ first on the path and import cyclemr from there only."""
    if not (SRC / "cyclemr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cyclemr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclemr

    if Path(cyclemr.__file__).resolve().parent != (SRC / "cyclemr").resolve():
        raise SystemExit(f"perfbench: imported cyclemr from {cyclemr.__file__}, not from {SRC}")


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    import_program()
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench_runs")


if __name__ == "__main__":
    sys.exit(main())
