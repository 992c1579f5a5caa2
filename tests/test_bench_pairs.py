"""summarize in scripts/bench_pairs.py: who wins a pair, in which direction, and the fits per run."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402


def run(fits, **values):
    units = {"fit_s": "s", "peak_rss_mb": "MB", "ess.min_per_s": "1/s"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return {"attempted": fits, "failed": 0, "correct": True, "metrics": metrics}


@pytest.fixture(scope="module")
def summary():
    directions = bench_pairs.metric_directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    pairs = [
        # change faster, equal RSS, higher ESS/s
        {"parent": run(8, fit_s=4.0, peak_rss_mb=200.0, **{"ess.min_per_s": 0.1}),
         "change": run(10, fit_s=3.0, peak_rss_mb=200.0, **{"ess.min_per_s": 0.2})},
        # a tie on fit_s, the change's RSS lower, its ESS/s lower
        {"parent": run(8, fit_s=4.0, peak_rss_mb=210.0, **{"ess.min_per_s": 0.3}),
         "change": run(9, fit_s=4.0, peak_rss_mb=205.0, **{"ess.min_per_s": 0.1})},
        # the change slower
        {"parent": run(9, fit_s=3.5, peak_rss_mb=200.0, **{"ess.min_per_s": 0.1}),
         "change": run(9, fit_s=3.6, peak_rss_mb=201.0, **{"ess.min_per_s": 0.1})},
        # a pair whose second run never finished is left out
        {"parent": run(1, fit_s=0.1, peak_rss_mb=1.0, **{"ess.min_per_s": 9.0})},
    ]
    return bench_pairs.summarize({"w": pairs}, directions)["w"]


def test_a_tie_counts_for_neither_side(summary):
    # fit_s: one win, one tie, one loss.
    assert summary["metrics"]["fit_s"]["change_won"] == 1
    assert summary["metrics"]["peak_rss_mb"]["change_won"] == 1
    assert summary["pairs"] == 3


def test_the_direction_comes_from_benchmark_json(summary):
    row = summary["metrics"]["ess.min_per_s"]
    assert row["better"] == "higher"
    assert row["change_won"] == 1  # higher is better: 0.2 > 0.1 wins, 0.1 < 0.3 loses
    assert summary["metrics"]["fit_s"]["better"] == "lower"


def test_the_fits_per_run_are_reported(summary):
    fits = summary["fits_per_run"]
    assert fits["parent"] == {"median": 8, "q1": 8.0, "q3": 8.5}
    assert fits["change"] == {"median": 9, "q1": 9.0, "q3": 9.5}
    assert summary["metrics"]["fit_s"]["parent"] == {"median": 4.0, "q1": 3.75, "q3": 4.0}


def test_traced_pairs_alternate_like_the_untraced_ones(tmp_path, monkeypatch):
    trees = {}
    for side in ("parent", "change"):
        tree = tmp_path / side
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
        (tree / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        trees[tree.resolve()] = side
    calls = []

    def fake_run_once(tree, workload, seed, seconds, trace):
        calls.append((trees[tree], workload, seed, trace))
        return {**run(5, fit_s=float(seed), peak_rss_mb=100.0, **{"ess.min_per_s": 1.0}), "seed": seed}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH_t.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--topic", "t",
            "--pairs", "w=1", "--seed", "901", "--traced-pairs", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [
        ("parent", "w", 901, False), ("change", "w", 901, False),
        ("parent", "w", 901, True), ("change", "w", 901, True),
        ("change", "w", 902, True), ("parent", "w", 902, True),
        ("parent", "w", 903, True), ("change", "w", 903, True),
    ]
    doc = json.loads(out.read_text())
    assert doc["protocol"]["traced_pairs"] == 3
    assert doc["summary"]["w"]["pairs"] == 1
    assert doc["traced_summary"]["w"]["pairs"] == 3
    assert doc["traced_summary"]["w"]["metrics"]["fit_s"]["parent"]["median"] == 902.0
