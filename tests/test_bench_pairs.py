"""summarize in scripts/bench_pairs.py: who wins a pair, in which direction, the verdict and the fits per run."""

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


def rules():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return bench_pairs.metric_directions(bench), bench_pairs.metric_bounds(bench)


@pytest.fixture(scope="module")
def summary():
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
    return bench_pairs.summarize({"w": pairs}, *rules())["w"]


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


def fit_s_pairs(parent, change):
    return {"w": [{"parent": run(5, fit_s=p), "change": run(5, fit_s=c)} for p, c in zip(parent, change)]}


PARENT_FIT_S = [2.5, 3.5, 2.5, 3.5, 3.0, 3.0, 2.5, 3.5, 3.0, 3.0]  # median 3.0, quartiles 2.625 and 3.375


@pytest.mark.parametrize(
    "change, claim_met",
    [
        # 9 of 10 won and a median gap of 1.0 s against a parent spread of 0.75 s
        ([2.0] * 9 + [9.0], True),
        # 8 of 10 won: too few pairs
        ([2.0] * 8 + [9.0, 9.0], False),
        # 10 of 10 won, but the medians differ by 0.1 s, less than the parent's spread
        ([x - 0.1 for x in PARENT_FIT_S], False),
        # 9 of 10 won with a tie for the tenth, which counts for neither side
        ([2.0] * 9 + [3.0], True),
    ],
    ids=["met", "too-few-wins", "inside-spread", "tie"],
)
def test_claim_met_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread(change, claim_met):
    row = bench_pairs.summarize(fit_s_pairs(PARENT_FIT_S, change), *rules())["w"]["metrics"]["fit_s"]
    assert row["parent_quartile_spread"] == pytest.approx(0.75)
    assert row["verdict"]["claim_met"] is claim_met


@pytest.mark.parametrize("change, within", [(3.74, True), (3.76, False)])
def test_within_bound_reads_the_relative_bound_from_benchmark_json(change, within):
    # fit_s may worsen by 25%: 3.0 s may become 3.75 s.
    row = bench_pairs.summarize(fit_s_pairs([3.0] * 3, [change] * 3), *rules())["w"]["metrics"]["fit_s"]
    assert row["verdict"] == {"claim_met": False, "within_bound": within}


def test_a_metric_without_a_bound_has_no_within_bound(summary):
    assert summary["metrics"]["ess.min_per_s"]["verdict"]["within_bound"] is None


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
