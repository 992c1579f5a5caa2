"""scripts/bench_mixing.py: a tree run against itself gives identical mixing figures on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_tree_against_itself(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"summary": {"kept": True}}))  # a pairs file's keys stay
    argv = [sys.executable, str(ROOT / "scripts" / "bench_mixing.py"), "--parent", str(ROOT), "--change", str(ROOT),
            "--workload", "covariates-p3", "--data-seeds", "901", "902", "--chains", "2", "--sweeps", "40",
            "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"kept": True}
    result = doc["mixing"]
    assert result["protocol"]["plan"]["covariates-p3"] == {
        "data_seeds": [901, 902], "chains": 2, "sweeps": 40, "burn_in": 8,
    }
    sides = result["workloads"]["covariates-p3"]
    for side in sides.values():
        assert set(side["per_seed"]) == {"901", "902"}
        for figures in side["per_seed"].values():
            assert figures.pop("seconds") > 0
            assert set(figures) == {"a_sigma", "a", "sigma_star", "c"}
            # p = 3: six off-diagonal A entries, three Sigma* pairs, and C is 3 x 2.
            assert [figures[g]["entries"] for g in ("a_sigma", "a", "sigma_star", "c")] == [9, 6, 3, 6]
            for group in figures.values():
                assert group["ess_min_per_1000"] > 0
                assert group["ess_min_per_1000"] <= group["ess_median_per_1000"]
                assert group["rhat_max"] > 0
    assert sides["parent"] == sides["change"]
