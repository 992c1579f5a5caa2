"""scripts/step_times.py: a tree against itself times every step it runs and draws the same chain on both sides."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import step_times  # noqa: E402

FIXED_MAP_STEPS = {"update_b", "update_rho", "update_tau", "update_gamma", "update_a", "update_c", "update_z",
                   "update_sigma_star"}


def test_one_tree_against_itself(tmp_path):
    out = tmp_path / "step_times.json"
    argv = [sys.executable, str(ROOT / "scripts" / "step_times.py"), "--parent", str(ROOT), "--change", str(ROOT),
            "--workload", "covariates-p3", "--warmup", "2", "--sweeps", "3", "--rounds", "2", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    summary = doc["summary"]
    # covariates-p3 is a fixed-map fit, so steps 1-3 never run; update_c does, with two covariates.
    assert set(summary) == FIXED_MAP_STEPS | {"sweep", "outside_steps"}
    for name in FIXED_MAP_STEPS | {"sweep"}:
        for side in ("parent", "change"):
            assert summary[name][side]["median"] > 0, (name, side)
    assert len(doc["rounds"]) == 2
    for record in doc["rounds"]:
        for side in record.values():
            assert 0 < side["outside_steps"] < side["sweep"]  # the steps run inside the sweep
    assert doc["protocol"]["blas_threads"] == 1
    assert doc["same_stream"] == {"rng_state": True, "indicators": True}
    assert doc["log_lik"]["parent"] == doc["log_lik"]["change"]


def test_per_sweep_us():
    step_ns = {"update_b": 0, "update_a": 8_000, "update_sigma_star": 20_000}
    reply = {"sweeps": 4, "sweep_ns": 40_000, "step_ns": step_ns}
    out = step_times.per_sweep_us(reply)
    assert out == {"update_a": 2.0, "update_sigma_star": 5.0, "sweep": 10.0, "outside_steps": 3.0}
