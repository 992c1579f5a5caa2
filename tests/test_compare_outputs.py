"""scripts/compare_outputs.py: a tree against itself is identical, and a changed number is reported."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import compare_outputs  # noqa: E402


def test_one_tree_against_itself_is_identical(tmp_path):
    argv = [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"), "--parent", str(ROOT), "--change", str(ROOT),
            "--work", str(tmp_path / "work")]
    done = subprocess.run(argv, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = set(done.stdout.splitlines())
    for name in ("fit-rgm/samples.npz", "fit-rgm-plus/samples_a.csv", "benchmark/results.csv",
                 "selection-p20-inputs/stats.json", "covariates-p3-fit/summary.json", "eval-rgm.json"):
        assert f"{name}: identical" in lines
    assert "fit-rgm/manifest.json: identical after removing durations and normalizing paths" in lines


def test_differences_and_manifests(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, value, seconds in ((parent, 1.0, 2.5), (change, 1.5, 3.0)):
        root.mkdir()
        (root / "summary.json").write_text(json.dumps({"pip_a": [[0.0, value]], "pip_b": [[1.0]], "mode": "x"}))
        manifest = {"duration_s": seconds, "inputs": {str(root / "stats.json"): "0f"}, "config": {"runtimes": seconds}}
        (root / "manifest.json").write_text(json.dumps(manifest))
    line = compare_outputs.compare_file(Path("summary.json"), parent, change)
    assert line == "summary.json: differs; largest relative difference: pip_a 0.333"
    line = compare_outputs.compare_file(Path("manifest.json"), parent, change)
    assert line == "manifest.json: identical after removing durations and normalizing paths"


def test_manifest_that_still_differs_names_its_keys(tmp_path):
    # The durations differ too, but they are removed before the comparison; the hashes are no numbers.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root, digest, seconds, extra in ((parent, "0f", 2.5, {}), (change, "1e", 3.0, {"note": "x"})):
        root.mkdir()
        manifest = {"duration_s": seconds, "outputs": {"samples.npz": digest}, "seed": 1,
                    "config": {"runtimes": seconds}, **extra}
        (root / "manifest.json").write_text(json.dumps(manifest))
    line = compare_outputs.compare_file(Path("manifest.json"), parent, change)
    assert line == "manifest.json: differs after removing durations and normalizing paths, in: note, outputs"
