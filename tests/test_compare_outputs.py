"""scripts/compare_outputs.py: a tree against itself is identical; a changed number, dtype or shape is reported."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

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


def test_stored_and_compressed_npz_of_the_same_arrays_differ_in_no_number(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    arrays = {"a": np.linspace(-1.0, 1.0, 12).reshape(3, 2, 2), "gamma": np.array([[0, 1], [1, 0]], dtype=np.int8)}
    for root, save in ((parent, np.savez_compressed), (change, np.savez)):
        root.mkdir()
        save(root / "samples.npz", **arrays)
    assert (parent / "samples.npz").read_bytes() != (change / "samples.npz").read_bytes()
    line = compare_outputs.compare_file(Path("samples.npz"), parent, change)
    assert line == "samples.npz: differs; largest relative difference: none in numbers"


def test_npz_member_with_equal_values_and_a_new_dtype_or_shape_is_named(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    gamma, a = np.array([[0, 1], [1, 0]], dtype=np.int8), np.arange(4.0)
    parent.mkdir()
    change.mkdir()
    np.savez(parent / "dtype.npz", a=a, gamma=gamma)
    np.savez(change / "dtype.npz", a=a, gamma=gamma.astype(np.int64))
    line = compare_outputs.compare_file(Path("dtype.npz"), parent, change)
    assert line == (
        "dtype.npz: differs; largest relative difference: none in numbers; dtype or shape changed: gamma int8 -> int64"
    )
    np.savez(parent / "shape.npz", a=a)
    np.savez(change / "shape.npz", a=a.reshape(2, 2))
    line = compare_outputs.compare_file(Path("shape.npz"), parent, change)
    assert line == (
        "shape.npz: differs; largest relative difference: a inf; dtype or shape changed: a shape (4,) -> (2, 2)"
    )
