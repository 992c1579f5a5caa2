import errno
import json
import os
import shutil
import types
import zipfile
from pathlib import Path

import numpy as np
import pytest

import cyclemr.cli
import cyclemr.mcmc
from cyclemr.cli import main
from cyclemr.io import read_json, read_matrix, stats_from_dict, stats_to_dict, write_json, write_matrix
from cyclemr.mcmc import INDICATORS, SAMPLED, run_chain
from cyclemr.model import Dimensions, RawDataSet, SummaryStatistics, compute_sufficient_stats


def run_cli(*argv):
    return main([str(a) for a in argv])


def small_config(tmp_path, name="config.json", **overrides):
    doc = {
        "iterations": 120,
        "burn_in": 40,
        "thin": 4,
        "seed": 5,
        "sample_format": "npz",
        "hyper": {"instrument_mode": "selection"},
    }
    doc.update(overrides)
    path = tmp_path / name
    write_json(path, doc)
    return path


class TestMatrixRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 3)) * 1e-7
        path = tmp_path / "m.csv"
        write_matrix(path, mat, "m")
        np.testing.assert_array_equal(read_matrix(path), mat)
        header = path.read_text().splitlines()[0]
        assert header == "# rows=4 cols=3 name=m"

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "e.csv"
        write_matrix(path, np.zeros((3, 0)), "e")
        out = read_matrix(path)
        assert out.shape == (3, 0)

    def test_stats_json_roundtrip(self):
        rng = np.random.default_rng(1)
        data = RawDataSet(
            y=rng.standard_normal((20, 2)),
            x=rng.standard_normal((20, 3)),
            u=np.zeros((20, 0)),
        )
        stats = compute_sufficient_stats(data)
        doc = json.loads(json.dumps(stats_to_dict(stats)))
        back = stats_from_dict(doc)
        np.testing.assert_array_equal(back.s_yy, stats.s_yy)
        np.testing.assert_array_equal(back.s_yx, stats.s_yx)
        np.testing.assert_array_equal(back.s_xx, stats.s_xx)


class TestSimulateCommand:
    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            code = run_cli(
                "simulate", "--case", "I", "--p", 3, "--n", 50, "--seed", 7, "--out", out
            )
            assert code == 0
        for name in ("A_true.csv", "Y.csv", "X.csv", "stats.json", "B_support.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_digests_match(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--case", "II", "--p", 3, "--n", 40, "--seed", 1, "--out", out)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "simulate"
        import hashlib

        for rel, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert actual == digest
        assert len(list(out.glob("manifest.json"))) == 1

    def test_stats_match_raw_data(self, tmp_path):
        out = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 3, "--n", 60, "--seed", 3, "--out", out)
        stats = stats_from_dict(read_json(out / "stats.json"))
        y = read_matrix(out / "Y.csv")
        x = read_matrix(out / "X.csv")
        recomputed = compute_sufficient_stats(RawDataSet(y=y, x=x, u=np.zeros((60, 0))))
        np.testing.assert_array_equal(stats.s_yy, recomputed.s_yy)


class TestFitCommand:
    def test_fit_summary_shapes(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 80, "--seed", 2, "--out", sim)
        cfg = small_config(tmp_path)
        fit_dir = tmp_path / "fit"
        code = run_cli(
            "fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir,
            "--mode", "rgm-plus",
        )
        assert code == 0
        doc = read_json(fit_dir / "summary.json")
        assert np.asarray(doc["pip_a"]).shape == (2, 2)
        assert np.asarray(doc["pip_b"]).shape == (2, 6)
        assert doc["instrument_mode"] == "selection"
        assert (fit_dir / "samples.npz").exists()
        assert (fit_dir / "loglik.csv").exists()
        diag = read_json(fit_dir / "diagnostics.json")
        assert diag["n_samples"] == 20

    def test_fixed_map_requires_support(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        cfg = small_config(tmp_path, hyper={"instrument_mode": "fixed-map"})
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", tmp_path / "f")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        cfg = small_config(tmp_path, typo_key=1)
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", tmp_path / "f")
        assert code == 3
        assert "typo_key" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize(
        "overrides",
        [
            '"hyper": {"instrument_mode": "selection", "lam": NaN}',
            '"hyper": {"instrument_mode": "selection", "omega1": NaN}',
            '"hyper": {"instrument_mode": "selection", "b_prior_sd": Infinity}',
            '"hyper": {"instrument_mode": "selection", "nu1": "0.1"}',
            '"hyper": {"instrument_mode": "selection", "tau_c": true}',
            '"hyper": 3',
            '"seed": "3"',
            '"iterations": 20.9',
            '"burn_in": "5"',
            '"thin": 1.5',
            '"seed": 0.5',
            '"fixed_b_support": [[1, null, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]',
            '"fixed_b_support": {"a": 1}',
        ],
        ids=[
            "lam-nan", "omega1-nan", "b_prior_sd-infinity", "nu1-string", "tau_c-bool", "hyper-not-object",
            "seed-string", "iterations-fractional", "burn_in-string", "thin-fractional",
            "seed-fractional", "fixed_b_support-null", "fixed_b_support-object",
        ],
    )
    def test_malformed_config_exits_3(self, tmp_path, capsys, overrides):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        cfg = tmp_path / "config.json"
        cfg.write_text('{"iterations": 20, "burn_in": 5, "thin": 1, "seed": 1, ' + overrides + "}")
        out = tmp_path / "f"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", out, "--mode", "rgm-plus")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "ValueError"
        assert not out.exists()

    def test_retired_config_keys_load(self, tmp_path):
        # Keys of earlier versions' proposal tuning are accepted and ignored.
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        cfg = small_config(
            tmp_path, adapt_proposals=True, hyper={"instrument_mode": "selection", "xi_a": 0.01, "xi_b": 0.5}
        )
        fit_dir = tmp_path / "fit"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir, "--mode", "rgm-plus")
        assert code == 0
        snapshot = read_json(fit_dir / "manifest.json")["config"]
        assert "adapt_proposals" not in snapshot
        assert not {"xi_a", "xi_b"} & set(snapshot["hyper"])
        assert "xi_a" not in read_json(fit_dir / "diagnostics.json")

    @pytest.mark.parametrize("value", ["2", "0.5", "nan", "-1"])
    def test_b_support_entry_not_0_or_1_exits_3(self, tmp_path, capsys, value):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "III", "--p", 3, "--n", 200, "--seed", 2, "--out", sim)
        support = read_matrix(sim / "B_support.csv").astype(object)
        row, col = np.argwhere(support == 0)[0]  # a column outside the trait's instruments
        support[row, col] = value
        path = tmp_path / "B_support.csv"
        path.write_text("\n".join([f"# rows={support.shape[0]} cols={support.shape[1]} name=B_support",
                                   *(",".join(str(v) for v in line) for line in support)]) + "\n")
        out = tmp_path / "f"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", small_config(tmp_path), "--out", out,
                       "--b-support", path, "--mode", "rgm")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "ValueError"
        assert "fixed_b_support" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("header_rows, body_rows", [(2, 3), (0, 2)], ids=["extra-row", "rows-0-with-body"])
    def test_b_support_row_count_mismatch_exits_3(self, tmp_path, capsys, header_rows, body_rows):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        lines = (sim / "B_support.csv").read_text().splitlines()
        cols = len(lines[1].split(","))
        body = [",".join(["1"] * cols)] * body_rows
        support = tmp_path / "B_support.csv"
        support.write_text("\n".join([f"# rows={header_rows} cols={cols} name=B_support", *body]) + "\n")
        out = tmp_path / "f"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", small_config(tmp_path), "--out", out,
                       "--b-support", support, "--mode", "rgm")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "DimensionMismatchError"
        assert not out.exists()

    def test_integral_float_counts_load(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        cfg = small_config(tmp_path, iterations=1.2e2, burn_in=4e1, thin=4.0)
        fit_dir = tmp_path / "fit"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir, "--mode", "rgm-plus")
        assert code == 0
        iterations = read_json(fit_dir / "manifest.json")["config"]["iterations"]
        assert iterations == 120 and isinstance(iterations, int)
        assert read_json(fit_dir / "diagnostics.json")["n_samples"] == 20

    @pytest.mark.parametrize(
        "key, value, code, error",
        [
            ("n", "500", 3, "ValueError"),
            ("p", 3.0, 0, None),
            ("n", 500.5, 3, "ValueError"),
            ("n", True, 3, "ValueError"),
            ("n", float("nan"), 3, "ValueError"),
            ("n", float("inf"), 3, "ValueError"),
            ("s_yy", lambda block: [[float("inf"), *block[0][1:]], *block[1:]], 3, "ValueError"),
            ("s_yx", lambda block: np.transpose(block).tolist(), 3, "DimensionMismatchError"),
            ("s_yy", lambda block: np.ravel(block).tolist(), 3, "DimensionMismatchError"),
            ("s_yy", {"a": 1}, 3, "ValueError"),
            ("s_yy", lambda block: [[block[0][0], 50.0, *block[0][2:]], [50.0, *block[1][1:]], *block[2:]], 3,
             "ValueError"),
            ("s_yy", lambda block: [[block[0][0], block[0][1] + 1.0, *block[0][2:]], *block[1:]], 3, "ValueError"),
        ],
        ids=[
            "n-string", "p-integral-float", "n-fractional", "n-bool", "n-nan", "n-infinity", "s_yy-infinity",
            "s_yx-transposed", "s_yy-flat", "s_yy-object", "s_yy-not-psd", "s_yy-asymmetric",
        ],
    )
    def test_malformed_stats_exits_3(self, tmp_path, capsys, key, value, code, error):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 3, "--n", 500, "--seed", 2, "--out", sim)
        doc = read_json(sim / "stats.json")
        doc[key] = value(doc[key]) if callable(value) else value
        stats_path = tmp_path / "stats.json"
        stats_path.write_text(json.dumps(doc))  # NaN and Infinity as json.loads reads them
        out = tmp_path / "f"
        assert run_cli("fit", "--stats", stats_path, "--config", small_config(tmp_path), "--out", out,
                       "--mode", "rgm-plus") == code
        if code == 3:
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "data_error" and err["type"] == error
            assert not out.exists()

    def test_missing_stats_file(self, tmp_path, capsys):
        code = run_cli("fit", "--stats", tmp_path / "nope.json", "--out", tmp_path / "f")
        assert code == 3
        assert not (tmp_path / "f").exists()

    def test_b_support_via_config_document(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 60, "--seed", 9, "--out", sim)
        support = read_matrix(sim / "B_support.csv").astype(int)
        cfg = small_config(
            tmp_path,
            hyper={"instrument_mode": "fixed-map"},
            fixed_b_support=support.tolist(),
        )
        fit_dir = tmp_path / "fit"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir)
        assert code == 0
        doc = read_json(fit_dir / "summary.json")
        np.testing.assert_array_equal(np.asarray(doc["pip_b"]), support.astype(float))

    def test_same_seed_identical_fit(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 80, "--seed", 4, "--out", sim)
        cfg = small_config(tmp_path)
        f1, f2 = tmp_path / "f1", tmp_path / "f2"
        for fd in (f1, f2):
            run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fd,
                    "--mode", "rgm-plus")
        assert (f1 / "summary.json").read_bytes() == (f2 / "summary.json").read_bytes()
        assert (f1 / "loglik.csv").read_bytes() == (f2 / "loglik.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["rgm", "rgm-plus"])
    def test_samples_npz_is_stored_and_holds_the_chain(self, tmp_path, mode):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 80, "--seed", 4, "--out", sim)
        cfg = small_config(tmp_path)
        support = ["--b-support", sim / "B_support.csv"] if mode == "rgm" else []
        fit_dir = tmp_path / "fit"
        assert run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir, "--mode", mode,
                       *support) == 0
        with zipfile.ZipFile(fit_dir / "samples.npz") as archive:
            assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
        config, _ = cyclemr.cli._fit_config(
            read_json(cfg), mode, read_matrix(sim / "B_support.csv") if support else None
        )
        chain = run_chain(stats_from_dict(read_json(sim / "stats.json")), config)
        with np.load(fit_dir / "samples.npz") as samples:
            assert samples.files == list(SAMPLED)
            for name in SAMPLED:
                assert samples[name].dtype == (np.int8 if name in INDICATORS else np.float64)
                assert samples[name].shape[0] == chain.n_samples
                np.testing.assert_array_equal(samples[name], getattr(chain, name))

    def test_nan_met_inside_a_sweep_exits_4_with_its_iteration(self, tmp_path, monkeypatch, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 80, "--seed", 4, "--out", sim)
        update_rho = cyclemr.mcmc.update_rho

        def poisoned(state, hyper, rng):  # step 6's inverse-gamma draw then meets a NaN rate
            update_rho(state, hyper, rng)
            if state.iteration == 5:
                state.latent.tau[0, 1] = np.nan

        monkeypatch.setattr(cyclemr.mcmc, "update_rho", poisoned)
        out = tmp_path / "fit"
        code = run_cli("fit", "--stats", sim / "stats.json", "--config", small_config(tmp_path), "--out", out,
                       "--mode", "rgm-plus")
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical_error" and err["type"] == "NumericalError"
        assert err["message"].startswith("iteration 5: ")
        assert not out.exists()


class TestEvaluateCommand:
    def test_end_to_end_report(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 3, "--n", 300, "--seed", 6, "--out", sim)
        cfg = small_config(tmp_path)
        fit_dir = tmp_path / "fit"
        run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit_dir,
                "--mode", "rgm-plus")
        report_path = tmp_path / "report.json"
        code = run_cli("evaluate", "--fit", fit_dir, "--truth", sim, "--out", report_path)
        assert code == 0
        report = read_json(report_path)
        assert 0.0 <= report["graph"]["auc"] <= 1.0
        assert 0.0 <= report["confounding"]["auc"] <= 1.0
        assert report["effects"]["mean_abs_dev"] >= 0.0
        assert "instruments" in report


class TestBaselineCommand:
    def test_baseline_outputs(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "III", "--p", 3, "--n", 400, "--seed", 8, "--out", sim)
        for method in ("ivw", "tsls"):
            out = tmp_path / f"{method}.json"
            code = run_cli("baseline", "--data", sim, "--method", method, "--out", out, "--seed", 1)
            assert code == 0
            doc = read_json(out)
            assert np.asarray(doc["effect"]).shape == (3, 3)
            assert np.all(np.asarray(doc["instrument_map"]).sum(axis=0) <= 1 + 1)
        # pleiotropic columns must have been reassigned to single owners
        imap = np.asarray(read_json(tmp_path / "ivw.json")["instrument_map"])
        assert np.all(imap.sum(axis=0) == 1)

    def test_tsls_non_finite_trait_exits_3(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        run_cli("simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 2, "--out", sim)
        lines = (sim / "Y.csv").read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        (sim / "Y.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "tsls.json"
        assert run_cli("baseline", "--data", sim, "--method", "tsls", "--out", out) == 3
        assert "finite" in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()


class TestBenchmarkCommand:
    def test_jobs_do_not_change_results(self, tmp_path, monkeypatch):
        for name in cyclemr.cli.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)  # so that the workers' BLAS thread cap is set and undone
        environ = dict(os.environ)
        cfg = small_config(tmp_path)
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"bench{jobs}"
            code = run_cli(
                "benchmark", "--case", "I", "--p", 2, "--n", 60, "--replicates", 2,
                "--jobs", jobs, "--seed", 13, "--out", out, "--config", cfg,
                "--methods", "rgm-plus,ivw",
            )
            assert code == 0
            outs.append(out)
        assert (outs[0] / "results.csv").read_bytes() == (outs[1] / "results.csv").read_bytes()
        assert (outs[0] / "seeds.csv").read_bytes() == (outs[1] / "seeds.csv").read_bytes()
        assert dict(os.environ) == environ

    def test_workers_get_one_blas_thread_unless_set(self, monkeypatch):
        first, *others = cyclemr.cli.BLAS_THREAD_VARS
        monkeypatch.setenv(first, "3")
        for name in others:
            monkeypatch.delenv(name, raising=False)
        with cyclemr.cli._one_blas_thread():
            assert [os.environ[name] for name in (first, *others)] == ["3"] + ["1"] * len(others)
        assert os.environ[first] == "3" and not any(name in os.environ for name in others)

    def test_results_shape(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "bench"
        run_cli(
            "benchmark", "--case", "I", "--p", 2, "--n", 60, "--replicates", 2,
            "--jobs", 1, "--seed", 3, "--out", out, "--config", cfg, "--methods", "rgm-plus",
        )
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "method,target,metric,mean,sd"
        targets = {line.split(",")[1] for line in lines[1:]}
        assert {"graph", "effects", "confounding", "instruments"} <= targets
        seeds = (out / "seeds.csv").read_text().strip().splitlines()
        assert len(seeds) == 3

    def test_unknown_method_rejected(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run_cli(
            "benchmark", "--case", "I", "--p", 2, "--n", 60, "--replicates", 1,
            "--jobs", 1, "--seed", 3, "--out", out, "--methods", "egger",
        )
        assert code == 3
        assert not out.exists()


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A Case I simulation, a short selection-mode config and a finished fit of it, shared read-only."""
    root = tmp_path_factory.mktemp("finished")
    sim, fit = root / "sim", root / "fit"
    assert run_cli("simulate", "--case", "I", "--p", 3, "--n", 300, "--seed", 6, "--out", sim) == 0
    cfg = small_config(root)
    assert run_cli("fit", "--stats", sim / "stats.json", "--config", cfg, "--out", fit, "--mode", "rgm-plus") == 0
    return types.SimpleNamespace(sim=sim, cfg=cfg, fit=fit)


# command -> (the cli writer a failing write patches, argv writing into directory `out`).
# evaluate and baseline write one report and no manifest.
COMMANDS = {
    "simulate": ("write_manifest", lambda d, out: ["simulate", "--case", "I", "--p", 2, "--n", 50, "--seed", 1,
                                                   "--out", out]),
    "fit": ("write_manifest", lambda d, out: ["fit", "--stats", d.sim / "stats.json", "--config", d.cfg,
                                              "--out", out, "--mode", "rgm-plus"]),
    "benchmark": ("write_manifest", lambda d, out: ["benchmark", "--case", "I", "--p", 2, "--n", 60,
                                                    "--replicates", 1, "--seed", 3, "--methods", "ivw",
                                                    "--out", out]),
    "evaluate": ("write_json", lambda d, out: ["evaluate", "--fit", d.fit, "--truth", d.sim,
                                               "--out", out / "report.json"]),
    "baseline": ("write_json", lambda d, out: ["baseline", "--data", d.sim, "--method", "ivw",
                                               "--out", out / "report.json"]),
}


class TestFailedCommandRemovesItsOutputs:
    @staticmethod
    def fail_write(monkeypatch, name):
        def failing(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cyclemr.cli, name, failing)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_new_directory_is_removed(self, finished, tmp_path, monkeypatch, capsys, command):
        patched, argv = COMMANDS[command]
        self.fail_write(monkeypatch, patched)
        assert run_cli(*argv(finished, tmp_path / "new" / "out")) == 3
        assert json.loads(capsys.readouterr().err)["type"] == "OSError"
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_existing_directory_keeps_other_files(self, finished, tmp_path, monkeypatch, command):
        # The directory is a finished fit's, so fit is re-run into its own outputs.
        out = tmp_path / "fit"
        shutil.copytree(finished.fit, out)
        (out / "notes.txt").write_text("keep")
        patched, argv = COMMANDS[command]
        self.fail_write(monkeypatch, patched)
        assert run_cli(*argv(finished, out)) == 3
        assert (out / "notes.txt").read_text() == "keep"
        assert not (out / "report.json").exists()
        manifest = out / "manifest.json"
        if manifest.exists():
            assert all((out / name).exists() for name in read_json(manifest)["outputs"])
        # A report command writes no manifest, so the fit's stays.
        assert manifest.exists() == (patched == "write_json")

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_out_is_an_existing_file_exits_3(self, finished, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert run_cli(*COMMANDS[command][1](finished, taken)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "FileExistsError"
        assert taken.read_text() == "keep"

    def test_benchmark_checks_out_before_any_replicate(self, tmp_path, monkeypatch, capsys):
        def not_called(task):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(cyclemr.cli, "_replicate_metrics", not_called)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert run_cli(*COMMANDS["benchmark"][1](None, taken)) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "FileExistsError"
        assert taken.read_text() == "keep"


class TestIndicatorFiles:
    @pytest.mark.parametrize("value", [0.5, 2.0, float("nan"), -1.0], ids=["0.5", "2", "nan", "-1"])
    @pytest.mark.parametrize(
        "command, name",
        [
            ("baseline", "B_support"),
            ("evaluate", "B_support"),
            ("evaluate", "graph_truth"),
            ("evaluate", "confounding_truth"),
        ],
    )
    def test_entry_not_0_or_1_exits_3(self, finished, tmp_path, capsys, command, name, value):
        sim = tmp_path / "sim"
        shutil.copytree(finished.sim, sim)
        matrix = read_matrix(sim / f"{name}.csv")
        matrix[0, 1] = value
        write_matrix(sim / f"{name}.csv", matrix, name)
        out = tmp_path / "report.json"
        if command == "baseline":
            code = run_cli("baseline", "--data", sim, "--method", "ivw", "--out", out)
        else:
            code = run_cli("evaluate", "--fit", finished.fit, "--truth", sim, "--out", out)
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_error" and err["type"] == "ValueError"
        assert f"{name}.csv" in err["message"]
        assert not out.exists()


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    def test_bad_case_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--case", "IV", "--p", 3, "--n", 10, "--seed", 1,
                    "--out", tmp_path / "x")
        assert exc.value.code == 2
