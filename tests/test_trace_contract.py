"""What the traced sampler benchmark in perfbench/ reads from the program.

perfbench/tracing.py wraps attributes of cyclemr.cli, cyclemr.mcmc and
cyclemr.model by name, and sums the (accepted, proposed) pairs that
update_a and update_b return; perfbench/harness.py reads acceptance rates
and the minimum eigenvalue of Sigma* from diagnostics.json.  These tests
run small fits under that tracer, in both instrument modes and with a
covariate, so a change that renames or reshapes any of them fails here.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclemr.cli import main
from cyclemr.io import read_matrix, stats_to_dict, write_json
from cyclemr.model import RawDataSet, compute_sufficient_stats

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

ITERATIONS = 40
SELECTION_STEPS = {"update_psi", "update_eta", "update_phi"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    sim = root / "sim"
    assert main(["simulate", "--case", "I", "--p", "3", "--n", "300", "--seed", "3", "--out", str(sim)]) == 0
    y, x = read_matrix(sim / "Y.csv"), read_matrix(sim / "X.csv")
    u = np.random.default_rng(4).standard_normal((y.shape[0], 1))
    write_json(root / "stats_u.json", stats_to_dict(compute_sufficient_stats(RawDataSet(y=y, x=x, u=u))))
    write_json(root / "config.json", {"iterations": ITERATIONS, "burn_in": 10, "thin": 2, "seed": 1})
    return root


@pytest.mark.parametrize(
    "mode, stats_name",
    [("rgm", "sim/stats.json"), ("rgm-plus", "sim/stats.json"), ("rgm", "stats_u.json")],
    ids=["rgm", "rgm-plus", "rgm-covariate"],
)
def test_traced_fit_reads_what_the_benchmark_needs(inputs, mode, stats_name):
    for module, attr, _ in tracing.WRAPPED:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"
    out = inputs / f"fit-{mode}-{Path(stats_name).stem}"
    argv = [
        "fit", "--stats", str(inputs / stats_name), "--config", str(inputs / "config.json"),
        "--out", str(out), "--mode", mode,
    ]
    if mode == "rgm":
        argv += ["--b-support", str(inputs / "sim" / "B_support.csv")]
    with tracing.Tracer() as tracer:
        assert main(argv) == 0

    for step in ("mcmc.update_a", "mcmc.update_b"):
        accepted, proposed = tracer.proposals[step]
        assert isinstance(accepted, int) and isinstance(proposed, int), step
        assert 0 <= accepted <= proposed and proposed > 0, step
    assert tracer.totals["mcmc.sweep"][0] == ITERATIONS
    # An inlined helper would read zero in the benchmark's per-layer figures without failing it.
    for span in ("model.cholesky", "model.residual_scatter"):
        assert tracer.in_sweep[span][0] > 0, span
    # No step computes a fresh log-likelihood; initial_state does.
    assert tracer.totals["model.loglik"][0] > 0
    expected = set(tracing.UPDATE_STEPS) - (set() if mode == "rgm-plus" else SELECTION_STEPS)
    called = {name.split(".", 1)[1] for name in tracer.in_sweep if name.startswith("mcmc.update_")}
    assert called == expected

    diagnostics = json.loads((out / "diagnostics.json").read_text())
    assert {"accept_rate_a", "accept_rate_b", "sigma_min_eig"} <= set(diagnostics)
    assert diagnostics["accept_rate_b"] == 1.0
