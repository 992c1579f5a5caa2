"""Property test of the input boundary of `cyclemr fit`.

Each example starts from a valid stats.json, config document and
--b-support CSV, and breaks exactly one rule that the README states for
one of them.  The fit must then return exit code 3 with a "data_error"
JSON error as the last line on stderr, never raise, and leave no output
directory: a broken input is malformed data, never a numerical failure.
The unbroken inputs fit with exit code 0.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclemr.cli import main
from cyclemr.io import read_matrix, stats_to_dict
from cyclemr.mcmc import Hyperparameters
from cyclemr.model import MOMENT_BLOCKS, RawDataSet, compute_sufficient_stats

TEXT_OR_OBJECT = st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
NOT_NUMBERS = TEXT_OR_OBJECT | st.booleans() | st.none()
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_COUNTS = st.one_of(
    st.integers(0, 9).map(lambda i: i + 0.5), st.booleans(), st.integers(-5, -1), st.just(math.nan),
    st.text(max_size=3), st.none(),
)
BAD_MAP_ENTRIES = st.sampled_from([2, 0.5, -1, math.nan, math.inf, -math.inf])

# Reshapes of a valid block; "transposed" only breaks the non-square blocks.
RESHAPES = {
    "add_row": lambda block: block + block[:1],
    "drop_row": lambda block: block[:-1],
    "add_column": lambda block: [row + row[:1] for row in block],
    "drop_column": lambda block: [row[:-1] for row in block],
    "flat": lambda block: np.ravel(block).tolist(),
    "transposed": lambda block: np.transpose(block).tolist(),
}


def breaks(target, keys, how, payloads=st.none()):
    return st.tuples(st.just(target), st.sampled_from(keys), st.just(how), payloads)


BROKEN = st.one_of(
    breaks("stats", MOMENT_BLOCKS, "reshape", st.sampled_from(sorted(set(RESHAPES) - {"transposed"}))),
    breaks("stats", ["s_yx", "s_yu", "s_xu"], "reshape", st.just("transposed")),
    breaks("stats", MOMENT_BLOCKS, "replace", NOT_NUMBERS | st.floats(allow_nan=False)),
    breaks("stats", MOMENT_BLOCKS, "entry", NOT_NUMBERS | NON_FINITE | st.lists(st.floats(), max_size=2)),
    # The symmetric [0][1]/[1][0] pair, as a multiple of sqrt(d0 d1), makes the block's leading 2 x 2 minor negative.
    breaks("stats", ["s_yy", "s_xx"], "not_psd", st.floats(10.0, 1e6)),
    breaks("stats", ["n", "p", "k", "l"], "replace", BAD_COUNTS),
    breaks("stats", ["p", "k", "l"], "shift", st.sampled_from([-1, 1])),
    breaks("stats", ["n", "p", "k", "l", *MOMENT_BLOCKS], "drop"),
    breaks("config", ["iterations", "burn_in", "thin", "seed"], "replace", BAD_COUNTS),
    breaks("config", [f.name for f in fields(Hyperparameters)], "hyper", NOT_NUMBERS | NON_FINITE),
    # A boolean entry counts as 0 or 1, and a null map is no map.
    breaks("config", ["fixed_b_support"], "map_entry", BAD_MAP_ENTRIES | TEXT_OR_OBJECT | st.none()),
    breaks("config", ["fixed_b_support"], "replace", TEXT_OR_OBJECT | st.booleans()),
    breaks("config", ["unknown_key"], "replace", st.integers()),
    breaks("support", ["entry"], "map_entry", BAD_MAP_ENTRIES),
    breaks("support", ["drop_column", "drop_row"], "reshape"),
)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """(root, stats document, config document, instrument map) of a p = 2 data set with one covariate."""
    root = tmp_path_factory.mktemp("boundary")
    assert main(["simulate", "--case", "I", "--p", "2", "--n", "200", "--seed", "3", "--out", str(root / "sim")]) == 0
    y, x = read_matrix(root / "sim" / "Y.csv"), read_matrix(root / "sim" / "X.csv")
    u = np.random.default_rng(4).standard_normal((y.shape[0], 1))
    stats = stats_to_dict(compute_sufficient_stats(RawDataSet(y=y, x=x, u=u)))
    config = {"iterations": 10, "burn_in": 2, "thin": 1, "seed": 1}
    support = read_matrix(root / "sim" / "B_support.csv").tolist()
    inputs = (root, stats, config, support)
    assert fit(inputs)[0] == 0
    return inputs


def fit(inputs):
    """Write the inputs to a fresh directory and fit them; returns (exit code, stderr, whether the output exists)."""
    root, stats, config, support = inputs
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        tmp = Path(tmp)
        (tmp / "stats.json").write_text(json.dumps(stats))  # NaN and Infinity as json.loads reads them
        (tmp / "config.json").write_text(json.dumps(config))
        rows = [",".join(str(v) for v in row) for row in support]
        cols = len(support[0]) if support else 0
        (tmp / "B_support.csv").write_text("\n".join([f"# rows={len(support)} cols={cols} name=B", *rows]) + "\n")
        argv = ["fit", "--stats", tmp / "stats.json", "--config", tmp / "config.json", "--out", tmp / "fit",
                "--b-support", tmp / "B_support.csv", "--mode", "rgm"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        return code, err.getvalue(), (tmp / "fit").exists()


def broken(inputs, target, key, how, payload):
    root, stats, config, support = copy.deepcopy(inputs)
    doc = {"stats": stats, "config": config}.get(target)
    if target == "support":
        support = RESHAPES[key](support) if how == "reshape" else support
        if how == "map_entry":
            support[0][support[0].index(0.0)] = payload
    elif how == "reshape":
        doc[key] = RESHAPES[payload](doc[key])
    elif how == "replace":
        doc[key] = payload
    elif how == "entry":
        doc[key][0][0] = payload
    elif how == "not_psd":
        block = doc[key]
        block[0][1] = block[1][0] = payload * math.sqrt(block[0][0] * block[1][1])
    elif how == "shift":
        doc[key] += payload
    elif how == "drop":
        del doc[key]
    elif how == "hyper":
        doc["hyper"] = {key: payload}
    elif how == "map_entry":
        doc[key] = copy.deepcopy(support)
        doc[key][0][0] = payload
    return root, stats, config, support


@settings(max_examples=200, deadline=None, database=None)
@given(BROKEN)
def test_one_broken_rule_ends_in_a_json_error(valid, case):
    code, err, out_exists = fit(broken(valid, *case))
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "data_error"
    assert not out_exists


def numbers_in(doc):
    if isinstance(doc, dict):
        return [v for value in doc.values() for v in numbers_in(value)]
    if isinstance(doc, list):
        return [v for value in doc for v in numbers_in(value)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def degenerate_data(case, rng):
    """(Y, X, U) that break no format rule but leave something unidentified: p = 3 traits, k = 3 instruments."""
    n = 2 if case == "n-below-p" else 200
    y, x, u = rng.standard_normal((n, 3)), rng.standard_normal((n, 3)), rng.standard_normal((n, 1))
    y += 0.5 * x
    if case.startswith("zero-variance-instrument"):
        x[:, 0] = 0.0
    elif case == "zero-variance-trait":
        y[:, 0] = 0.0
    elif case == "zero-variance-covariate":
        u[:, 0] = 0.0
    return y, x, u


@pytest.mark.parametrize("case, mode", [
    ("n-below-p", "rgm"), ("zero-variance-instrument", "rgm"), ("zero-variance-instrument-plus", "rgm-plus"),
    ("zero-variance-trait", "rgm"), ("zero-variance-covariate", "rgm"),
])
def test_inputs_that_break_no_rule_fit_with_finite_output(tmp_path, case, mode):
    y, x, u = degenerate_data(case, np.random.default_rng(5))
    (tmp_path / "stats.json").write_text(json.dumps(stats_to_dict(compute_sufficient_stats(RawDataSet(y=y, x=x, u=u)))))
    (tmp_path / "config.json").write_text(json.dumps({"iterations": 60, "burn_in": 20, "thin": 2, "seed": 1}))
    (tmp_path / "B_support.csv").write_text("# rows=3 cols=3 name=B\n1,0,0\n0,1,0\n0,0,1\n")
    argv = ["fit", "--stats", tmp_path / "stats.json", "--config", tmp_path / "config.json", "--out", tmp_path / "fit",
            "--mode", mode]
    if mode == "rgm":
        argv += ["--b-support", tmp_path / "B_support.csv"]
    assert main([str(a) for a in argv]) == 0
    values = numbers_in(json.loads((tmp_path / "fit" / "summary.json").read_text()))
    assert values and all(math.isfinite(v) for v in values)
