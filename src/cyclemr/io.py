"""File formats: headered matrix CSVs, JSON documents, and run manifests.

Matrices use a one-line header `# rows=R cols=C name=NAME` followed by
comma-separated rows at round-trip precision, so fixtures stay diff-able
and language-neutral.  Nested structures (stats, configs, summaries,
reports) are JSON.  A stats document holds the counts n, p, k, l and each
block of model.MOMENT_BLOCKS as nested lists of exactly its shape.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from pathlib import Path

import numpy as np

from .mcmc import Hyperparameters, McmcConfig
from .model import MOMENT_BLOCKS, Dimensions, DimensionMismatchError, SummaryStatistics, moment_shapes
from .summary import FitSummary

SAMPLE_FORMATS = ("npz", "csv", "none")


def write_matrix(path, matrix, name):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows, cols = matrix.shape
    lines = [f"# rows={rows} cols={cols} name={name}"]
    for row in matrix:
        lines.append(",".join(format(v, ".17g") for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path):
    lines = Path(path).read_text().strip().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise DimensionMismatchError(f"{path}: missing matrix header")
    fields = dict(part.split("=", 1) for part in lines[0][1:].split())
    rows, cols = int(fields["rows"]), int(fields["cols"])
    body = lines[1:]
    if len(body) != (rows if cols else 0):
        raise DimensionMismatchError(f"{path}: {len(body)} body rows, header says rows={rows} cols={cols}")
    if cols == 0 or rows == 0:
        return np.zeros((rows, cols))
    matrix = np.asarray([[float(v) for v in line.split(",")] for line in body], dtype=float)
    if matrix.shape != (rows, cols):
        raise DimensionMismatchError(f"{path}: body shape {matrix.shape} != header ({rows}, {cols})")
    return matrix


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(val) for val in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def write_json(path, payload):
    Path(path).write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def stats_to_dict(stats: SummaryStatistics):
    dims = stats.dims
    doc = {"n": dims.n, "p": dims.p, "k": dims.k, "l": dims.l}
    doc.update({name: getattr(stats, name).tolist() for name in MOMENT_BLOCKS})
    return doc


def _stats_count(key, value):
    """An integer count of the stats document; integral floats such as 3e4 load, bools do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"stats {key} must be an integer, got {value!r}")
    return value


def _is_numbers(value):
    """Whether value is a number other than a bool, or a list of such values nested to any depth."""
    if isinstance(value, list):
        return all(_is_numbers(item) for item in value)
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _moment_block(name, value, shape):
    """A stats block, nested lists of numbers or [] with no entries, as an array; SummaryStatistics checks its shape."""
    if not _is_numbers(value):
        raise ValueError(f"stats {name} must be nested lists of numbers")
    try:
        block = np.array(value, dtype=float)
    except ValueError:  # lists of unequal lengths
        raise DimensionMismatchError(f"{name} is not a matrix, expected shape {shape}") from None
    return block.reshape(shape) if value == [] and 0 in shape else block


def stats_from_dict(doc) -> SummaryStatistics:
    if not isinstance(doc, dict):
        raise ValueError("stats document must be a JSON object")
    expected = {"n", "p", "k", "l", *MOMENT_BLOCKS}
    unknown = set(doc) - expected
    if unknown:
        raise ValueError(f"unknown keys in stats document: {sorted(unknown)}")
    missing = expected - set(doc)
    if missing:
        raise ValueError(f"missing keys in stats document: {sorted(missing)}")
    dims = Dimensions(**{key: _stats_count(key, doc[key]) for key in ("p", "k", "l", "n")})
    blocks = {name: _moment_block(name, doc[name], shape) for name, shape in moment_shapes(dims).items()}
    return SummaryStatistics(**blocks, dims=dims)


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(McmcConfig)}
_HYPER_KEYS = {f.name for f in dataclasses.fields(Hyperparameters)}
# Accepted and ignored, so that config files of earlier versions still load: they set and
# tuned the proposal scales of B, now drawn exactly, and of A, now scaled per entry.
_IGNORED_HYPER_KEYS = {"xi_a", "xi_b"}
_IGNORED_KEYS = {"adapt_proposals"}


def _config_value(name, value):
    if type(_CONFIG_FIELDS[name].default) is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def config_from_dict(doc):
    """Parse a run configuration document, which McmcConfig checks; unknown keys are an error.

    The keys are the McmcConfig fields plus sample_format, with the
    dataclass defaults.  Integer fields also accept integral numbers
    written as floats, such as 5e4.
    """
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    unknown = set(doc) - set(_CONFIG_FIELDS) - {"sample_format"} - _IGNORED_KEYS
    if unknown:
        raise ValueError(f"unknown keys in config document: {sorted(unknown)}")
    hyper_doc = doc.get("hyper", {})
    if not isinstance(hyper_doc, dict):
        raise ValueError("config hyper block must be a JSON object")
    unknown_hyper = set(hyper_doc) - _HYPER_KEYS - _IGNORED_HYPER_KEYS
    if unknown_hyper:
        raise ValueError(f"unknown keys in config hyper block: {sorted(unknown_hyper)}")
    kwargs = {name: _config_value(name, value) for name, value in doc.items() if name in _CONFIG_FIELDS}
    kwargs["hyper"] = Hyperparameters(**{name: value for name, value in hyper_doc.items() if name in _HYPER_KEYS})
    config = McmcConfig(**kwargs)
    sample_format = doc.get("sample_format", "npz")
    if sample_format not in SAMPLE_FORMATS:
        raise ValueError(f"sample_format must be one of {SAMPLE_FORMATS}")
    return config, sample_format


def config_to_dict(config: McmcConfig, sample_format="npz"):
    doc = dataclasses.asdict(config)
    doc["sample_format"] = sample_format
    support = doc.pop("fixed_b_support")
    if support is not None:
        doc["fixed_b_support"] = np.asarray(support).tolist()
    return doc


# The array fields of FitSummary; summary.json also holds its sparse estimates.
_SUMMARY_ARRAYS = [f.name for f in dataclasses.fields(FitSummary) if f.name.startswith(("pip_", "mean_", "ci_"))]


def summary_to_dict(fit):
    doc = {name: getattr(fit, name).tolist() for name in _SUMMARY_ARRAYS}
    for name in ("sparse_a", "sparse_b", "sparse_sigma_star"):
        doc[name] = getattr(fit, name).tolist()
    doc["instrument_mode"] = fit.instrument_mode
    doc["thresholds"] = {"a": fit.threshold_a, "b": fit.threshold_b, "z": fit.threshold_z}
    return doc


def summary_from_dict(doc, threshold_a, threshold_b, threshold_z):
    """Read a summary document back; its sparse estimates follow the given thresholds."""
    return FitSummary(
        **{name: np.asarray(doc[name], dtype=float) for name in _SUMMARY_ARRAYS},
        threshold_a=threshold_a,
        threshold_b=threshold_b,
        threshold_z=threshold_z,
        instrument_mode=doc["instrument_mode"],
    )


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, command, config_snapshot, seed, duration_s, inputs, outputs):
    """One manifest per output directory, with digests of inputs and outputs."""
    from . import __version__

    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "config": config_snapshot,
        "seed": seed,
        "version": __version__,
        "duration_s": duration_s,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {
            str(Path(p).relative_to(out_dir)): sha256_file(p) for p in outputs
        },
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path
