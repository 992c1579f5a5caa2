"""Evaluation metrics: ROC AUC, confusion-matrix summaries, effect deviations."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .mcmc import SELECTION


@dataclass
class TargetMetrics:
    """Structure-recovery metrics for one target (graph, confounding, or instruments)."""

    auc: float
    tpr: float
    fdr: float
    mcc: float


@dataclass
class DeviationMetrics:
    """Effect-estimation error over all off-diagonal trait pairs."""

    max_abs_dev: float
    mean_abs_dev: float
    mean_sq_dev: float


@dataclass
class EvaluationReport:
    """Per-target breakdown of one fit against its ground truth.

    FDR and MCC use the 0/0 -> 0 convention.  Graph metrics exclude the
    diagonal; confounding metrics use the strict upper triangle only.
    """

    graph: TargetMetrics
    effects: DeviationMetrics
    confounding: TargetMetrics
    instruments: TargetMetrics | None = None

    def to_dict(self):
        """The report as nested dicts; a fit without instrument selection has no "instruments" entry."""
        return {name: value for name, value in asdict(self).items() if value is not None}


def average_ranks(values):
    """1-based ranks of values with ties given their average rank, as scipy.stats.rankdata; all NaN if any is NaN."""
    values = np.asarray(values, dtype=float).ravel()
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_values[1:] != sorted_values[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def roc_auc(scores, truth) -> float:
    """Mann-Whitney AUC: P(score+ > score-) + 0.5 P(tie).

    Requires at least one positive and one negative label.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).astype(bool).ravel()
    if scores.shape != truth.shape:
        raise ValueError("scores and truth must have matching lengths")
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC needs both a positive and a negative label")
    ranks = average_ranks(scores)
    return float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def classification_metrics(pred, truth):
    """(TPR, FDR, MCC) from binary predictions, with 0/0 ratios mapped to 0."""
    pred = np.asarray(pred).astype(bool).ravel()
    truth = np.asarray(truth).astype(bool).ravel()
    if pred.shape != truth.shape:
        raise ValueError("pred and truth must have matching lengths")
    tp = float(np.sum(pred & truth))
    fp = float(np.sum(pred & ~truth))
    fn = float(np.sum(~pred & truth))
    tn = float(np.sum(~pred & ~truth))
    tpr = tp / (tp + fn) if tp + fn > 0 else 0.0
    fdr = fp / (tp + fp) if tp + fp > 0 else 0.0
    denom = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / denom if denom > 0 else 0.0
    return tpr, fdr, mcc


def deviation_metrics(a_hat, a_true):
    """(max abs, mean abs, mean squared) deviation over off-diagonal entries."""
    a_hat = np.asarray(a_hat, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if a_hat.shape != a_true.shape:
        raise ValueError("effect matrices must share a shape")
    off = ~np.eye(a_hat.shape[0], dtype=bool)
    err = np.abs(a_hat - a_true)[off]
    return float(err.max()), float(err.mean()), float((err**2).mean())


def _target_metrics(scores, pred, truth) -> TargetMetrics:
    tpr, fdr, mcc = classification_metrics(pred, truth)
    try:
        auc = roc_auc(scores, truth)
    except ValueError:
        auc = float("nan")  # single-class truth leaves the AUC undefined
    return TargetMetrics(auc=auc, tpr=tpr, fdr=fdr, mcc=mcc)


def evaluate_fit(fit, truth) -> EvaluationReport:
    """Score a FitSummary against a SimulationTruth on every applicable target."""
    p = truth.a_true.shape[0]
    off = ~np.eye(p, dtype=bool)
    graph = _target_metrics(
        fit.pip_a[off], fit.pip_a[off] >= fit.threshold_a, truth.graph_truth[off]
    )
    dev = deviation_metrics(fit.sparse_a, truth.a_true)
    effects = DeviationMetrics(*dev)
    iu = np.triu_indices(p, 1)
    confounding = _target_metrics(
        fit.pip_z[iu], fit.pip_z[iu] >= fit.threshold_z, truth.confounding_truth[iu]
    )
    instruments = None
    if fit.instrument_mode == SELECTION:
        instruments = _target_metrics(
            fit.pip_b.ravel(), fit.pip_b.ravel() >= fit.threshold_b, truth.b_support.ravel()
        )
    return EvaluationReport(
        graph=graph, effects=effects, confounding=confounding, instruments=instruments
    )
