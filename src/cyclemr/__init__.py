"""Bayesian multivariable bidirectional Mendelian randomization over cyclic SEMs."""

from .model import (
    Dimensions,
    DimensionMismatchError,
    ModelParameters,
    NumericalError,
    RawDataSet,
    SummaryStatistics,
    compute_sufficient_stats,
    log_likelihood_raw,
    log_likelihood_summary,
    reduced_form,
    residual_scatter,
)
from .mcmc import Chain, ChainState, Hyperparameters, LatentState, McmcConfig, run_chain
from .summary import FitSummary, summarize, total_effect_trivariate
from .simulate import CaseSpec, SimulationTruth, confounding_truth, gen_data, gen_graph, gen_truth
from .metrics import EvaluationReport, classification_metrics, deviation_metrics, roc_auc

__version__ = "0.1.0"
