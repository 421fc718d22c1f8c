"""Sparse Bayesian canonical correlation analysis by simulated tempering MCMC.

A spike-and-slab quasi-posterior over canonical directions, sampled by a
Gibbs + MALA + temperature-swap chain with Wang-Landau weight adaptation,
plus lagged-coupling mixing diagnostics, data generators, and reporting.
"""

from .adapt import AdaptState, AdaptiveHook, run_adaptive_chain
from .coupling import (
    CoupledState,
    TvCurve,
    coupled_step,
    lagged_meeting_time,
    replicate_meeting_times,
    tv_bound_curve,
)
from .covariance import (
    Dataset,
    GepPair,
    assemble_gep,
    estimate_gep,
    kendall_tau_matrix,
    psd_repair,
    sample_covariance,
    sine_bridge,
)
from .model import (
    DEFAULT_TEMPERATURES,
    ChainState,
    PriorConfig,
    TemperingLadder,
)
from .postprocess import (
    EstimateReport,
    SampleEstimates,
    build_report,
    extract_posterior_samples,
    inclusion_probabilities,
    mse,
    per_sample_estimates,
    point_estimate,
    support_mode,
    tpr_tnr,
)
from .sampler import (
    ChainTrace,
    advance_chain,
    initial_state,
    run_chain,
)
from .simdata import (
    PopulationModel,
    TruncationSpec,
    build_population_cov,
    sample_gaussian_pairs,
    truncate_copula,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptState",
    "AdaptiveHook",
    "run_adaptive_chain",
    "CoupledState",
    "TvCurve",
    "coupled_step",
    "lagged_meeting_time",
    "replicate_meeting_times",
    "tv_bound_curve",
    "Dataset",
    "GepPair",
    "assemble_gep",
    "estimate_gep",
    "kendall_tau_matrix",
    "psd_repair",
    "sample_covariance",
    "sine_bridge",
    "DEFAULT_TEMPERATURES",
    "ChainState",
    "PriorConfig",
    "TemperingLadder",
    "EstimateReport",
    "SampleEstimates",
    "build_report",
    "extract_posterior_samples",
    "inclusion_probabilities",
    "mse",
    "per_sample_estimates",
    "point_estimate",
    "support_mode",
    "tpr_tnr",
    "ChainTrace",
    "advance_chain",
    "initial_state",
    "run_chain",
    "PopulationModel",
    "TruncationSpec",
    "build_population_cov",
    "sample_gaussian_pairs",
    "truncate_copula",
    "__version__",
]
