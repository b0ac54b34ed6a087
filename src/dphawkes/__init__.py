"""Hawkes simulation, moment estimation, and differentially private release."""

from .branching import borel_pmf, discrepancy_bound, tree_sizes
from .complexity import (ComplexityInputs, ComplexityReport, Eta4Estimate,
                         c9_constant, eta4_monte_carlo, inverse_normal_cdf,
                         required_T_nonprivate, required_T_private)
from .counts import CountSeries, SampleStats, bin_events, sample_stats
from .errors import (ConfigError, EstimationFailed, HorizonTooShort, NoCountedEvents,
                     NonConvergence, PreconditionViolated)
from .estimator import EstimateResult, estimate, invert_moments
from .events import EventSequence, read_events_csv, write_events_csv
from .hawkes import HawkesParams, ParamBounds, TheoreticalMoments, theoretical_moments
from .ingest import ingest_timestamps
from .privacy import (PrivacyBudget, SensitivitySpec, laplace_samples, mean_sensitivity,
                      privatize_stats, private_estimate, validate_horizon,
                      variance_sensitivity)
from .simulate import (branching_counts, default_warmup, simulate_branching,
                       simulate_thinning)

__all__ = [
    "borel_pmf", "discrepancy_bound", "tree_sizes",
    "ComplexityInputs", "ComplexityReport", "Eta4Estimate", "c9_constant",
    "eta4_monte_carlo", "inverse_normal_cdf", "required_T_nonprivate", "required_T_private",
    "CountSeries", "SampleStats", "bin_events", "sample_stats",
    "ConfigError", "EstimationFailed", "HorizonTooShort", "NoCountedEvents", "NonConvergence",
    "PreconditionViolated",
    "EstimateResult", "estimate", "invert_moments",
    "EventSequence", "read_events_csv", "write_events_csv",
    "HawkesParams", "ParamBounds", "TheoreticalMoments", "theoretical_moments",
    "ingest_timestamps",
    "PrivacyBudget", "SensitivitySpec", "laplace_samples",
    "mean_sensitivity", "privatize_stats", "private_estimate",
    "validate_horizon", "variance_sensitivity",
    "branching_counts", "default_warmup", "simulate_branching", "simulate_thinning",
]
