"""Simulator and closed-form analytics for a SWIPT cooperative NOMA downlink.

A base station serves a near user and a far user in one NOMA resource
block; the near user harvests energy through hybrid time-switching and
power-splitting and relays the far user's symbol. The enhanced protocol
additionally fills the otherwise idle direct link during the harvesting
slot and combines at the far user by maximal ratio combining; the baseline
leaves that link idle and selection-combines.

The package computes ergodic sum capacity, per-symbol outage probability,
and energy efficiency twice: by deterministic Monte-Carlo simulation over
Rayleigh fading and by closed forms, and cross-validates the two. The
command line and its sweep and CSV helpers live in ``ehs_cnoma.cli``.
"""

from .analytic import AnalyticReport, Exactness
from .model import ChannelVariances, SystemParams, variances_from_distances
from .montecarlo import (
    Estimate,
    EstimatorConfig,
    ValidationReport,
    compare_with_analytic,
    estimate_metrics,
)
from .protocols import Protocol, Thresholds, thresholds

__version__ = "0.1.0"

__all__ = [
    "AnalyticReport",
    "ChannelVariances",
    "Estimate",
    "EstimatorConfig",
    "Exactness",
    "Protocol",
    "SystemParams",
    "Thresholds",
    "ValidationReport",
    "compare_with_analytic",
    "estimate_metrics",
    "thresholds",
    "variances_from_distances",
    "__version__",
]
