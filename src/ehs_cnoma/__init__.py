"""Simulator and closed-form analytics for a SWIPT cooperative NOMA downlink.

A base station serves a near user and a far user in one NOMA resource
block; the near user harvests energy through hybrid time-switching and
power-splitting and relays the far user's symbol. The enhanced protocol
additionally fills the otherwise idle direct link during the harvesting
slot and combines at the far user by maximal ratio combining; the baseline
leaves that link idle and selection-combines.

The package computes ergodic sum capacity, per-symbol outage probability,
and energy efficiency twice: by deterministic Monte-Carlo simulation over
Rayleigh fading and by closed forms, and cross-validates the two.
"""

from .analytic import AnalyticReport, Exactness
from .cli import SweepRow, SweepSpec, main, parse_config, run_sweep, write_csv
from .model import (
    ChannelRealization,
    ChannelVariances,
    SystemParams,
    sample_realization,
    variances_from_distances,
)
from .montecarlo import (
    Estimate,
    EstimatorConfig,
    ValidationReport,
    compare_with_analytic,
    estimate_metrics,
)
from .protocols import LinkMetrics, Protocol, RealizationOutcome, Thresholds, thresholds

__version__ = "0.1.0"

__all__ = [
    "AnalyticReport",
    "ChannelRealization",
    "ChannelVariances",
    "Estimate",
    "EstimatorConfig",
    "Exactness",
    "LinkMetrics",
    "Protocol",
    "RealizationOutcome",
    "SweepRow",
    "SweepSpec",
    "SystemParams",
    "Thresholds",
    "ValidationReport",
    "compare_with_analytic",
    "estimate_metrics",
    "main",
    "parse_config",
    "run_sweep",
    "sample_realization",
    "thresholds",
    "variances_from_distances",
    "write_csv",
    "__version__",
]
