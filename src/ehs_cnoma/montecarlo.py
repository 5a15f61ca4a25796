"""Deterministic Monte-Carlo estimator with exact worker-count invariance.

Trials are cut into fixed-size chunks; each chunk is reduced to counts and
stable single-pass moments, and chunks are merged in index order with the
exact count-weighted update. The result is therefore a pure function of
(params, variances, config) no matter how many workers ran the chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels, analytic, model
from .analytic import AnalyticReport, Exactness
from .model import ChannelVariances, SystemParams
from .protocols import Protocol, thresholds

CHUNK_TRIALS = 32768

METRIC_IDS = (
    "c_x1",
    "c_x2",
    "c_x3",
    "esc_total",
    "op_x1",
    "op_x2_ccu",
    "op_x3_ceu",
    "mean_p_relay",
    "ee",
)

_CONT_INDEX = {"c_x1": 0, "c_x2": 1, "c_x3": 2, "esc_total": 3, "mean_p_relay": 4}
_FLAG_INDEX = {"op_x1": 0, "op_x2_ccu": 1, "op_x3_ceu": 2}


@dataclass(frozen=True)
class EstimatorConfig:
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class Estimate:
    mean: float
    std_error: float
    n: int


@dataclass(frozen=True)
class ValidationRow:
    metric: str
    analytic: float
    simulated: float
    std_error: float
    z: float | None
    status: str  # OK, FAIL, or APPROX


@dataclass(frozen=True)
class ValidationReport:
    protocol: Protocol
    rows: tuple[ValidationRow, ...]

    @property
    def failed(self) -> bool:
        return any(row.status == "FAIL" for row in self.rows)


def _chunk_bounds(trials: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + CHUNK_TRIALS, trials)) for lo in range(0, trials, CHUNK_TRIALS)]


def _run_chunk(params, varz, cfg, protocol, thr, lo, hi):
    # an overflow leaves a non-finite moment, which estimate_metrics reports
    # as one error rather than as a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        g_ccu, g_ceu, g_relay = model.sample_gains(varz, cfg.seed, lo, hi)
        return _kernels.accumulate_chunk(params, thr, protocol, g_ccu, g_ceu, g_relay)


def _merge(a, b):
    # exact count-weighted pooling of (n, means, m2, co-moment, counts)
    na, mean_a, m2_a, com_a, cnt_a = a
    nb, mean_b, m2_b, com_b, cnt_b = b
    n = na + nb
    d = mean_b - mean_a
    w = na * nb / n
    mean = mean_a + d * (nb / n)
    m2 = m2_a + m2_b + d * d * w
    com = com_a + com_b + d[3] * d[4] * w
    return n, mean, m2, com, cnt_a + cnt_b


def _continuous_estimate(n, means, m2, idx) -> Estimate:
    if n > 1:
        se = math.sqrt(m2[idx] / (n - 1) / n)
    else:
        se = 0.0
    return Estimate(float(means[idx]), se, n)


def _flag_estimate(n, counts, idx) -> Estimate:
    p = counts[idx] / n
    if n > 1:
        se = math.sqrt(p * (1.0 - p) * n / (n - 1) / n)
    else:
        se = 0.0
    return Estimate(float(p), se, n)


def _ratio_estimate(n, means, m2, com) -> Estimate:
    mean_esc = float(means[3])
    mean_p = float(means[4])
    if mean_p == 0.0:
        return Estimate(math.nan, math.nan, n)
    ratio = mean_esc / mean_p
    if n <= 1:
        return Estimate(ratio, 0.0, n)
    var_esc = m2[3] / (n - 1)
    var_p = m2[4] / (n - 1)
    cov = com / (n - 1)
    # first-order variance of a ratio of sample means
    var_ratio = (var_esc - 2.0 * ratio * cov + ratio * ratio * var_p) / (mean_p * mean_p)
    return Estimate(ratio, math.sqrt(max(var_ratio, 0.0) / n), n)


def estimate_metrics(
    params: SystemParams,
    varz: ChannelVariances,
    cfg: EstimatorConfig,
    protocol: Protocol,
    workers: int = 1,
) -> dict[str, Estimate]:
    """Monte-Carlo estimates of all capacity, outage, and power metrics.

    Returns Estimates keyed by the ids in METRIC_IDS; ee is the ratio of
    the esc_total and mean_p_relay means with a first-order standard error.
    """
    thr = thresholds(params)
    bounds = _chunk_bounds(cfg.trials)
    if workers <= 1 or len(bounds) == 1:
        parts = [_run_chunk(params, varz, cfg, protocol, thr, lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda b: _run_chunk(params, varz, cfg, protocol, thr, *b), bounds)
            )
    total = parts[0]
    for part in parts[1:]:
        total = _merge(total, part)
    n, means, m2, com, counts = total
    if not (np.isfinite(means).all() and np.isfinite(m2).all() and math.isfinite(com)):
        snr_db = 10.0 * math.log10(params.rho) if params.rho > 0.0 else -math.inf
        raise ValueError(
            f"simulated moments overflow at snr_db={snr_db:.6g} (rho={params.rho:.6g}) with "
            f"gain variances ({varz.lambda_ccu:.6g}, {varz.lambda_ceu:.6g}, {varz.lambda_relay:.6g})"
        )

    out: dict[str, Estimate] = {}
    for metric, idx in _CONT_INDEX.items():
        out[metric] = _continuous_estimate(n, means, m2, idx)
    for metric, idx in _FLAG_INDEX.items():
        out[metric] = _flag_estimate(n, counts, idx)
    out["ee"] = _ratio_estimate(n, means, m2, com)
    return out


def _row(metric: str, form: AnalyticReport, est: Estimate) -> ValidationRow:
    if form.exactness is not Exactness.EXACT:
        return ValidationRow(metric, form.value, est.mean, est.std_error, None, "APPROX")
    gap = est.mean - form.value
    if est.std_error > 0.0:
        z = gap / est.std_error
    else:
        z = 0.0 if gap == 0.0 else math.inf
    status = "OK" if abs(z) <= 3.0 else "FAIL"
    return ValidationRow(metric, form.value, est.mean, est.std_error, z, status)


def compare_with_analytic(
    params: SystemParams,
    varz: ChannelVariances,
    cfg: EstimatorConfig,
    protocol: Protocol,
    workers: int = 1,
) -> ValidationReport:
    """Cross-check simulation against the closed forms.

    One row per metric with a closed form, in METRIC_IDS order. Forms
    tagged exact are z-tested and flagged FAIL beyond three standard
    errors. Approximate forms are listed with their gap for inspection and
    never fail on the gap alone.
    """
    est = estimate_metrics(params, varz, cfg, protocol, workers=workers)
    forms = analytic.closed_forms(params, varz, protocol)
    rows = tuple(_row(m, forms[m], est[m]) for m in METRIC_IDS if m in forms)
    return ValidationReport(protocol, rows)
