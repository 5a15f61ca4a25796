"""Closed-form ergodic capacities, outage probabilities, energy efficiency.

Each result carries an exactness tag. EXACT forms follow from the modeled
SINR distributions with no approximation, so simulation must agree within
statistical error. APPROXIMATE forms model the diversity-combined SINR with
a single heuristic exponential tail; they are evaluated exactly as defined
here and their gap to simulation is reported, never asserted away.
``closed_forms`` is the one table of which form serves which metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique

from .model import ChannelVariances, SystemParams
from .protocols import Protocol, Thresholds, thresholds
from .specfun import neg_ei_exp

_LN2 = math.log(2.0)


@unique
class Exactness(Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class AnalyticReport:
    value: float
    exactness: Exactness


@dataclass(frozen=True)
class ErgodicTerms:
    """Exponential-mean scales feeding the capacity closed forms.

    g: far-user x1 SNR scale. q: near-user x2 SNR scale. r: relay branch
    scale absorbing both harvesting phases. z: power coefficient ratio
    p_n/p_f. s: relay link variance.
    """

    g: float
    q: float
    r: float
    z: float
    s: float


def ergodic_terms(params: SystemParams, varz: ChannelVariances) -> ErgodicTerms:
    coef = 2.0 * params.alpha / (1.0 - params.alpha) + params.delta
    return ErgodicTerms(
        g=varz.lambda_ceu * params.rho * params.p_total,
        q=varz.lambda_ccu * params.rho * params.p_n,
        r=params.eta * params.rho * varz.lambda_ceu * coef,
        z=params.p_n / params.p_f,
        s=varz.lambda_relay,
    )


def _capacity_term(prelog: float, scale: float) -> float:
    # E[prelog * log2(1+X)] for X exponential with mean `scale`
    if scale == 0.0:
        return 0.0
    return prelog / _LN2 * neg_ei_exp(scale)


def ergodic_c_x1(params: SystemParams, varz: ChannelVariances) -> AnalyticReport:
    """Ergodic capacity of x1 at the far user; exact, the SNR is exponential."""
    terms = ergodic_terms(params, varz)
    return AnalyticReport(_capacity_term(params.alpha, terms.g), Exactness.EXACT)


def ergodic_c_x2(params: SystemParams, varz: ChannelVariances) -> AnalyticReport:
    """Ergodic capacity of x2 at the near user; exact after SIC removes x3."""
    terms = ergodic_terms(params, varz)
    prelog = (1.0 - params.alpha) / 2.0
    return AnalyticReport(_capacity_term(prelog, terms.q), Exactness.EXACT)


def ergodic_c_x3(params: SystemParams, varz: ChannelVariances) -> AnalyticReport:
    """Ergodic capacity of x3 under maximal ratio combining; approximate.

    The combined SINR is modeled as the sum of an exponential relay branch
    of mean r, weighted by (1+z), and an exponential direct branch of mean
    s; the true combined distribution is neither exponential nor has these
    scales, so only simulation is authoritative here.
    """
    terms = ergodic_terms(params, varz)
    prelog = (1.0 - params.alpha) / 2.0
    relay_part = 0.0 if terms.r == 0.0 else neg_ei_exp(terms.r) * (1.0 + terms.z)
    value = prelog / _LN2 * (relay_part + neg_ei_exp(terms.s))
    return AnalyticReport(value, Exactness.APPROXIMATE)


def ergodic_sum(params: SystemParams, varz: ChannelVariances, protocol: Protocol) -> float:
    """Sum of the per-symbol ergodic terms; the baseline has no x1 term.

    Inherits the x3 approximation; for the baseline it also reuses the
    combining model, so treat it as indicative, not exact.
    """
    total = ergodic_c_x2(params, varz).value + ergodic_c_x3(params, varz).value
    if protocol is Protocol.EHS_MRC:
        total += ergodic_c_x1(params, varz).value
    return total


def _exp_neg_ratio(num: float, den: float) -> float:
    # exp(-num/den) with the den -> 0+ limit folded in
    if den == 0.0:
        return 0.0
    return math.exp(-num / den)


def op_ccu(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> AnalyticReport:
    """Near-user outage closed form; approximate.

    Inclusion-exclusion of the two SIC decode events with prefactor
    A = p_f/(p_f+p_n) on both, the first event entering without its
    complement. Kept in this exact shape deliberately; the simulated
    outage is the trustworthy number.
    """
    a = params.p_f / (params.p_f + params.p_n)
    term1 = a * _exp_neg_ratio(thr.psi_r3, params.rho * varz.lambda_ccu * params.p_f)
    term2 = a * (1.0 - _exp_neg_ratio(thr.psi_r2, params.rho * varz.lambda_ccu * params.p_n))
    return AnalyticReport(term1 + term2 - term1 * term2, Exactness.APPROXIMATE)


def op_ceu_x1(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> AnalyticReport:
    """Far-user outage for x1; exact, the SNR is exponential."""
    value = 1.0 - _exp_neg_ratio(thr.psi_r1, params.rho * varz.lambda_ceu)
    return AnalyticReport(value, Exactness.EXACT)


def op_ceu_x3(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> AnalyticReport:
    """Far-user outage for x3 under maximal ratio combining; approximate.

    The combined branch is modeled as one exponential whose mean is the
    product of the two relay-path variances times the harvesting factor.
    """
    b = params.p_f / (params.p_f + params.p_n)
    coef = 2.0 * params.alpha / (1.0 - params.alpha) + params.delta
    t1 = b * (1.0 - _exp_neg_ratio(thr.psi_r3, params.rho * varz.lambda_ceu * params.p_f))
    t2 = 1.0 - _exp_neg_ratio(
        thr.psi_r3, params.rho * varz.lambda_ccu * varz.lambda_relay * params.eta * coef
    )
    return AnalyticReport(t1 + t2 - t1 * t2, Exactness.APPROXIMATE)


def mean_relay_power(params: SystemParams, varz: ChannelVariances) -> float:
    """Expected relay transmit power over the fading distribution."""
    coef = 2.0 * params.alpha / (1.0 - params.alpha) + params.delta
    return params.eta * params.rho * varz.lambda_ccu * coef


def energy_efficiency(params: SystemParams, varz: ChannelVariances, esc: float) -> float:
    """Ergodic sum capacity per unit of mean relay power (ratio of means)."""
    if esc < 0.0:
        raise ValueError(f"esc must be >= 0, got {esc}")
    denom = mean_relay_power(params, varz)
    if denom == 0.0:
        raise ValueError("energy efficiency undefined: mean relay power is zero")
    return esc / denom


def closed_forms(
    params: SystemParams, varz: ChannelVariances, protocol: Protocol
) -> dict[str, AnalyticReport]:
    """Closed form of each metric id that has one, with its exactness tag.

    The baseline transmits no x1 and has no closed form for the
    selection-combined x3, so only the shared near-user metrics apply.
    The sum and the energy efficiency inherit the x3 approximation.
    """
    thr = thresholds(params)
    if protocol is Protocol.HS_SC:
        return {"c_x2": ergodic_c_x2(params, varz), "op_x2_ccu": op_ccu(params, varz, thr)}
    # ergodic_sum fixes the addition order of the sum, hence the CSV bytes
    esc = ergodic_sum(params, varz, protocol)
    return {
        "c_x1": ergodic_c_x1(params, varz),
        "c_x2": ergodic_c_x2(params, varz),
        "c_x3": ergodic_c_x3(params, varz),
        "esc_total": AnalyticReport(esc, Exactness.APPROXIMATE),
        "op_x1": op_ceu_x1(params, varz, thr),
        "op_x2_ccu": op_ccu(params, varz, thr),
        "op_x3_ceu": op_ceu_x3(params, varz, thr),
        "ee": AnalyticReport(energy_efficiency(params, varz, esc), Exactness.APPROXIMATE),
    }
