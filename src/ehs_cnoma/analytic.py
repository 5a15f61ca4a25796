"""Closed-form ergodic capacities, outage probabilities, energy efficiency.

``closed_forms`` is the one table of which form serves which metric, and
the one place that tags each result with its exactness. EXACT forms follow
from the modeled SINR distributions with no approximation, so simulation
must agree within statistical error. APPROXIMATE forms model the
diversity-combined SINR with a single heuristic exponential tail; they are
evaluated exactly as defined here and their gap to simulation is reported,
never asserted away.

Every form takes one point, as SystemParams and ChannelVariances, or the
namespaces of floats and arrays over many points that model.grid_points
gives in their place, with the same bits per point (see
specfun.elementwise); with arrays, one point that has no value raises for
all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum, unique
from typing import NamedTuple

import numpy as np

from .model import ChannelVariances, SystemParams
from .protocols import Protocol, Thresholds, harvest_factor, thresholds
from .specfun import elementwise, neg_ei_exp

_LN2 = math.log(2.0)


@unique
class Exactness(Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


class AnalyticReport(NamedTuple):
    value: float
    exactness: Exactness


def _neg_ei_exp_or_zero(u):
    # neg_ei_exp(u), with its u -> 0+ limit 0 where u is 0
    if isinstance(u, np.ndarray):
        return np.where(u == 0.0, 0.0, neg_ei_exp(np.where(u == 0.0, 1.0, u)))
    return 0.0 if u == 0.0 else neg_ei_exp(u)


def _capacity_term(prelog, scale):
    # E[prelog * log2(1+X)] for X exponential with mean `scale`; the prelog
    # is positive, so a zero scale gives the float 0 of the limit
    return prelog / _LN2 * _neg_ei_exp_or_zero(scale)


def ergodic_c_x1(params: SystemParams, varz: ChannelVariances) -> float:
    """Ergodic capacity of x1 at the far user; exact, the SNR is exponential."""
    g = varz.lambda_ceu * params.rho * params.p_total
    return _capacity_term(params.alpha, g)


def ergodic_c_x2(params: SystemParams, varz: ChannelVariances) -> float:
    """Ergodic capacity of x2 at the near user; exact after SIC removes x3."""
    q = varz.lambda_ccu * params.rho * params.p_n
    return _capacity_term((1.0 - params.alpha) / 2.0, q)


def ergodic_c_x3(params: SystemParams, varz: ChannelVariances) -> float:
    """Ergodic capacity of x3 under maximal ratio combining; approximate.

    The combined SINR is modeled as the sum of an exponential relay branch
    of mean r, weighted by (1+z) with z = p_n/p_f, and an exponential direct
    branch whose mean is the relay-link variance lambda_relay; the true
    combined distribution is neither exponential nor has these scales, so
    only simulation is authoritative here.
    """
    r = params.eta * params.rho * varz.lambda_ceu * harvest_factor(params)
    z = params.p_n / params.p_f
    prelog = (1.0 - params.alpha) / 2.0
    relay_part = _neg_ei_exp_or_zero(r) * (1.0 + z)
    return prelog / _LN2 * (relay_part + neg_ei_exp(varz.lambda_relay))


@elementwise
def _exp_neg_ratio(num: float, den: float) -> float:
    # exp(-num/den) with the den -> 0+ limit folded in
    if den == 0.0:
        return 0.0
    return math.exp(-num / den)


def op_ccu(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> float:
    """Near-user outage closed form; approximate.

    Inclusion-exclusion of the two SIC decode events with prefactor
    A = p_f/(p_f+p_n) on both, the first event entering without its
    complement. Kept in this exact shape deliberately; the simulated
    outage is the trustworthy number.
    """
    a = params.p_f / (params.p_f + params.p_n)
    term1 = a * _exp_neg_ratio(thr.psi_r3, params.rho * varz.lambda_ccu * params.p_f)
    term2 = a * (1.0 - _exp_neg_ratio(thr.psi_r2, params.rho * varz.lambda_ccu * params.p_n))
    return term1 + term2 - term1 * term2


def op_ceu_x1(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> float:
    """Far-user outage for x1; exact, the SNR is exponential."""
    return 1.0 - _exp_neg_ratio(thr.psi_r1, params.rho * varz.lambda_ceu)


def op_ceu_x3(params: SystemParams, varz: ChannelVariances, thr: Thresholds) -> float:
    """Far-user outage for x3 under maximal ratio combining; approximate.

    The combined branch is modeled as one exponential whose mean is the
    product of the two relay-path variances times the harvesting factor.
    """
    b = params.p_f / (params.p_f + params.p_n)
    coef = harvest_factor(params)
    t1 = b * (1.0 - _exp_neg_ratio(thr.psi_r3, params.rho * varz.lambda_ceu * params.p_f))
    t2 = 1.0 - _exp_neg_ratio(
        thr.psi_r3, params.rho * varz.lambda_ccu * varz.lambda_relay * params.eta * coef
    )
    return t1 + t2 - t1 * t2


def mean_relay_power(params: SystemParams, varz: ChannelVariances) -> float:
    """Expected relay transmit power over the fading distribution."""
    return params.eta * params.rho * varz.lambda_ccu * harvest_factor(params)


def _describe_point(params: SystemParams, varz: ChannelVariances) -> str:
    """The operating point as error messages name it: SNR and gain variances."""
    snr_db = 10.0 * math.log10(params.rho) if params.rho > 0.0 else -math.inf
    return (
        f"snr_db={snr_db:.6g} (rho={params.rho:.6g}) with gain variances "
        f"({varz.lambda_ccu:.6g}, {varz.lambda_ceu:.6g}, {varz.lambda_relay:.6g})"
    )


def _undefined_ee(params: SystemParams, varz: ChannelVariances, mean_p_relay: float) -> ValueError:
    """The one error for an energy efficiency that has no finite value."""
    return ValueError(
        f"energy efficiency undefined at {_describe_point(params, varz)}: "
        f"mean relay power is {mean_p_relay:.6g}"
    )


def energy_efficiency(params: SystemParams, varz: ChannelVariances, esc: float) -> float:
    """Ergodic sum capacity per unit of mean relay power (ratio of means)."""
    if np.any(esc < 0.0):
        raise ValueError(f"esc must be >= 0, got {esc}")
    denom = mean_relay_power(params, varz)
    # a zero or subnormal mean relay power leaves no finite ratio: the error below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ee = np.divide(esc, denom)
    if not np.isfinite(ee).all():
        if np.ndim(ee):
            raise ValueError("energy efficiency undefined at one or more points")
        raise _undefined_ee(params, varz, denom)
    return ee


def closed_forms(
    params: SystemParams, varz: ChannelVariances, protocols: Sequence[Protocol]
) -> list[dict[str, AnalyticReport]]:
    """Closed form of each metric id that has one, with its exactness tag: a table per protocol.

    The tables follow protocols, in order. The baseline transmits no x1
    and has no closed form for the selection-combined x3, so only the
    near-user metrics, which the protocols share, apply to it: where the
    enhanced protocol is asked too, the baseline's table holds the
    enhanced table's c_x2 and op_x2_ccu reports, so each form runs once
    per call. The sum and the energy efficiency inherit the x3
    approximation.
    """
    thr = thresholds(params)
    exact, approx = Exactness.EXACT, Exactness.APPROXIMATE
    c_x2 = AnalyticReport(ergodic_c_x2(params, varz), exact)
    tables = {}
    if Protocol.EHS_MRC in protocols:
        c_x3 = ergodic_c_x3(params, varz)
        c_x1 = ergodic_c_x1(params, varz)
        # this addition order fixes the CSV bytes of the sum
        esc = (c_x2.value + c_x3) + c_x1
        tables[Protocol.EHS_MRC] = enhanced = {
            "c_x1": AnalyticReport(c_x1, exact),
            "c_x2": c_x2,
            "c_x3": AnalyticReport(c_x3, approx),
            "esc_total": AnalyticReport(esc, approx),
            "op_x1": AnalyticReport(op_ceu_x1(params, varz, thr), exact),
            "op_x2_ccu": AnalyticReport(op_ccu(params, varz, thr), approx),
            "op_x3_ceu": AnalyticReport(op_ceu_x3(params, varz, thr), approx),
            "ee": AnalyticReport(energy_efficiency(params, varz, esc), approx),
        }
        op_x2 = enhanced["op_x2_ccu"]
    else:
        op_x2 = AnalyticReport(op_ccu(params, varz, thr), approx)
    tables[Protocol.HS_SC] = {"c_x2": c_x2, "op_x2_ccu": op_x2}
    return [tables[protocol] for protocol in protocols]
