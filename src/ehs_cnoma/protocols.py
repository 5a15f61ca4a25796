"""Per-realization physics of the two protocols.

The enhanced hybrid protocol (ehs-mrc) sends an extra symbol x1 to the far
user during the time-switching phase and combines the far user's two copies
of x3 by maximal ratio combining. The baseline (hs-sc) leaves that link
idle and uses selection combining. Everything else, including harvesting,
is shared.

The physics takes gains as floats or as equal-length arrays: the
simulation kernel evaluates a whole chunk of trials through the same
functions that a caller runs on one trial's float gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique

import numpy as np

from .model import SystemParams


@unique
class Protocol(Enum):
    EHS_MRC = "ehs-mrc"
    HS_SC = "hs-sc"


@dataclass(frozen=True)
class Thresholds:
    """SINR decode thresholds for the three symbols."""

    psi_r1: float
    psi_r2: float
    psi_r3: float


@dataclass(frozen=True)
class LinkMetrics:
    """All SINRs of one realization plus the relay transmit power.

    Each field is an array when the gains were arrays.
    """

    snr_x1_ceu: float
    sinr_x3_ccu: float
    snr_x2_ccu: float
    sinr_x3_ceu_direct: float
    p_relay: float
    snr_x3_relay: float
    snr_x3_combined: float


def decode_threshold(rate: float, alpha: float) -> float:
    """2^(2*rate/(1-alpha)) - 1, the payload-phase decode threshold.

    All three symbols share the (1-alpha) prelog convention here, including
    x1 whose slot actually lasts alpha*T; the alpha-consistent alternative
    2^(rate/alpha) - 1 is deliberately not used.
    """
    if rate <= 0.0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    try:
        return 2.0 ** (2.0 * rate / (1.0 - alpha)) - 1.0
    except OverflowError:
        raise ValueError(
            f"decode threshold 2^(2*rate/(1-alpha)) overflows at rate={rate}, alpha={alpha}"
        ) from None


def thresholds(params: SystemParams) -> Thresholds:
    """Decode thresholds for the three target rates at the given alpha."""
    return Thresholds(
        psi_r1=decode_threshold(params.r1, params.alpha),
        psi_r2=decode_threshold(params.r2, params.alpha),
        psi_r3=decode_threshold(params.r3, params.alpha),
    )


def harvest_factor(params: SystemParams) -> float:
    """2*alpha/(1-alpha) + delta, shared by the relay power and the closed forms."""
    return 2.0 * params.alpha / (1.0 - params.alpha) + params.delta


def relay_power(params: SystemParams, g_ccu):
    """Relay transmit power funded by both harvesting phases.

    eta*rho*g_ccu*(2*alpha/(1-alpha) + delta): the time-switching slot
    contributes 2*alpha/(1-alpha) (its energy is spent over the relaying
    half-slot), the power-splitting fraction contributes delta. The gain
    may be a float or an array and is not checked here.
    """
    return params.eta * params.rho * harvest_factor(params) * g_ccu


def link_metrics(params: SystemParams, g_ccu, g_ceu, g_relay, protocol: Protocol) -> LinkMetrics:
    """SINRs of either protocol for gains given as floats or equal-length arrays.

    The enhanced protocol sends x1 on the direct link and combines the far
    user's two copies of x3 by maximal ratio combining; the baseline leaves
    that link idle and selection-combines. The power-splitting factor
    scales signal and noise alike in the near-user observations, so it
    cancels from both near-user SINRs. The gains are not checked here.
    """
    rg_ccu = params.rho * g_ccu
    rg_ceu = params.rho * g_ceu
    sinr_x3_dir = params.p_f * rg_ceu / (params.p_n * rg_ceu + 1.0)
    p_rel = relay_power(params, g_ccu)
    snr_relay = p_rel * g_relay
    if protocol is Protocol.EHS_MRC:
        snr_x1 = rg_ceu * params.p_total
        combined = sinr_x3_dir + snr_relay
    else:
        snr_x1 = 0.0
        combined = np.maximum(sinr_x3_dir, snr_relay)
    return LinkMetrics(
        snr_x1_ceu=snr_x1,
        sinr_x3_ccu=params.p_f * rg_ccu / (params.p_n * rg_ccu + 1.0),
        snr_x2_ccu=params.p_n * rg_ccu,
        sinr_x3_ceu_direct=sinr_x3_dir,
        p_relay=p_rel,
        snr_x3_relay=snr_relay,
        snr_x3_combined=combined,
    )


def instantaneous_capacities(
    params: SystemParams, metrics: LinkMetrics, protocol: Protocol
) -> tuple[float, float, float]:
    """Per-realization capacities of (x1, x2, x3) in bits/s/Hz.

    x1 occupies the alpha slot; x2 and x3 share the two payload half-slots.
    """
    half = (1.0 - params.alpha) / 2.0
    if protocol is Protocol.HS_SC:
        c_x1 = 0.0
    else:
        c_x1 = params.alpha * np.log2(1.0 + metrics.snr_x1_ceu)
    c_x2 = half * np.log2(1.0 + metrics.snr_x2_ccu)
    c_x3 = half * np.log2(1.0 + metrics.snr_x3_combined)
    return c_x1, c_x2, c_x3


def outage_flags(
    params: SystemParams, metrics: LinkMetrics, thr: Thresholds, protocol: Protocol
) -> tuple[bool, bool, bool]:
    """Outage indicators (x1 at far user, x2 at near user, x3 at far user).

    SIC ordering: the near user must clear x3 before x2 counts, and a
    failed x3 decode at the near user marks the far user's x3 as lost even
    when the direct link alone clears the threshold. Equality with the
    threshold decodes (>= convention).
    """
    # ufuncs rather than `>=`, so `~` is a logical not on float inputs too
    ccu_ok = np.greater_equal(metrics.sinr_x3_ccu, thr.psi_r3)
    out_x2 = ~(ccu_ok & np.greater_equal(metrics.snr_x2_ccu, thr.psi_r2))
    out_x3 = ~(ccu_ok & np.greater_equal(metrics.snr_x3_combined, thr.psi_r3))
    if protocol is Protocol.HS_SC:
        out_x1 = True  # x1 is never transmitted
    else:
        out_x1 = metrics.snr_x1_ceu < thr.psi_r1
    return out_x1, out_x2, out_x3
