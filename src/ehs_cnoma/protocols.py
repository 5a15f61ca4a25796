"""Per-realization physics of the two protocols.

The enhanced hybrid protocol (ehs-mrc) sends an extra symbol x1 to the far
user during the time-switching phase and combines the far user's two copies
of x3 by maximal ratio combining. The baseline (hs-sc) leaves that link
idle and uses selection combining. So the near user's part (SIC, the x2
capacity and the harvested relay power) is one function both protocols
share, near_user. The far user's link terms are shared as well, far_links,
and far_user holds the only protocol branch: how the two copies of x3 are
combined, and whether x1 is sent.

The physics takes gains as floats or as arrays: the simulation kernel
evaluates a tile of grid points over a chunk of trials through the same
functions that a caller runs on one trial's float gains, with each
per-point value that varies in the tile as a (points, 1) column that
broadcasts over the trials. With arrays, the optional `out` rows receive
the capacities and the relay power, so the kernel keeps them with no copy.
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


def decode_threshold(rate: float, alpha: float) -> float:
    """2^(2*rate/(1-alpha)) - 1, the payload-phase decode threshold.

    All three symbols share the (1-alpha) prelog convention here, including
    x1 whose slot actually lasts alpha*T; the alpha-consistent alternative
    2^(rate/alpha) - 1 is deliberately not used. The rate and alpha are
    those of a SystemParams, which checks their ranges.
    """
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


def relay_power(params: SystemParams, g_ccu, out=None):
    """Relay transmit power funded by both harvesting phases.

    eta*rho*g_ccu*(2*alpha/(1-alpha) + delta): the time-switching slot
    contributes 2*alpha/(1-alpha) (its energy is spent over the relaying
    half-slot), the power-splitting fraction contributes delta. The gain
    may be a float or an array and is not checked here; an array result is
    written into `out` when given.
    """
    return np.multiply(params.eta * params.rho * harvest_factor(params), g_ccu, out=out)


def _half_slot_capacity(params: SystemParams, snr_plus_1, out=None):
    """Capacity of a symbol carried in one of the two (1-alpha)/2 payload half-slots.

    Takes 1 + snr, which a caller may have formed for another use too.
    """
    return np.multiply((1.0 - params.alpha) / 2.0, np.log2(snr_plus_1, out=out), out=out)


def near_user(params: SystemParams, thr: Thresholds, g_ccu, out=None):
    """The near user's part, which both protocols share: (c_x2, out_x2, decoded_x3, p_relay).

    SIC ordering: the near user must clear x3 before x2 counts. The
    power-splitting factor scales signal and noise alike in the near-user
    observations, so it cancels from both SINRs. The harvest funds the
    relay power. Equality with a threshold decodes (>= convention). The
    gain may be a float or an array and is not checked here. `out`, if
    given, is a pair of rows that receive c_x2 and p_relay.
    """
    out_c_x2, out_p_relay = (None, None) if out is None else out
    rg_ccu = params.rho * g_ccu
    snr_x2 = params.p_n * rg_ccu
    # 1 + snr_x2 is both the x3 SINR's interference-plus-noise and the x2 capacity's argument
    snr_x2_plus_1 = snr_x2 + 1.0
    sinr_x3 = params.p_f * rg_ccu / snr_x2_plus_1
    # ufuncs rather than `>=`, so `~` is a logical not on float inputs too
    decoded_x3 = np.greater_equal(sinr_x3, thr.psi_r3)
    out_x2 = ~(decoded_x3 & np.greater_equal(snr_x2, thr.psi_r2))
    c_x2 = _half_slot_capacity(params, snr_x2_plus_1, out=out_c_x2)
    return c_x2, out_x2, decoded_x3, relay_power(params, g_ccu, out=out_p_relay)


def far_links(params: SystemParams, g_ceu, g_relay, p_relay):
    """The far user's protocol-free link terms: (rho*g_ceu, direct x3 SINR, relayed x3 SNR).

    Both protocols combine the same two copies of x3, so these are formed
    once per trial whatever protocols far_user then runs. The gains may be
    floats or arrays and are not checked here.
    """
    rg_ceu = params.rho * g_ceu
    sinr_x3_direct = params.p_f * rg_ceu / (params.p_n * rg_ceu + 1.0)
    return rg_ceu, sinr_x3_direct, p_relay * g_relay


def far_user(
    params: SystemParams, thr: Thresholds, protocol: Protocol, links, decoded_x3, out=None
):
    """The far user's part, the only one that differs by protocol: (c_x1, c_x3, out_x1, out_x3).

    links is what far_links returns for the same trials. The enhanced
    protocol sends x1 on the direct link during the alpha slot and combines
    the direct and relayed copies of x3 by maximal ratio combining; the
    baseline leaves that link idle, so x1 is always in outage, and
    selection-combines. A failed x3 decode at the near user (decoded_x3
    false) marks the far user's x3 as lost even when the direct link alone
    clears the threshold. `out`, if given, is a pair of rows that receive
    c_x1 and c_x3; the baseline's c_x1 is the float 0 and is not written.
    """
    out_c_x1, out_c_x3 = (None, None) if out is None else out
    rg_ceu, sinr_x3_direct, snr_x3_relay = links
    if protocol is Protocol.EHS_MRC:
        snr_x1 = rg_ceu * params.p_total
        out_x1 = snr_x1 < thr.psi_r1
        snr_x1_plus_1 = np.add(1.0, snr_x1, out=out_c_x1)
        c_x1 = np.multiply(params.alpha, np.log2(snr_x1_plus_1, out=out_c_x1), out=out_c_x1)
        snr_x3 = np.add(sinr_x3_direct, snr_x3_relay, out=out_c_x3)
    else:
        c_x1 = 0.0
        out_x1 = True  # x1 is never transmitted
        snr_x3 = np.maximum(sinr_x3_direct, snr_x3_relay, out=out_c_x3)
    out_x3 = ~(decoded_x3 & np.greater_equal(snr_x3, thr.psi_r3))
    c_x3 = _half_slot_capacity(params, np.add(1.0, snr_x3, out=out_c_x3), out=out_c_x3)
    return c_x1, c_x3, out_x1, out_x3
