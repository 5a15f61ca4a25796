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
broadcasts over the trials. Given a workspace (see _kernels.Workspace),
every array a step makes lands in one of the workspace rows that the
step names, through `out`, so a tile allocates no array that grows with
its cells; without one each ufunc allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, unique

import numpy as np

from .model import SystemParams
from .specfun import elementwise

_LN2 = math.log(2.0)


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


_decode = elementwise(decode_threshold)


def thresholds(params: SystemParams) -> Thresholds:
    """Decode thresholds for the three target rates at the given alpha.

    The params may hold broadcast arrays, such as a tile's (points, 1)
    columns; each element gets the bits of its own float call.
    """
    return Thresholds(
        psi_r1=_decode(params.r1, params.alpha),
        psi_r2=_decode(params.r2, params.alpha),
        psi_r3=_decode(params.r3, params.alpha),
    )


def harvest_factor(params: SystemParams) -> float:
    """2*alpha/(1-alpha) + delta, shared by the relay power and the closed forms."""
    return 2.0 * params.alpha / (1.0 - params.alpha) + params.delta


def _cells(ws, reads, rows, flags=()):
    # a step's numbered workspace rows and flags, viewed to the broadcast
    # shape of what it reads; with no workspace, Nones: each ufunc allocates
    if ws is None:
        return [None] * len(rows), [None] * len(flags)
    shape = np.broadcast(*[x for x in reads if isinstance(x, np.ndarray)]).shape
    return ws.cells(shape, rows, flags)


def relay_power(params: SystemParams, g_ccu, out=None):
    """Relay transmit power funded by both harvesting phases.

    eta*rho*g_ccu*(2*alpha/(1-alpha) + delta): the time-switching slot
    contributes 2*alpha/(1-alpha) (its energy is spent over the relaying
    half-slot), the power-splitting fraction contributes delta. The gain
    may be a float or an array and is not checked here; an array result is
    written into `out` when given.
    """
    return np.multiply(params.eta * params.rho * harvest_factor(params), g_ccu, out=out)


def _capacity(prelog, snr, out=None):
    """prelog * log2(1 + snr), as prelog / ln 2 * log1p(snr), so a tiny snr keeps its precision.

    The prelog is alpha for x1, sent in the alpha slot, and (1-alpha)/2
    for x2 and x3, each carried in one of the two payload half-slots.
    """
    return np.multiply(prelog / _LN2, np.log1p(snr, out=out), out=out)


def near_user(params: SystemParams, thr: Thresholds, g_ccu, ws=None):
    """The near user's part, which both protocols share: (c_x2, out_x2, decoded_x3, p_relay).

    SIC ordering: the near user must clear x3 before x2 counts. The
    power-splitting factor scales signal and noise alike in the near-user
    observations, so it cancels from both SINRs. The harvest funds the
    relay power. Equality with a threshold decodes (>= convention). The
    gain may be a float or an array and is not checked here. Given a
    workspace ws (see _kernels.Workspace), c_x2 and p_relay land in its
    rows 0 and 1, row 2 (and row 1 before p_relay) is scratch, and
    decoded_x3 and out_x2 land in its flags 0 and 1.
    """
    reads = (g_ccu, params.rho, params.p_n, params.p_f, params.alpha, params.eta, params.delta)
    row, flag = _cells(ws, (*reads, thr.psi_r2, thr.psi_r3), (0, 1, 2), (0, 1))
    rg_ccu = np.multiply(params.rho, g_ccu, out=row[2])
    snr_x2 = np.multiply(params.p_n, rg_ccu, out=row[0])
    signal = np.multiply(params.p_f, rg_ccu, out=row[2])
    # ufuncs rather than `>=`, `&` and `~`, so `~` is a logical not on float inputs too
    cleared_x2 = np.greater_equal(snr_x2, thr.psi_r2, out=flag[1])
    # the x3 SINR's interference-plus-noise, in row 1 until p_relay takes it
    sinr_x3 = np.divide(signal, np.add(snr_x2, 1.0, out=row[1]), out=row[2])
    decoded_x3 = np.greater_equal(sinr_x3, thr.psi_r3, out=flag[0])
    out_x2 = np.invert(np.bitwise_and(decoded_x3, cleared_x2, out=flag[1]), out=flag[1])
    c_x2 = _capacity((1.0 - params.alpha) / 2.0, snr_x2, out=row[0])
    return c_x2, out_x2, decoded_x3, relay_power(params, g_ccu, out=row[1])


def far_links(params: SystemParams, g_ceu, g_relay, p_relay, ws=None):
    """The far user's protocol-free link terms: (rho*g_ceu, direct x3 SINR, relayed x3 SNR).

    Both protocols combine the same two copies of x3, so these are formed
    once per trial whatever protocols far_user then runs. The gains may be
    floats or arrays and are not checked here. Given a workspace ws, the
    terms land in its rows 4, 5 and 6.
    """
    (row, _) = _cells(ws, (g_ceu, params.rho, params.p_n, params.p_f), (4, 5, 6))
    rg_ceu = np.multiply(params.rho, g_ceu, out=row[0])
    noise = np.add(np.multiply(params.p_n, rg_ceu, out=row[1]), 1.0, out=row[1])
    signal = np.multiply(params.p_f, rg_ceu, out=row[2])
    sinr_x3_direct = np.divide(signal, noise, out=row[1])
    (row, _) = _cells(ws, (p_relay, g_relay), (6,))
    return rg_ceu, sinr_x3_direct, np.multiply(p_relay, g_relay, out=row[0])


def far_user(
    params: SystemParams, thr: Thresholds, protocol: Protocol, links, decoded_x3, ws=None
):
    """The far user's part, the only one that differs by protocol: (c_x1, c_x3, out_x1, out_x3).

    links is what far_links returns for the same trials. The enhanced
    protocol sends x1 on the direct link during the alpha slot and combines
    the direct and relayed copies of x3 by maximal ratio combining; the
    baseline leaves that link idle, so x1 is always in outage, and
    selection-combines. A failed x3 decode at the near user (decoded_x3
    false) marks the far user's x3 as lost even when the direct link alone
    clears the threshold. The baseline's c_x1 is the float 0 and its
    out_x1 True. Given a workspace ws, c_x1 and c_x3 land in its rows 2
    and 3, out_x1 and out_x3 in its flags 1 and 2.
    """
    rg_ceu, sinr_x3_direct, snr_x3_relay = links
    if protocol is Protocol.EHS_MRC:
        row, flag = _cells(ws, (rg_ceu, params.p_total, params.alpha, thr.psi_r1), (2,), (1,))
        snr_x1 = np.multiply(rg_ceu, params.p_total, out=row[0])
        out_x1 = np.less(snr_x1, thr.psi_r1, out=flag[0])
        c_x1 = _capacity(params.alpha, snr_x1, out=row[0])
        combine = np.add
    else:
        c_x1 = 0.0
        out_x1 = True  # x1 is never transmitted
        combine = np.maximum
    reads = (sinr_x3_direct, snr_x3_relay, decoded_x3, params.alpha, thr.psi_r3)
    row, flag = _cells(ws, reads, (3,), (2,))
    snr_x3 = combine(sinr_x3_direct, snr_x3_relay, out=row[0])
    cleared_x3 = np.greater_equal(snr_x3, thr.psi_r3, out=flag[0])
    out_x3 = np.invert(np.bitwise_and(decoded_x3, cleared_x3, out=flag[0]), out=flag[0])
    c_x3 = _capacity((1.0 - params.alpha) / 2.0, snr_x3, out=row[0])
    return c_x1, c_x3, out_x1, out_x3
