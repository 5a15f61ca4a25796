"""Chunk kernel: the per-trial physics of protocols.py, reduced to counts and moments."""

from __future__ import annotations

import numpy as np

from . import protocols
from .model import SystemParams
from .protocols import Protocol, Thresholds


def accumulate_chunk(
    params: SystemParams,
    thr: Thresholds,
    protocol: Protocol,
    g_ccu: np.ndarray,
    g_ceu: np.ndarray,
    g_relay: np.ndarray,
):
    """Chunk statistics: (n, means[5], m2[5], esc/p_relay co-moment, counts[3]).

    Continuous metric order: c_x1, c_x2, c_x3, esc_total, p_relay.
    Count order: out_x1, out_x2_ccu, out_x3_ceu. Moments use the two-pass
    form over the chunk.
    """
    n = g_ccu.shape[0]
    metrics = protocols.link_metrics(params, g_ccu, g_ceu, g_relay, protocol)
    c_x1, c_x2, c_x3 = protocols.instantaneous_capacities(params, metrics, protocol)
    flags = protocols.outage_flags(params, metrics, thr, protocol)
    esc = (c_x1 + c_x2) + c_x3

    means = np.empty(5, dtype=np.float64)
    m2 = np.empty(5, dtype=np.float64)
    # a value that holds for every trial (the baseline's c_x1 and out_x1)
    # comes back as a scalar and is broadcast over the chunk
    columns = np.broadcast_arrays(c_x1, c_x2, c_x3, esc, metrics.p_relay)
    for i, arr in enumerate(columns):
        mean = float(arr.mean())
        means[i] = mean
        m2[i] = float(np.sum((arr - mean) ** 2))
    com = float(np.sum((esc - means[3]) * (metrics.p_relay - means[4])))
    counts = np.array(
        [np.count_nonzero(np.broadcast_to(flag, (n,))) for flag in flags], dtype=np.int64
    )
    return n, means, m2, com, counts
