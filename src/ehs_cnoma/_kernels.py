"""Chunk kernel: the per-trial physics of protocols.py, reduced to counts and moments.

Every array of a chunk lives in a Workspace that is allocated once per
estimator call and thread and reused by each chunk that thread runs. The
physics runs on sub-blocks of SUB_TRIALS trials: near_user and far_user
write each sub-block's continuous metrics into the workspace columns, and
its outage flags are counted at once, so no flag array outlives a
sub-block. The temporaries are small enough for the allocator to keep
between chunks, so only a thread's first chunk faults memory in.
"""

from __future__ import annotations

import numpy as np

from . import protocols
from .model import ChannelVariances, SystemParams
from .protocols import Protocol, Thresholds

SUB_TRIALS = 8192


class Workspace:
    """The reused arrays of one chunk of up to `size` trials.

    draws: unit-mean exponential draws of the near-user, far-user and relay
    gains. columns: c_x1, c_x2, c_x3, esc_total, p_relay. scratch: two rows
    for the moments.
    """

    def __init__(self, size: int):
        self.draws = np.empty((3, size))
        self.columns = np.empty((5, size))
        self.scratch = np.empty((2, size))


def accumulate_chunk(
    params: SystemParams,
    thr: Thresholds,
    protocol: Protocol,
    varz: ChannelVariances,
    ws: Workspace,
    n: int,
):
    """Statistics of the first n trials: (n, means[5], m2[5], esc/p_relay co-moment, counts[3]).

    The gains are the workspace draws scaled by the variances.
    Continuous metric order: c_x1, c_x2, c_x3, esc_total, p_relay.
    Count order: out_x1, out_x2_ccu, out_x3_ceu. Moments use the two-pass
    form over the whole chunk, so they do not depend on SUB_TRIALS.
    """
    counts = np.zeros(3, dtype=np.int64)
    for lo in range(0, n, SUB_TRIALS):
        block = slice(lo, min(lo + SUB_TRIALS, n))
        draw_ccu, draw_ceu, draw_relay = ws.draws[:, block]
        c_x2, out_x2, decoded_x3, p_relay = protocols.near_user(
            params, thr, varz.lambda_ccu * draw_ccu
        )
        c_x1, c_x3, out_x1, out_x3 = protocols.far_user(
            params, thr, protocol, varz.lambda_ceu * draw_ceu, varz.lambda_relay * draw_relay,
            p_relay, decoded_x3,
        )
        cols = ws.columns[:, block]
        # the baseline's c_x1 and out_x1 hold for every trial and come back
        # as scalars: c_x1 is broadcast, out_x1 counts the whole sub-block
        cols[0], cols[1], cols[2], cols[4] = c_x1, c_x2, c_x3, p_relay
        np.add(cols[0], cols[1], out=cols[3])
        np.add(cols[3], cols[2], out=cols[3])
        counts += [
            np.count_nonzero(flag) if np.ndim(flag) else (block.stop - lo) * flag
            for flag in (out_x1, out_x2, out_x3)
        ]

    means = np.empty(5, dtype=np.float64)
    m2 = np.empty(5, dtype=np.float64)
    dev, other = ws.scratch[:, :n]
    for i, col in enumerate(ws.columns[:, :n]):
        means[i] = col.mean()
        np.subtract(col, means[i], out=dev)
        m2[i] = np.square(dev, out=dev).sum()
    np.subtract(ws.columns[3, :n], means[3], out=dev)
    np.subtract(ws.columns[4, :n], means[4], out=other)
    com = float(np.multiply(dev, other, out=dev).sum())
    return n, means, m2, com, counts
