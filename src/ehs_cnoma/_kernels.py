"""Chunk kernel: the per-trial physics of protocols.py, reduced to counts and moments.

One call covers every protocol asked at one (params, varz) point. The
protocols share the near user and the far user's link terms, so the
physics runs on sub-blocks of SUB_TRIALS trials with near_user and
far_links called once per sub-block and far_user once per protocol, and
the moments of the shared columns (c_x2, p_relay) and the x2 outage count
are taken once and reused for every protocol. Every array of a chunk lives
in a Workspace that is allocated once per estimator call and thread and
reused by each chunk that thread runs; model.sample_gains writes the draws
into it lane-major, and the physics writes its capacities and the relay
power into it through `out` rows. Outage flags are counted per sub-block,
as Python ints, so no flag array outlives one. The temporaries are small
enough for the allocator to keep between chunks, so only a thread's first
chunk faults memory in.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .model import ChannelVariances, SystemParams
from .protocols import Protocol, Thresholds, far_links, far_user, near_user

SUB_TRIALS = 8192


class Workspace:
    """The reused arrays of one chunk of up to `size` trials: ten rows of doubles.

    draws: unit-mean exponential draws of the near-user, far-user and relay
    gains, one lane per row. shared: c_x2 and p_relay, which every protocol
    at a point shares. far: two rows per protocol, c_x1 (which becomes
    esc_total once its moments are taken) and c_x3; a protocol whose c_x1
    is a constant writes only esc_total there. scratch: one row for the
    moments.
    """

    def __init__(self, size: int):
        self.draws = np.empty((3, size))
        self.shared = np.empty((2, size))
        self.far = np.empty((len(Protocol), 2, size))
        self.scratch = np.empty(size)


def _count(flag, size: int) -> int:
    # a scalar flag holds for every trial of the sub-block
    return np.count_nonzero(flag) if isinstance(flag, np.ndarray) else size * flag


def _mean_m2(col, dev, n: int):
    # np.add.reduce(col) / n is ndarray.mean bit for bit, without its wrapper
    mean = np.add.reduce(col) / n
    np.subtract(col, mean, out=dev)
    return mean, np.add.reduce(np.square(dev, out=dev))


def accumulate_chunk(
    params: SystemParams,
    thr: Thresholds,
    protocols: Sequence[Protocol],
    varz: ChannelVariances,
    ws: Workspace,
    n: int,
):
    """Statistics of the first n trials: (n, [(means[5], m2[5], esc/p_relay co-moment, counts[3])]).

    One entry per protocol, in the order given; the protocols must be
    distinct. The gains are the workspace draws scaled by the variances.
    Continuous metric order: c_x1, c_x2, c_x3, esc_total, p_relay.
    Count order: out_x1, out_x2_ccu, out_x3_ceu. Moments use the two-pass
    form over the whole chunk, so they do not depend on SUB_TRIALS, and an
    entry equals that of a call with its protocol alone bit for bit.
    """
    far = ws.far[: len(protocols)]
    # each protocol's c_x1: None while it lives in its workspace row, or the
    # scalar far_user returns when c_x1 is the same for every trial
    x1 = [None] * len(protocols)
    counts = [[0, 0, 0] for _ in protocols]
    for lo in range(0, n, SUB_TRIALS):
        hi = min(lo + SUB_TRIALS, n)
        size = hi - lo
        draw_ccu, draw_ceu, draw_relay = ws.draws[:, lo:hi]
        _, out_x2, decoded_x3, p_relay = near_user(
            params, thr, varz.lambda_ccu * draw_ccu, out=ws.shared[:, lo:hi]
        )
        count_x2 = _count(out_x2, size)
        links = far_links(
            params, varz.lambda_ceu * draw_ceu, varz.lambda_relay * draw_relay, p_relay
        )
        for k, protocol in enumerate(protocols):
            c_x1, _, out_x1, out_x3 = far_user(
                params, thr, protocol, links, decoded_x3, out=far[k, :, lo:hi]
            )
            if not isinstance(c_x1, np.ndarray):
                x1[k] = c_x1
            cnt = counts[k]
            cnt[0] += _count(out_x1, size)
            cnt[1] += count_x2
            cnt[2] += _count(out_x3, size)

    dev = ws.scratch[:n]
    c_x2, p_relay = ws.shared[:, :n]
    mean_x2, m2_x2 = _mean_m2(c_x2, dev, n)
    mean_p = np.add.reduce(p_relay) / n
    # p_relay is not read again, so its row keeps the deviations for the co-moments
    dev_p = np.subtract(p_relay, mean_p, out=p_relay)
    m2_p = np.add.reduce(np.square(dev_p, out=dev))
    counts = np.array(counts, dtype=np.int64)
    stats = []
    for k, c_x1 in enumerate(x1):
        esc, c_x3 = far[k, :, :n]
        if c_x1 is None:
            mean_x1, m2_x1 = _mean_m2(esc, dev, n)
            c_x1 = esc
        else:
            # the baseline's c_x1 is 0 on every trial
            mean_x1, m2_x1 = c_x1, 0.0
        # c_x1 is esc's own row or a scalar, so esc_total replaces it in place
        np.add(c_x1, c_x2, out=esc)
        np.add(esc, c_x3, out=esc)
        mean_x3, m2_x3 = _mean_m2(c_x3, dev, n)
        mean_esc = np.add.reduce(esc) / n
        np.subtract(esc, mean_esc, out=esc)
        com = float(np.add.reduce(np.multiply(esc, dev_p, out=dev)))
        m2_esc = np.add.reduce(np.square(esc, out=esc))
        means = np.array([mean_x1, mean_x2, mean_x3, mean_esc, mean_p])
        m2 = np.array([m2_x1, m2_x2, m2_x3, m2_esc, m2_p])
        stats.append((means, m2, com, counts[k]))
    return n, stats
