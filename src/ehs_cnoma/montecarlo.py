"""Deterministic Monte-Carlo estimator with exact worker-count invariance.

Trials are cut into fixed-size chunks. Each chunk is drawn once, into
a workspace it borrows from a pool kept between calls, and reduced to
counts and two-pass moments at every point of the call, for every
protocol of the call. The kernel takes the points a tile at a time:
consecutive points, up to one chunk's worth of (point, trial) cells, with
all the call's protocols in one pass. A chunk's statistics are one array
with a row per (point, protocol) of the call, and the chunks fold into
the call's running total in index order with the exact count-weighted
update, one array operation for every row at once. The total is finished
into estimates the same way, once per call. A (point, protocol) result
is therefore a pure function of (params, variances, protocol, config) no
matter how many workers ran the chunks, which other points or protocols
shared the call or where its tile cut the grid, and a workspace grows
with neither the trial count nor the point count.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels, analytic, model
from .analytic import AnalyticReport, Exactness
from .model import ChannelVariances, SystemParams
from .protocols import Protocol

CHUNK_TRIALS = 32768

# the estimate columns: the five continuous moments, the three outage
# counts, then the energy efficiency
METRICS = (
    "c_x1", "c_x2", "c_x3", "esc_total", "mean_p_relay", "op_x1", "op_x2_ccu", "op_x3_ceu", "ee"
)
# the smallest normal double: a square of the mean relay power below it has lost precision
_TINY = sys.float_info.min


@dataclass(frozen=True)
class EstimatorConfig:
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


class Estimate(NamedTuple):
    mean: float
    std_error: float


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


# workspaces kept from one call to the next, at most one per CPU, so a
# workspace's memory is touched once per process
_POOL: list[_kernels.Workspace] = []
_POOL_LOCK = threading.Lock()


def _run_chunk(plans, cfg, lo, hi):
    """Statistics of every point on trials [lo, hi), drawn once into a workspace from the pool.

    plans maps a chunk length to its tiles (see _chunk_parts). The chunk
    borrows a workspace from the pool, or makes one, and puts it back
    when its tiles are done; the pool keeps at most one per CPU. Returns
    (n, statistics), one row per (point, protocol) in call order, which
    each tile writes in place (see _kernels.accumulate_chunk). The tiles
    run with the ufunc buffer cut to n rounded down to a multiple of 16 (at
    most the size in force, set back even on a raise), with the same bits,
    as numpy copies every operand of a broadcast through a longer buffer.
    """
    n = hi - lo
    with _POOL_LOCK:
        ws = _POOL.pop() if _POOL else _kernels.Workspace()
    ws.fit(n)
    stats = np.empty((plans[n][-1].rows.stop, _kernels.STATISTICS))
    # an overflow leaves a non-finite moment, which _finish reports as one
    # error rather than as a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        model.sample_gains(cfg.seed, lo, hi, out=ws.draws[:, :n])
        bufsize = np.setbufsize(min(np.getbufsize(), max(16, n - n % 16)))
        try:
            for tile in plans[n]:
                _kernels.accumulate_chunk(tile, ws, n, stats)
        finally:
            np.setbufsize(bufsize)
    with _POOL_LOCK:
        _POOL.append(ws)
        del _POOL[os.cpu_count() or 1 :]
    return n, stats


def _chunk_parts(params, varz, points, protocols, cfg, workers):
    """Each chunk's per-entry statistics in index order, with at most 2 * threads chunks in flight.

    A chunk of n trials runs the points as tiles (see _kernels.tiles) of up
    to max(1, CHUNK_TRIALS // n) points, so no tile holds more cells than a
    full chunk. A call has at most two chunk lengths, and each gets its
    tiles, thresholds included, once, before any chunk runs.
    """
    starts = range(0, cfg.trials, CHUNK_TRIALS)
    lengths = {min(CHUNK_TRIALS, cfg.trials - lo) for lo in (starts[0], starts[-1])}
    plans = {
        n: _kernels.tiles(params, varz, points, protocols, max(1, CHUNK_TRIALS // n))
        for n in lengths
    }
    threads = min(workers, os.cpu_count() or 1, len(starts))

    def run(lo):
        return _run_chunk(plans, cfg, lo, min(lo + CHUNK_TRIALS, cfg.trials))

    if threads <= 1:
        yield from map(run, starts)
        return
    # imported here, like numpy.random, to keep it off the package import path
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for lo in starts:
            pending.append(pool.submit(run, lo))
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _merge(a, b):
    # exact count-weighted pooling of (n, statistics), all rows at once: every row
    # has the chunk's n, so w and nb / n are shared; past the means, columns add
    (na, stats_a), (nb, stats_b) = a, b
    n = na + nb
    d = stats_b[:, :5] - stats_a[:, :5]
    w = na * nb / n
    stats = stats_a + stats_b
    stats[:, :5] = stats_a[:, :5] + d * (nb / n)
    stats[:, 5:10] += d * d * w
    stats[:, 10] += d[:, 3] * d[:, 4] * w
    return n, stats


def _finish(total):
    """Means and standard errors of every row of a call's total, in METRICS order.

    Returns (mean, std_error, moments_ok, ee_ok): two (rows, 9) arrays
    and two flags per row, False where a moment is not finite or where the
    energy efficiency or its standard error is not. Each value has the
    bits of the same formula in Python floats: numpy's + - * / and sqrt
    round as they do, and counts / n converts exactly below 2^53.
    """
    n, stats = total
    means, m2, com, counts = stats[:, :5], stats[:, 5:10], stats[:, 10], stats[:, 11:]
    mean = np.empty((len(means), len(METRICS)))
    # one trial leaves no spread to estimate, so its standard errors stay 0
    std_error = np.zeros((len(means), len(METRICS)))
    with np.errstate(all="ignore"):
        p = counts / n
        mean_p = means[:, 4]
        ratio = means[:, 3] / mean_p
        if n > 1:
            std_error[:, :5] = np.sqrt(m2 / (n - 1) / n)
            std_error[:, 5:8] = np.sqrt(p * (1.0 - p) * n / (n - 1) / n)
            var_esc = m2[:, 3] / (n - 1)
            var_p = m2[:, 4] / (n - 1)
            cov = com / (n - 1)
            # first-order variance of a ratio of sample means
            var_num = var_esc - 2.0 * ratio * cov + ratio * ratio * var_p
            mean_p_sq = mean_p * mean_p
            # mean_p squared is 0 or subnormal at extreme low SNR, where
            # dividing by mean_p twice keeps the quotient defined
            var_ratio = np.where(
                mean_p_sq >= _TINY, var_num / mean_p_sq, var_num / mean_p / mean_p
            )
            # max(v, 0.0) of Python floats: -0.0 and nan pass through
            std_error[:, 8] = np.sqrt(np.where(0.0 > var_ratio, 0.0, var_ratio) / n)
        mean[:, :5] = means
        mean[:, 5:8] = p
        mean[:, 8] = ratio
        # no ratio where the mean relay power is 0
        undefined = mean_p == 0.0
        mean[undefined, 8] = std_error[undefined, 8] = math.nan
        moments_ok = np.isfinite(stats[:, :11]).all(axis=1)
        ee_ok = np.isfinite(mean[:, 8]) & np.isfinite(std_error[:, 8])
    return mean, std_error, moments_ok, ee_ok


class Estimates(Iterator):
    """A call's estimates: (entries, 9) arrays mean and std_error in METRICS order, and ok.

    An entry is a (point, protocol): point-major, each point's protocols in
    the call's order. Iterating, or point(k), gives entry k as a dict of
    Estimates keyed by METRICS, or raises its ValueError where ok is False:
    its moments overflow or its energy efficiency is undefined.
    """

    def __init__(self, params, varz, protocols, mean, std_error, moments_ok, ee_ok):
        self.mean, self.std_error, self.ok = mean, std_error, moments_ok & ee_ok
        self._params, self._varz, self._per_point = params, varz, len(protocols)
        self._moments_ok = moments_ok
        self._order = iter(range(len(mean)))

    def __next__(self) -> dict[str, Estimate]:
        return self.point(next(self._order))

    def point(self, k: int) -> dict[str, Estimate]:
        means = self.mean[k].tolist()
        if not self.ok[k]:
            i = k // self._per_point
            at = model.span(self._params, i, i + 1), model.span(self._varz, i, i + 1)
            if not self._moments_ok[k]:
                raise ValueError(f"simulated moments overflow at {analytic._describe_point(*at)}")
            raise analytic._undefined_ee(*at, means[4])
        return dict(zip(METRICS, map(Estimate, means, self.std_error[k].tolist())))


def estimate_metrics(
    params: SystemParams, varz: ChannelVariances, protocols: Sequence[Protocol],
    cfg: EstimatorConfig, workers: int = 1,
) -> Estimates:
    """Monte-Carlo estimates of every capacity, outage and power metric, per point and protocol.

    params and varz are one point, or a grid's namespaces as model.grid_points
    gives them: each field a float or a 1-D float64 array with one value per
    point. Every point runs each of protocols, a sequence of Protocol(x): one
    or more, none repeated. Each chunk of trials is drawn once for all
    points, and each (point, protocol) estimate is the one a call with that
    point and protocol alone gives. A chunk of n trials runs consecutive
    points as tiles of up to max(1, CHUNK_TRIALS // n) points, one kernel
    pass each for all the protocols. A tile's thresholds are derived before
    any chunk runs, psi_r1 then psi_r2 then psi_r3 over its points, so an
    overflow raises the first overflowing point's error where each point's
    three rates are equal.

    Returns an iterator with one dict per (point, protocol), point-major,
    each point's protocols in the order given: Estimates keyed by
    METRICS, the metric ids of analytic.closed_forms plus mean_p_relay;
    ee is the ratio of the esc_total and mean_p_relay means with a
    first-order standard error; see Estimates for the same values as arrays.
    The simulation and the finishing arithmetic run inside the call; the
    overflow and energy-efficiency checks of an entry run when it is taken,
    so a caller that does other work entry by entry meets errors in entry
    order. Worker threads are capped at the CPU count and the chunk count;
    the result does not depend on them.
    """
    # a name or a member alone would be taken as a sequence of letters or fail to iterate
    if isinstance(protocols, (str, Protocol)):
        raise ValueError(f"need a sequence of protocols, got {protocols!r}")
    # the kernel tests `is Protocol.EHS_MRC`, so a name must become its member
    protocols = tuple(map(Protocol, protocols))
    if not protocols or len(set(protocols)) < len(protocols):
        raise ValueError(f"need one or more distinct protocols, got {[p.value for p in protocols]}")
    # the points are the common length of the arrays, or 1 where there are none
    arrays = [v for ns in (params, varz) for v in vars(ns).values() if isinstance(v, np.ndarray)]
    forms = sorted({f"{a.dtype}{a.shape}" for a in arrays})
    if len(forms) > 1 or any(a.ndim != 1 or a.dtype != np.float64 for a in arrays):
        raise ValueError(f"need floats or 1-D float64 arrays of one length, got {forms}")
    points = len(arrays[0]) if arrays else 1
    if not points:
        empty = [np.empty((0, len(METRICS)))] * 2 + [np.empty(0, bool)] * 2
        return Estimates(params, varz, protocols, *empty)
    # a left fold in index order, so every worker count gives the same bytes;
    # an overflow in the fold, as in a chunk, is left for _finish to report
    with np.errstate(over="ignore", invalid="ignore"):
        parts = _chunk_parts(params, varz, points, protocols, cfg, workers)
        total = functools.reduce(_merge, parts)
    return Estimates(params, varz, protocols, *_finish(total))


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
    protocol: Protocol,
    est: dict[str, Estimate],
) -> ValidationReport:
    """Cross-check a point's simulated estimate against its closed forms.

    est is the point's dict from estimate_metrics. One row per metric with
    a closed form, in closed_forms order. Forms tagged exact are z-tested
    and flagged FAIL beyond three standard errors. Approximate forms are
    listed with their gap for inspection and never fail on the gap alone.
    """
    [forms] = analytic.closed_forms(params, varz, (protocol,))
    rows = tuple(_row(m, form, est[m]) for m, form in forms.items())
    return ValidationReport(protocol, rows)
