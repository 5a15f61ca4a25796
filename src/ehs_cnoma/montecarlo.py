"""Deterministic Monte-Carlo estimator with exact worker-count invariance.

Trials are cut into fixed-size chunks. Each chunk is drawn once, into
the workspace its thread took from a pool kept between calls, and
reduced to counts and two-pass moments at every point of the call. The
kernel takes the points a tile at a time: adjacent points that share a
protocol list, up to one chunk's worth of (point, trial) cells, in one
pass. A chunk's statistics are arrays with one row per (point, protocol)
of the call, and the chunks fold into the call's running total in index
order with the exact count-weighted update, one array operation for
every row at once. The total is finished into estimates the same way,
once per call. A point's result is therefore a pure function of (params,
variances, protocol, config) no matter how many workers ran the chunks,
which other points shared the call or where its tile cut the grid, and a
workspace grows with neither the trial count nor the point count.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
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


def _run_chunk(plans, cfg, held, lo, hi):
    """Statistics of every point on trials [lo, hi), drawn once into this thread's workspace.

    plans maps a chunk length to its tiles (see _chunk_parts), and held maps
    each thread of the call to the workspace it took from the pool for all
    its chunks, so that memory stays in that thread's core's cache. Returns
    (n, means, m2, co-moment, counts) with one row per (point, protocol),
    in call order: allocated once per chunk, each tile writes its own rows
    into them (see _kernels.accumulate_chunk). The tiles run with the
    ufunc buffer cut to n rounded down to a multiple of 16 (at most the size
    in force, set back even on a raise), as numpy copies every operand of a
    broadcast through a buffer longer than a row. The bits stay the same.
    """
    n = hi - lo
    ws = held.get(threading.get_ident())
    if ws is None:
        with _POOL_LOCK:
            ws = held[threading.get_ident()] = _POOL.pop() if _POOL else _kernels.Workspace()
    ws.fit(n)
    rows = plans[n][-1].rows.stop
    stats = (
        np.empty((rows, 5)), np.empty((rows, 5)), np.empty(rows), np.empty((rows, 3), np.int64)
    )
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
    return (n, *stats)


def _chunk_parts(points, cfg, workers):
    """Each chunk's per-point moments in index order, with at most 2 * threads chunks in flight.

    A chunk of n trials runs the points as tiles (see _kernels.tiles) of up
    to max(1, CHUNK_TRIALS // n) grid points, so no tile holds more cells
    than a full chunk. A call has at most two chunk lengths, and each gets
    its tiles, thresholds included, once, before any chunk runs.
    """
    starts = range(0, cfg.trials, CHUNK_TRIALS)
    lengths = {min(CHUNK_TRIALS, cfg.trials - lo) for lo in (starts[0], starts[-1])}
    plans = {n: _kernels.tiles(points, max(1, CHUNK_TRIALS // n)) for n in lengths}
    threads = min(workers, os.cpu_count() or 1, len(starts))
    held = {}

    def run(lo):
        return _run_chunk(plans, cfg, held, lo, min(lo + CHUNK_TRIALS, cfg.trials))

    try:
        if threads <= 1:
            yield from map(run, starts)
            return
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for lo in starts:
                pending.append(pool.submit(run, lo))
                if len(pending) == 2 * threads:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
    finally:
        # the call's threads are done with their workspaces, which wait for the next call
        with _POOL_LOCK:
            _POOL.extend(held.values())
            del _POOL[os.cpu_count() or 1 :]


def _merge(a, b):
    # exact count-weighted pooling of (n, means, m2, co-moment, counts), all
    # rows at once: every row has the chunk's n, so w and nb / n are shared
    na, mean_a, m2_a, com_a, cnt_a = a
    nb, mean_b, m2_b, com_b, cnt_b = b
    n = na + nb
    d = mean_b - mean_a
    w = na * nb / n
    mean = mean_a + d * (nb / n)
    m2 = m2_a + m2_b + d * d * w
    com = com_a + com_b + d[:, 3] * d[:, 4] * w
    return n, mean, m2, com, cnt_a + cnt_b


def _finish(total):
    """Means and standard errors of every row of a call's total, in METRICS order.

    Returns (mean, std_error, moments_ok, ee_ok): two (rows, 9) arrays
    and two flags per row, False where a moment is not finite or where the
    energy efficiency or its standard error is not. Each value has the
    bits of the same formula in Python floats: numpy's + - * / and sqrt
    round as they do, and counts / n converts exactly below 2^53.
    """
    n, means, m2, com, counts = total
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
        moments_ok = np.isfinite(means).all(axis=1) & np.isfinite(m2).all(axis=1) & np.isfinite(com)
        ee_ok = np.isfinite(mean[:, 8]) & np.isfinite(std_error[:, 8])
    return mean, std_error, moments_ok, ee_ok


class Estimates(Iterator):
    """A call's estimates: (points, 9) arrays mean and std_error in METRICS order, and ok.

    Iterating, or point(k), gives a point as a dict of Estimates keyed by METRICS, or raises
    its ValueError where ok is False: its moments overflow or its energy efficiency is undefined.
    """

    def __init__(self, points, mean, std_error, moments_ok, ee_ok):
        self.mean, self.std_error, self.ok = mean, std_error, moments_ok & ee_ok
        self._points, self._moments_ok, self._ee_ok = points, moments_ok, ee_ok
        self._order = iter(range(len(points)))

    def __next__(self) -> dict[str, Estimate]:
        return self.point(next(self._order))

    def point(self, k: int) -> dict[str, Estimate]:
        params, varz, _ = self._points[k]
        if not self._moments_ok[k]:
            where = analytic._describe_point(params, varz)
            raise ValueError(f"simulated moments overflow at {where}")
        means = self.mean[k].tolist()
        if not self._ee_ok[k]:
            raise analytic._undefined_ee(params, varz, means[4])
        return dict(zip(METRICS, map(Estimate, means, self.std_error[k].tolist())))


def estimate_metrics(
    points: Iterable[tuple[SystemParams, ChannelVariances, Protocol]],
    cfg: EstimatorConfig,
    workers: int = 1,
) -> Estimates:
    """Monte-Carlo estimates of all capacity, outage, and power metrics at each point.

    A point is (params, varz, protocol). Each chunk of trials is drawn once
    and evaluated at every point, so all points share their draws, and each
    point's estimate is the one a call with that point alone gives.
    Adjacent points with equal (params, varz) are one group, whose
    near-user physics runs once for all its protocols, and a chunk of n
    trials runs adjacent groups with one protocol list as tiles of up to
    max(1, CHUNK_TRIALS // n) groups, one kernel pass each. A tile's
    thresholds are derived before any chunk runs, psi_r1 then psi_r2 then
    psi_r3 over its points, so an overflow raises the first overflowing
    point's error where each point's three rates are equal.

    Returns an iterator with one dict per point, in order: Estimates keyed
    by METRICS, the metric ids of analytic.closed_forms plus mean_p_relay;
    ee is the ratio of the esc_total and mean_p_relay means with a
    first-order standard error; see Estimates for the same values as arrays.
    The simulation and the finishing arithmetic run inside the call; the
    overflow and energy-efficiency checks of a point run when it is taken,
    so a caller that does other work point by point meets errors in point
    order. Worker threads are capped at the CPU count and the chunk count;
    the result does not depend on them.
    """
    points = list(points)
    if not points:
        return Estimates(points, *[np.empty((0, len(METRICS)))] * 2, *[np.empty(0, bool)] * 2)
    # a left fold in index order, so every worker count gives the same bytes;
    # an overflow in the fold, as in a chunk, is left for _finish to report
    with np.errstate(over="ignore", invalid="ignore"):
        total = functools.reduce(_merge, _chunk_parts(points, cfg, workers))
    return Estimates(points, *_finish(total))


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
    forms = analytic.closed_forms(params, varz, protocol)
    rows = tuple(_row(m, form, est[m]) for m, form in forms.items())
    return ValidationReport(protocol, rows)
