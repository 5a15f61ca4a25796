"""Chunk kernel: the per-trial physics of protocols.py, reduced to counts and moments.

The unit of work is a tile: consecutive points of one call, evaluated on
one chunk of n trials as a C-contiguous (points, n) block of cells, trial
axis innermost, for all of the call's protocols in one pass. A value that
every point of the tile shares is a float and one that varies is a
(points, 1) column (see model.span), so the protocols.py steps
broadcast it over the cells; a one-point tile runs on 1-D (n,) rows.
near_user and far_links run once per tile and far_user once per
protocol, and the moments of the shared columns (c_x2, p_relay) and the
x2 outage count are taken once and reused for every protocol. Moments
and counts are taken along each point's contiguous row, which gives the
bits of a 1-D pass over that point alone, so a point's statistics do not
depend on the tile it sits in. The kernel writes them in place into the
chunk's one statistics array, which has one row per (point, protocol) of
the whole call, at the rows the tile covers.

Every array of a tile lives in a Workspace, which each chunk borrows
from montecarlo's pool, kept from one call to the next:
model.sample_gains draws into it lane-major, and the gains, the physics
and the moments write into its numbered rows through `out`, so no chunk
allocates an array that grows with its trials or cells.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import model
from .protocols import Protocol, Thresholds, far_links, far_user, near_user, thresholds


STATISTICS = 14  # columns of a chunk's statistics, see accumulate_chunk


class Tile(NamedTuple):
    """Consecutive points of one call, run by one kernel pass for all the call's protocols.

    params and varz are the points' model.span, each varying value a
    (points, 1) column; thr, thresholds(params), takes the same form.
    rows is the tile's slice of the call's (point, protocol) entries:
    points * len(protocols) of them, each point's protocols in turn.
    """

    points: int
    params: SimpleNamespace
    thr: Thresholds
    varz: SimpleNamespace
    protocols: tuple[Protocol, ...]
    rows: slice


def tiles(params, varz, points, protocols: tuple[Protocol, ...], max_points) -> list[Tile]:
    """The call's points, in order, as tiles of at most max_points points.

    params and varz are one point, or the namespaces of a grid of points
    (see model.grid_points), and every point runs every one of protocols.
    A tile's thresholds are those of its params, so an overflow raises here.
    """
    out = []
    for lo in range(0, points, max_points):
        hi = min(lo + max_points, points)
        p = model.span(params, lo, hi)
        rows = slice(lo * len(protocols), hi * len(protocols))
        out.append(Tile(hi - lo, p, thresholds(p), model.span(varz, lo, hi), protocols, rows))
    return out


class Workspace:
    """The arrays a chunk borrows and returns: its draws, and numbered rows for a tile's values.

    draws: unit-mean exponential draws of the near-user, far-user and relay
    gains, one lane per row. rows: seven float rows, and flags: three bool
    rows, which the protocols.py steps and accumulate_chunk use in a fixed
    plan (see there). A value views the first cells of its row to its own
    shape, and a row is made anew only for a value longer than any it held.
    """

    trials = 0

    def __init__(self):
        self.rows = [np.empty(0)] * 7
        self.flags = [np.empty(0, dtype=bool)] * 3

    def fit(self, trials: int):
        """Room for the draws of `trials` trials, kept once grown."""
        if trials > self.trials:
            self.trials = trials
            self.draws = np.empty((3, trials))

    def cells(self, shape, rows, flags=()):
        """The numbered float rows and bool flags, viewed to shape, whatever they held dead."""
        size = math.prod(shape)
        return [_views(self.rows, rows, size, shape), _views(self.flags, flags, size, shape)]

    def row(self, k: int, shape):
        """Float row k viewed to shape, whatever it held dead."""
        return _views(self.rows, (k,), math.prod(shape), shape)[0]


def _views(arrays, numbers, size: int, shape):
    # the first size cells of each numbered array, made anew where it is shorter
    views = []
    for k in numbers:
        if arrays[k].size < size:
            arrays[k] = np.empty(size, arrays[k].dtype)
        views.append(arrays[k][:size].reshape(shape))
    return views


def _gain(lam, draw, ws, k: int):
    # into row k: one gain per cell where the variance varies in the tile,
    # one (n,) row where it is shared
    shape = draw.shape if not isinstance(lam, np.ndarray) else (len(lam), len(draw))
    return np.multiply(lam, draw, out=ws.row(k, shape))


def _count(flag, n: int):
    """Trials in outage: one count per point where the flag varies in the tile, else one count."""
    if not isinstance(flag, np.ndarray):
        return n * flag
    # count_nonzero takes a slower path when given an axis
    return np.count_nonzero(flag, axis=-1) if flag.ndim == 2 else np.count_nonzero(flag)


def _sum(x):
    # np.add.reduce along a contiguous row gives the bits of the 1-D sum of that row
    return np.add.reduce(x, axis=-1)


def _moments(x, n: int, ws, dev: int, squares=None):
    """(mean, sum of squared deviations, deviations) along each row of x.

    The deviations go to workspace row dev, which may hold x itself, and
    their squares to row squares, by default dev.
    """
    # np.add.reduce(x) / n is ndarray.mean bit for bit, without its wrapper
    mean = _sum(x) / n
    dev = np.subtract(x, mean[..., None], out=ws.row(dev, x.shape))
    squares = dev if squares is None else ws.row(squares, x.shape)
    return mean, _sum(np.square(dev, out=squares)), dev


def accumulate_chunk(tile: Tile, ws: Workspace, n: int, out):
    """Statistics of a tile on the first n draws, written into out; returns (cells,).

    cells is tile.points * n. out is the chunk's (rows, STATISTICS) array,
    one row per (point, protocol) of the call; the tile writes its rows,
    tile.rows, viewed as (points, protocols, STATISTICS) in the call's
    protocol order. The gains are the workspace draws scaled by the
    variances. Columns: the means (0-4) and sums of squared deviations
    (5-9) of c_x1, c_x2, c_x3, esc_total and p_relay, the esc_total/p_relay
    co-moment (10), and the outage counts (11-13) of x1, x2 at the near
    user and x3 at the far user, exact as floats below 2^53. Moments use
    the two-pass form over the whole chunk, and a row equals that of a
    one-point tile with its protocol alone bit for bit.
    """
    points = tile.points
    params, thr, varz = tile.params, tile.thr, tile.varz
    draw_ccu, draw_ceu, draw_relay = ws.draws[:, :n]

    # rows 0-1 keep c_x2 and p_relay (then its deviations) through the
    # tile, rows 4-6 the links through the last protocol; the gains, then
    # far_user's c_x1 and c_x3, take rows 2-3 (see the protocols.py steps)
    g_ccu = _gain(varz.lambda_ccu, draw_ccu, ws, 3)
    c_x2, out_x2, decoded_x3, p_relay = near_user(params, thr, g_ccu, ws)
    g_ceu = _gain(varz.lambda_ceu, draw_ceu, ws, 2)
    g_relay = _gain(varz.lambda_relay, draw_relay, ws, 3)
    links = far_links(params, g_ceu, g_relay, p_relay, ws)
    count_x2 = _count(out_x2, n)
    mean_x2, m2_x2, _ = _moments(c_x2, n, ws, 2)
    # p_relay is not read again, so its row keeps the deviations for the co-moments
    mean_p, m2_p, dev_p = _moments(p_relay, n, ws, 1, 2)
    # the baseline leaves row 2 free for esc_total; the enhanced protocol
    # goes last, when the links are dead, and takes row 6, whose relayed
    # SNR already has one value per cell wherever a sweep's does
    order = sorted(enumerate(tile.protocols), key=lambda entry: entry[1] is Protocol.EHS_MRC)
    table = out[tile.rows].reshape(points, len(tile.protocols), STATISTICS)
    for j, protocol in order:
        c_x1, c_x3, out_x1, out_x3 = far_user(params, thr, protocol, links, decoded_x3, ws)
        k = 6 if isinstance(c_x1, np.ndarray) else 2
        shape = np.broadcast_shapes(np.shape(c_x1), c_x2.shape, c_x3.shape)
        esc = np.add(c_x1, c_x2, out=ws.row(k, shape))
        esc = np.add(esc, c_x3, out=esc)
        if isinstance(c_x1, np.ndarray):
            mean_x1, m2_x1, _ = _moments(c_x1, n, ws, 2)
        else:
            # the baseline's c_x1 is 0 on every trial
            mean_x1, m2_x1 = c_x1, 0.0
        mean_x3, m2_x3, _ = _moments(c_x3, n, ws, 3)
        mean_esc, m2_esc, dev_esc = _moments(esc, n, ws, k, 3)
        com = _sum(np.multiply(dev_esc, dev_p, out=dev_esc))
        stats = (
            mean_x1, mean_x2, mean_x3, mean_esc, mean_p,
            m2_x1, m2_x2, m2_x3, m2_esc, m2_p,
            com, _count(out_x1, n), count_x2, _count(out_x3, n),
        )
        for i, value in enumerate(stats):
            table[:, j, i] = value
    return (points * n,)
