"""Chunk kernel: the per-trial physics of protocols.py, reduced to counts and moments.

The unit of work is a tile: consecutive grid points that share a protocol
list, evaluated on one chunk of n trials as a C-contiguous (points, n)
block of cells, trial axis innermost. A value that every point of the
tile shares is a float and one that varies is a (points, 1) column, so
the protocols.py steps broadcast it over the cells; a one-point tile runs
on 1-D (n,) rows. near_user and far_links run once per tile and far_user
once per protocol, and the moments of the shared columns (c_x2, p_relay)
and the x2 outage count are taken once and reused for every protocol.
Moments and counts are taken along each point's contiguous row, which
gives the bits of a 1-D pass over that point alone, so a point's
statistics do not depend on the tile it sits in. They come back as
arrays with one row per (point, protocol), which montecarlo joins across
a chunk's tiles into the rows of the whole call.

Every row a tile keeps lives in a Workspace that is allocated once per
estimator call and thread, sized to one chunk's draws and the largest
tile's cells, and reused by each chunk that thread runs.
model.sample_gains writes the draws into it lane-major, a gain with one
value per cell goes into a row that is free until the moments or
far_user write it, and the physics writes its capacities and the relay
power into it through `out` rows.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .protocols import Protocol, Thresholds, far_links, far_user, near_user


class TileParams(NamedTuple):
    """The SystemParams fields the protocols.py steps read, as floats or (points, 1) columns."""

    rho: object
    alpha: object
    delta: object
    eta: object
    p_n: object
    p_f: object
    p_total: object


class Tile(NamedTuple):
    """Consecutive grid points with one protocol list, run by one kernel pass.

    params, thr and lambdas (the ccu, ceu and relay gain variances) hold
    each value as a float where every point shares it and as a
    (points, 1) column where it varies.
    """

    points: int
    params: TileParams
    thr: Thresholds
    lambdas: tuple
    protocols: tuple[Protocol, ...]


# the values of a group's params, varz and thresholds that a tile carries
_param_values = operator.attrgetter(*TileParams._fields)
_lambda_values = operator.attrgetter("lambda_ccu", "lambda_ceu", "lambda_relay")
_thr_values = operator.attrgetter("psi_r1", "psi_r2", "psi_r3")


def tiles(groups, max_points: int) -> list[Tile]:
    """The groups, in order, as tiles of at most max_points points that share a protocol list.

    A group is (params, varz, thresholds, protocols), as
    montecarlo._point_groups builds them.
    """
    values = np.array(
        [_param_values(p) + _lambda_values(v) + _thr_values(t) for p, v, t, _ in groups]
    )
    bits = values.view(np.int64)
    columns = np.ascontiguousarray(values.T)
    out = []
    lo = 0
    while lo < len(groups):
        protocols = tuple(groups[lo][3])
        hi = lo + 1
        while hi < len(groups) and hi - lo < max_points and tuple(groups[hi][3]) == protocols:
            hi += 1
        # a value is shared only if its bits are: 0.0 and -0.0 stay apart
        shared = (bits[lo:hi] == bits[lo]).all(axis=0).tolist()
        first = values[lo].tolist()
        row = [
            first[f] if same else columns[f, lo:hi, None] for f, same in enumerate(shared)
        ]
        params, lambdas, thr = TileParams(*row[:7]), tuple(row[7:10]), Thresholds(*row[10:])
        out.append(Tile(hi - lo, params, thr, lambdas, protocols))
        lo = hi
    return out


class Workspace:
    """The reused arrays of a thread: draws of up to `trials` trials, rows of up to `cells` cells.

    draws: unit-mean exponential draws of the near-user, far-user and relay
    gains, one lane per row. shared: c_x2 and p_relay, which every protocol
    at a point shares. far: c_x1 (which becomes esc_total once its moments
    are taken) and c_x3 of the protocol being reduced; a protocol whose
    c_x1 is a constant writes only esc_total there. scratch: one row for
    the moments. A tile of P points on n trials views the first P * n
    cells of a row as (P, n).
    """

    def __init__(self, trials: int, cells: int):
        self.draws = np.empty((3, trials))
        self.shared = np.empty((2, cells))
        self.far = np.empty((2, cells))
        self.scratch = np.empty(cells)


def _gain(lam, draw, row):
    # a gain with one value per cell goes into the given free row; one that
    # every point of the tile shares stays a single (n,) row
    per_cell = row.ndim == 1 or isinstance(lam, np.ndarray)
    return np.multiply(lam, draw, out=row if per_cell else None)


def _count(flag, shape):
    """Trials in outage: an int on a 1-D row, else one count per point of the tile.

    A scalar flag holds for every trial, and a flag of one (n,) row for
    every point.
    """
    if not isinstance(flag, np.ndarray):
        return shape[-1] * flag
    return np.count_nonzero(flag, axis=-1) if flag.ndim == 2 else np.count_nonzero(flag)


def _sum(x, rows: bool):
    # np.add.reduce along a contiguous row gives the bits of the 1-D sum of that row
    return np.add.reduce(x, axis=-1) if rows else np.add.reduce(x)


def _mean_m2(col, dev, n: int, rows: bool):
    # np.add.reduce(col) / n is ndarray.mean bit for bit, without its wrapper
    mean = _sum(col, rows) / n
    np.subtract(col, mean[:, None] if rows else mean, out=dev)
    return mean, _sum(np.square(dev, out=dev), rows)


def _table(rows, points: int, dtype=np.float64):
    """(points * len(rows), k) from one row of k values per protocol.

    Each value is a scalar or one per point. Row p * len(rows) + j of the
    result holds point p under protocol j.
    """
    if points == 1:
        return np.array(rows, dtype=dtype)
    k = len(rows[0])
    out = np.empty((points, len(rows), k), dtype)
    for j, row in enumerate(rows):
        for i, col in enumerate(row):
            out[:, j, i] = col
    return out.reshape(-1, k)


def accumulate_chunk(tile: Tile, ws: Workspace, n: int):
    """Statistics of a tile on the first n draws: (cells, (means, m2, com, counts)).

    cells is tile.points * n. Each array has one row per (point,
    protocol), points in tile order and each point's protocols in the
    tile's order: means and m2 (rows, 5), com (rows,) and counts (rows, 3).
    The gains are the workspace draws scaled by the variances. Continuous
    metric order: c_x1, c_x2, c_x3, esc_total, p_relay; com is the
    esc_total/p_relay co-moment. Count order: out_x1, out_x2_ccu,
    out_x3_ceu. Moments use the two-pass form over the whole chunk, and
    a row equals that of a one-point tile with its protocol alone bit
    for bit.
    """
    points = tile.points
    cells = points * n
    rows = points > 1
    shape = (points, n) if rows else (n,)
    params, thr = tile.params, tile.thr
    lambda_ccu, lambda_ceu, lambda_relay = tile.lambdas
    draw_ccu, draw_ceu, draw_relay = ws.draws[:, :n]
    shared = ws.shared[:, :cells].reshape(2, *shape)
    far = ws.far[:, :cells].reshape(2, *shape)
    dev = ws.scratch[:cells].reshape(shape)

    g_ccu = _gain(lambda_ccu, draw_ccu, dev)
    _, out_x2, decoded_x3, p_relay = near_user(params, thr, g_ccu, out=shared)
    g_ceu = _gain(lambda_ceu, draw_ceu, far[0])
    links = far_links(params, g_ceu, _gain(lambda_relay, draw_relay, far[1]), p_relay)
    count_x2 = _count(out_x2, shape)

    c_x2, p_relay = shared
    mean_x2, m2_x2 = _mean_m2(c_x2, dev, n, rows)
    mean_p = _sum(p_relay, rows) / n
    # p_relay is not read again, so its row keeps the deviations for the co-moments
    dev_p = np.subtract(p_relay, mean_p[:, None] if rows else mean_p, out=p_relay)
    m2_p = _sum(np.square(dev_p, out=dev), rows)
    means, m2, coms, counts = [], [], [], []
    for protocol in tile.protocols:
        # each protocol is reduced before the next one reuses the far rows
        c_x1, c_x3, out_x1, out_x3 = far_user(params, thr, protocol, links, decoded_x3, out=far)
        counts.append([_count(out_x1, shape), count_x2, _count(out_x3, shape)])
        esc = far[0]
        if isinstance(c_x1, np.ndarray):
            mean_x1, m2_x1 = _mean_m2(c_x1, dev, n, rows)
        else:
            # the baseline's c_x1 is 0 on every trial
            mean_x1, m2_x1 = c_x1, 0.0
        # c_x1 is esc's own row or a scalar, so esc_total replaces it in place
        np.add(c_x1, c_x2, out=esc)
        np.add(esc, c_x3, out=esc)
        mean_x3, m2_x3 = _mean_m2(c_x3, dev, n, rows)
        mean_esc = _sum(esc, rows) / n
        np.subtract(esc, mean_esc[:, None] if rows else mean_esc, out=esc)
        coms.append(_sum(np.multiply(esc, dev_p, out=dev), rows))
        m2_esc = _sum(np.square(esc, out=esc), rows)
        means.append([mean_x1, mean_x2, mean_x3, mean_esc, mean_p])
        m2.append([m2_x1, m2_x2, m2_x3, m2_esc, m2_p])
    stats = (
        _table(means, points),
        _table(m2, points),
        np.stack(coms, axis=-1).reshape(-1) if rows else np.array(coms),
        _table(counts, points, np.int64),
    )
    return cells, stats
