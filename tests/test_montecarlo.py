import concurrent.futures
import itertools
import math
import operator
import re
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import finish_reference, outage_x2_near_user

from ehs_cnoma import _kernels, analytic, model, montecarlo, protocols
from ehs_cnoma.montecarlo import CHUNK_TRIALS, EstimatorConfig, estimate_metrics
from ehs_cnoma.protocols import Protocol, thresholds


def setup_point(**overrides):
    params = model.SystemParams(rho=overrides.pop("rho", 10.0 ** 1.5), **overrides)
    return params, model.variances_from_distances(params)


def make_cfg(trials=100_000, seed=42):
    return EstimatorConfig(trials=trials, seed=seed)


# both protocol orders, in which every entry must keep its bits
ORDERS = [tuple(Protocol), tuple(reversed(Protocol))]


def estimate(params, varz, cfg, protocol, workers=1):
    [est] = estimate_metrics([(params, varz)], (protocol,), cfg, workers=workers)
    return est


def make_tiles(points, protocols, max_points):
    """The tiles of a call of (params, varz) points, as estimate_metrics makes them."""
    return _kernels.tiles(*map(model.field_table, zip(*points)), tuple(protocols), max_points)


def chunk(params, varz, cfg, lo, hi, protocol=Protocol.EHS_MRC):
    """A one-point call's chunk statistics: (n, means, m2, com, counts) with one row."""
    plans = {hi - lo: make_tiles([(params, varz)], (protocol,), 1)}
    return montecarlo._run_chunk(plans, cfg, lo, hi)


def first_row(total):
    n, means, m2, com, counts = total
    return n, means[0], m2[0], com[0], counts[0]


def nan_workspace():
    # a workspace whose every float cell holds NaN (and every flag True),
    # its rows made at the size of a full chunk so that no tile makes more,
    # so a read of a cell the kernel did not write shows
    ws = _kernels.Workspace()
    ws.fit(CHUNK_TRIALS)
    ws.cells((CHUNK_TRIALS,), range(7), range(3))
    ws.draws.fill(np.nan)
    for row in ws.rows:
        row.fill(np.nan)
    for flag in ws.flags:
        flag.fill(True)
    return ws


def nan_stats(rows):
    """A chunk's (means, m2, com, counts) for rows entries: NaN, and -1 for the counts."""
    return (
        np.full((rows, 5), np.nan),
        np.full((rows, 5), np.nan),
        np.full(rows, np.nan),
        np.full((rows, 3), -1, np.int64),
    )


def assert_rows_partition(tiles, entries):
    # the tiles' rows cut [0, entries) into consecutive slices, in order
    assert [k for tile in tiles for k in range(entries)[tile.rows]] == list(range(entries))
    for tile in tiles:
        assert len(range(entries)[tile.rows]) == tile.points * len(tile.protocols)


def run_tiles(points, protocols, n, seed=42):
    """The tiles of one chunk of n trials and every (point, protocol) entry they give, in order."""
    tiles = make_tiles(points, protocols, max(1, CHUNK_TRIALS // n))
    entries = len(points) * len(protocols)
    assert_rows_partition(tiles, entries)
    ws = nan_workspace()
    model.sample_gains(seed, 0, n, out=ws.draws[:, :n])
    stats = nan_stats(entries)
    for tile in tiles:
        rows = [*ws.rows, *ws.flags]
        before = [column.copy() for column in stats]
        cells, = _kernels.accumulate_chunk(tile, ws, n, stats)
        assert cells == tile.points * n
        # the tile made no row, so it read none that does not hold NaN
        assert all(map(operator.is_, rows, [*ws.rows, *ws.flags]))
        # it wrote every one of its own rows, through a view, and no other
        own = np.zeros(entries, bool)
        own[tile.rows] = True
        for old, new in zip(before, stats):
            assert new[~own].tobytes() == old[~own].tobytes()
            assert (new[own] != -1).all() if new.dtype == np.int64 else not np.isnan(new[own]).any()
    return tiles, list(zip(*stats))


def snr_points(snr_dbs):
    return [setup_point(rho=10.0 ** (snr_db / 10.0)) for snr_db in snr_dbs]


# short chunks whose tiles hold up to 7 points and 1 point, a full chunk,
# and a chunk whose tiles hold two points
CHUNK_LENGTHS = [
    CHUNK_TRIALS // 8 + 3,
    3 * CHUNK_TRIALS // 4 + 5,
    CHUNK_TRIALS,
    3 * CHUNK_TRIALS // 8 + 5,
]


def two_point_tiles(n):
    return [2] if 2 * n <= CHUNK_TRIALS else [1, 1]


class TestKernels:
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_kernel_moments_match_numpy(self, protocol, snr_db):
        # the chunk reduction of two points against plain numpy on the same
        # per-trial values, in a workspace whose unused cells hold NaN
        points = snr_points([snr_db, snr_db + 3.0])
        for n in CHUNK_LENGTHS:
            tiles, entries = run_tiles(points, (protocol,), n)
            assert [t.points for t in tiles] == two_point_tiles(n)
            draws = model.sample_gains(42, 0, n)
            for (params, varz), (means, m2, com, counts) in zip(points, entries):
                thr = thresholds(params)
                lambdas = (varz.lambda_ccu, varz.lambda_ceu, varz.lambda_relay)
                g_ccu, g_ceu, g_relay = [lam * draw for lam, draw in zip(lambdas, draws)]
                c_x2, out_x2, decoded_x3, p_relay = protocols.near_user(params, thr, g_ccu)
                links = protocols.far_links(params, g_ceu, g_relay, p_relay)
                c_x1, c_x3, out_x1, out_x3 = protocols.far_user(
                    params, thr, protocol, links, decoded_x3
                )
                esc = (c_x1 + c_x2) + c_x3
                columns = np.broadcast_arrays(c_x1, c_x2, c_x3, esc, p_relay)
                assert means.tolist() == [arr.mean() for arr in columns]
                assert m2 == pytest.approx([n * np.var(arr) for arr in columns], rel=1e-12)
                assert com == pytest.approx(
                    n * np.cov(esc, p_relay, bias=True)[0, 1], rel=1e-12
                )
                assert counts.tolist() == [
                    np.count_nonzero(np.broadcast_to(flag, (n,)))
                    for flag in (out_x1, out_x2, out_x3)
                ]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_one_pass_equals_one_call_per_protocol(self, snr_db, n, order):
        # one pass for both protocols at two points gives each (point,
        # protocol) the statistics of a one-point tile with that protocol
        # alone, bit for bit, whether the points share a tile or not
        points = snr_points([snr_db, snr_db + 3.0])
        tiles, both = run_tiles(points, order, n)
        assert [t.points for t in tiles] == two_point_tiles(n)
        assert len(both) == len(points) * len(order)
        by_protocol = {}
        for (point, protocol), (means, m2, com, counts) in zip(
            itertools.product(points, order), both
        ):
            [alone_tile], [alone] = run_tiles([point], (protocol,), n)
            assert alone_tile.points == 1
            assert means.tobytes() == alone[0].tobytes()
            assert m2.tobytes() == alone[1].tobytes()
            assert np.float64(com).tobytes() == np.float64(alone[2]).tobytes()
            assert counts.tolist() == alone[3].tolist()
            assert np.isfinite(means).all() and np.isfinite(m2).all() and math.isfinite(com)
            by_protocol.setdefault(protocol, (means, counts))
        # MRC's combined x3 SINR is never below SC's
        (ehs_means, ehs_counts), (hs_means, hs_counts) = (
            by_protocol[Protocol.EHS_MRC], by_protocol[Protocol.HS_SC]
        )
        assert ehs_counts[2] <= hs_counts[2]
        assert ehs_means[2] >= hs_means[2]

    def test_merge_equals_single_pass(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=1024)
        full = chunk(params, varz, cfg, 0, 1024)
        part_a = chunk(params, varz, cfg, 0, 400)
        part_b = chunk(params, varz, cfg, 400, 1024)
        n, means, m2, com, counts = montecarlo._merge(part_a, part_b)
        assert n == full[0]
        assert np.array_equal(counts, full[4])
        assert means == pytest.approx(full[1], rel=1e-12)
        assert m2 == pytest.approx(full[2], rel=1e-10)
        assert com == pytest.approx(full[3], rel=1e-10)

    def test_baseline_flag_semantics(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=4096)
        n, means, m2, com, counts = first_row(
            chunk(params, varz, cfg, 0, 4096, protocol=Protocol.HS_SC)
        )
        assert counts[0] == n  # x1 never transmitted -> always in outage
        assert means[0] == 0.0  # and carries no capacity


def sweep_points(variable, count):
    """count (params, varz) grid points of one sweep variable."""
    if variable == "snr":
        return [setup_point(rho=10.0 ** (0.5 * k)) for k in range(count)]
    if variable == "alpha":
        return [setup_point(alpha=0.1 + 0.05 * k) for k in range(count)]
    return [setup_point(d1=0.1 + 0.05 * k) for k in range(count)]


def tile_sizes(points, n):
    return [tile.points for tile in make_tiles(points, Protocol, max(1, CHUNK_TRIALS // n))]


def tile_values(tile):
    """Every value a tile carries, by name."""
    return {**vars(tile.params), **vars(tile.thr), **vars(tile.varz)}


def assert_each_point_alone(points, cfg):
    # each (point, protocol) entry of a call has the bits of a call with that
    # point and protocol alone, in either protocol order, at 1 and 2 workers
    alone = {
        (k, protocol): next(estimate_metrics([point], (protocol,), cfg))
        for k, point in enumerate(points)
        for protocol in Protocol
    }
    for order in ORDERS:
        want = [alone[k, protocol] for k in range(len(points)) for protocol in order]
        for workers in (1, 2):
            assert list(estimate_metrics(points, order, cfg, workers=workers)) == want


class TestTiles:
    # snr varies rho, alpha varies alpha and the thresholds, d1 the variances
    @pytest.mark.parametrize("variable", ["snr", "alpha", "d1"])
    @pytest.mark.parametrize(
        "trials, count, sizes",
        [
            (CHUNK_TRIALS // 4, 4, [[4]]),  # one full tile
            (CHUNK_TRIALS // 4, 7, [[4, 3]]),  # an uneven last tile
            # one-point tiles on the full chunk, then a one-point last tile
            (CHUNK_TRIALS + CHUNK_TRIALS // 4, 5, [[1] * 5, [4, 1]]),
        ],
    )
    def test_each_point_equals_its_one_point_call(self, variable, trials, count, sizes):
        # a point's estimate is the same bits alone and at any tile position,
        # at any worker count
        points = sweep_points(variable, count)
        lengths = [CHUNK_TRIALS, trials - CHUNK_TRIALS] if trials > CHUNK_TRIALS else [trials]
        assert [tile_sizes(points, n) for n in lengths] == sizes
        assert_each_point_alone(points, make_cfg(trials=trials))

    @pytest.mark.parametrize(
        "variable, varying",
        [
            ("snr", {"rho"}),
            ("alpha", {"alpha", "psi_r1", "psi_r2", "psi_r3"}),
            ("d1", {"d1", "lambda_ccu", "lambda_relay"}),
        ],
    )
    def test_only_values_that_vary_are_columns(self, variable, varying):
        points = sweep_points(variable, 5)
        [tile] = make_tiles(points, Protocol, 8)
        values = tile_values(tile)
        columns = {name for name, v in values.items() if isinstance(v, np.ndarray)}
        assert columns == varying
        for name in columns:
            assert values[name].shape == (5, 1)
        assert all(type(v) is float for name, v in values.items() if name not in columns)
        # the tile's thresholds have the bits of each point's own
        own = [thresholds(params) for params, _ in points]
        for name in ("psi_r1", "psi_r2", "psi_r3"):
            expected = np.array([getattr(thr, name) for thr in own])
            assert np.broadcast_to(values[name], (5, 1)).ravel().tobytes() == expected.tobytes()

    def test_points_that_share_every_value(self):
        # the same point twice makes a tile that holds no column at all, so
        # every step runs on (n,) rows and each row's counts and moments
        # stand for both points
        point = setup_point()
        points = [point, point]
        [shared] = make_tiles(points, Protocol, 32)
        assert shared.points == 2
        assert_rows_partition([shared], len(points) * len(Protocol))
        assert all(type(v) is float for v in tile_values(shared).values())
        assert_each_point_alone(points, make_cfg(trials=1000))

    @pytest.mark.parametrize("trials", [CHUNK_TRIALS // 8, CHUNK_TRIALS + CHUNK_TRIALS // 8])
    def test_threshold_overflow_raises_before_any_chunk(self, monkeypatch, trials):
        # 2^(2r/(1-alpha)) overflows at the last two alpha points; the first
        # of them, third in its tile where a chunk of 4096 trials makes
        # tiles of 8, raises its own message, and no chunk draws its gains
        alphas = [0.5 + 0.04 * k for k in range(10)] + [0.9985, 0.999]
        grid = [setup_point(alpha=alpha) for alpha in alphas]
        thresholds(grid[9][0])
        with pytest.raises(ValueError) as own:
            thresholds(grid[10][0])
        with pytest.raises(ValueError) as last:
            thresholds(grid[11][0])
        assert str(own.value) != str(last.value)

        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(model, "sample_gains", no_chunk)
        for workers in (1, 2):
            with pytest.raises(ValueError, match=f"^{re.escape(str(own.value))}$"):
                estimate_metrics(grid, Protocol, make_cfg(trials=trials), workers=workers)


class TestUfuncBuffer:
    @pytest.mark.parametrize("n", [7, 999, 1000, 1696, 8192])
    @pytest.mark.parametrize("variable", ["snr", "alpha", "d1"])
    def test_statistics_do_not_depend_on_the_buffer(self, variable, n, monkeypatch):
        # a chunk's tiles run with the ufunc buffer cut to its trial count
        # rounded down to a multiple of 16, so the (points, 1) columns of
        # these tiles broadcast without numpy's buffered copies; every
        # statistic keeps the bits it has under numpy's default buffer
        default = np.getbufsize()
        points = sweep_points(variable, 5)
        plans = {n: make_tiles(points, Protocol, max(1, CHUNK_TRIALS // n))}
        accumulate = _kernels.accumulate_chunk
        sizes = []

        def recording(tile, ws, n, out):
            sizes.append(np.getbufsize())
            return accumulate(tile, ws, n, out)

        monkeypatch.setattr(_kernels, "accumulate_chunk", recording)
        kernel = montecarlo._run_chunk(plans, make_cfg(trials=n), 0, n)
        assert sizes and set(sizes) == {min(default, max(16, n - n % 16))}
        assert np.getbufsize() == default
        ws = _kernels.Workspace()
        ws.fit(n)
        model.sample_gains(42, 0, n, out=ws.draws[:, :n])
        stats = nan_stats(len(points) * len(Protocol))
        for tile in plans[n]:
            accumulate(tile, ws, n, stats)
        assert np.getbufsize() == default
        for got, want in zip(kernel[1:], stats):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_buffer_size_is_restored(self, workers, monkeypatch):
        before = np.getbufsize()
        points = sweep_points("d1", 3)
        cfg = make_cfg(trials=CHUNK_TRIALS + 1000)
        assert estimate_metrics(points, Protocol, cfg, workers=workers).ok.all()
        assert np.getbufsize() == before

        def failing(tile, ws, n, out):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(_kernels, "accumulate_chunk", failing)
        with pytest.raises(RuntimeError, match="kernel failed"):
            estimate_metrics(points, Protocol, cfg, workers=workers)
        assert np.getbufsize() == before


class TestEstimates:
    def test_deterministic(self):
        params, varz = setup_point()
        a = estimate(params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC)
        b = estimate(params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC)
        assert a == b

    def test_worker_count_invariance(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=150_000)
        serial = estimate(params, varz, cfg, Protocol.EHS_MRC, workers=1)
        threaded = estimate(params, varz, cfg, Protocol.EHS_MRC, workers=4)
        assert serial == threaded

    def test_each_thread_keeps_its_own_workspace(self, monkeypatch):
        # more threads than cores and a short switch interval: a workspace
        # shared between threads would mix the draws of different chunks
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        points = [setup_point()]
        cfg = make_cfg(trials=8 * CHUNK_TRIALS + 5)
        serial = list(estimate_metrics(points, Protocol, cfg))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = list(estimate_metrics(points, Protocol, cfg, workers=4))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_partial_and_multi_chunk_trial_counts(self):
        params, varz = setup_point()
        for trials in (1000, CHUNK_TRIALS, CHUNK_TRIALS + 7, 3 * CHUNK_TRIALS):
            est = estimate(params, varz, make_cfg(trials=trials), Protocol.EHS_MRC)
            # an outage estimate is a count over exactly `trials` trials, and
            # its standard error is that of a proportion of `trials`
            for metric in ("op_x1", "op_x2_ccu", "op_x3_ceu"):
                p, se = est[metric].mean, est[metric].std_error
                assert p * trials == pytest.approx(round(p * trials), abs=1e-6)
                assert se * se * (trials - 1) == pytest.approx(p * (1.0 - p), rel=1e-12)

    def test_standard_error_scales_with_trials(self):
        params, varz = setup_point()
        small = estimate(params, varz, make_cfg(trials=CHUNK_TRIALS), Protocol.EHS_MRC)
        large = estimate(params, varz, make_cfg(trials=4 * CHUNK_TRIALS), Protocol.EHS_MRC)
        for metric in ("c_x2", "esc_total", "op_x3_ceu", "ee"):
            ratio = small[metric].std_error / large[metric].std_error
            assert 1.7 < ratio < 2.3, metric

    def test_ranges(self):
        params, varz = setup_point()
        est = estimate(params, varz, make_cfg(), Protocol.EHS_MRC)
        for metric in ("op_x1", "op_x2_ccu", "op_x3_ceu"):
            assert 0.0 <= est[metric].mean <= 1.0
        for metric in ("c_x1", "c_x2", "c_x3", "esc_total"):
            assert est[metric].mean > 0.0
        assert est["mean_p_relay"].mean > 0.0
        assert est["ee"].mean > 0.0

    def test_sum_and_ratio_identities(self):
        params, varz = setup_point()
        est = estimate(params, varz, make_cfg(), Protocol.EHS_MRC)
        parts = est["c_x1"].mean + est["c_x2"].mean + est["c_x3"].mean
        assert est["esc_total"].mean == pytest.approx(parts, rel=1e-12)
        assert est["ee"].mean == est["esc_total"].mean / est["mean_p_relay"].mean

    def test_certain_outage_above_sic_ceiling(self):
        params, varz = setup_point(r3=1.2)
        est = estimate(params, varz, make_cfg(trials=10_000), Protocol.EHS_MRC)
        assert est["op_x2_ccu"].mean == 1.0
        assert est["op_x3_ceu"].mean == 1.0
        assert est["op_x2_ccu"].std_error == 0.0

    def test_exact_outage_form_within_three_sigma(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=1_000_000)
        est = estimate(params, varz, cfg, Protocol.EHS_MRC)
        thr = thresholds(params)
        ana = analytic.op_ceu_x1(params, varz, thr)
        assert abs(est["op_x1"].mean - ana) <= 3.0 * est["op_x1"].std_error

    def test_capacity_keeps_its_precision_at_low_snr(self):
        # at -160 dB, 1 + snr rounds away all but a few bits of snr; the
        # simulated capacity keeps its relative precision, so its estimate
        # meets the exact form (z near -21 if it took log2 of 1 + snr)
        params, varz = setup_point(rho=10.0 ** -16.0)
        est = estimate(params, varz, make_cfg(trials=2000), Protocol.HS_SC)
        exact = analytic.ergodic_c_x2(params, varz)
        assert est["c_x2"].std_error > 0.0
        assert abs(est["c_x2"].mean - exact) <= 3.0 * est["c_x2"].std_error

    @pytest.mark.parametrize("snr_db, d1", [(15.0, 0.5), (30.0, 0.5), (15.0, 0.9)])
    def test_near_user_outage_matches_exact_form(self, snr_db, d1):
        # op_x2_ccu against its exact one-line form, for both protocols; not
        # at 0 dB, where every trial is in outage and the standard error is 0
        params, varz = setup_point(rho=10.0 ** (snr_db / 10.0), d1=d1)
        psi2, psi3 = (2.0 ** (2.0 * r / (1.0 - params.alpha)) - 1.0 for r in (params.r2, params.r3))
        exact = outage_x2_near_user(
            params.rho, params.p_n, params.p_f, psi2, psi3, d1 ** -params.v
        )
        for est in estimate_metrics([(params, varz)], Protocol, make_cfg(trials=1_000_000, seed=7)):
            p, se = est["op_x2_ccu"].mean, est["op_x2_ccu"].std_error
            assert se > 0.0
            assert abs(p - exact) <= 3.0 * se

    def test_protocol_orderings(self):
        params, varz = setup_point()
        ehs = estimate(params, varz, make_cfg(), Protocol.EHS_MRC)
        hs = estimate(params, varz, make_cfg(), Protocol.HS_SC)
        assert ehs["esc_total"].mean > hs["esc_total"].mean
        assert ehs["op_x3_ceu"].mean <= hs["op_x3_ceu"].mean
        # the near-user symbols see identical channels under both protocols
        assert ehs["op_x2_ccu"] == hs["op_x2_ccu"]
        assert ehs["c_x2"] == hs["c_x2"]
        assert hs["op_x1"].mean == 1.0
        assert hs["c_x1"].mean == 0.0
        assert hs["c_x1"].std_error == 0.0

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            make_cfg(trials=0)

    def test_protocol_names_run_as_their_protocols(self):
        # a name is taken as its Protocol: "ehs-mrc" must not run as the baseline
        params, varz = setup_point()
        cfg = make_cfg(trials=1000)
        named = list(estimate_metrics([(params, varz)], ("hs-sc", "ehs-mrc"), cfg))
        assert named == list(estimate_metrics([(params, varz)], ORDERS[1], cfg))
        assert named[1]["c_x1"].mean > 0.0 and named[0]["c_x1"].mean == 0.0

    @pytest.mark.parametrize(
        "protocols",
        [(), ("mrc",), (None,), ("ehs-mrc", Protocol.EHS_MRC), (Protocol.HS_SC,) * 2],
        ids=["none", "unknown name", "not a name", "repeated by name", "repeated"],
    )
    @pytest.mark.parametrize("points", [1, 0])
    def test_bad_protocols_raise_before_any_chunk(self, protocols, points, monkeypatch):
        # a repeated protocol would leave entries that no tile writes
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(model, "sample_gains", no_chunk)
        with pytest.raises(ValueError):
            estimate_metrics([setup_point()] * points, protocols, make_cfg(trials=10))

    def test_no_points_give_no_estimates(self):
        estimates = estimate_metrics([], Protocol, make_cfg(trials=10))
        assert list(estimates) == [] and estimates.mean.shape == (0, len(montecarlo.METRICS))


def hand_total(n, means, m2, com, counts):
    return (
        n,
        np.array(means, dtype=np.float64),
        np.array(m2, dtype=np.float64),
        com,
        np.array(counts, dtype=np.int64),
    )


def finish_cases():
    rng = np.random.default_rng(5)
    means = rng.uniform(0.1, 5.0, 5)
    m2 = rng.uniform(0.0, 50.0, 5)
    cases = {
        "n=1": hand_total(1, means, np.zeros(5), 0.0, [1, 0, 1]),
        "n=2": hand_total(2, means, m2, -1.25, [2, 1, 0]),
        "n=1000": hand_total(1000, means, m2 * 100.0, 3.7, [1000, 263, 999]),
        "zero variance": hand_total(1000, means, np.zeros(5), 0.0, [17, 17, 17]),
        "no outage": hand_total(1000, means, m2, 0.5, [0, 0, 0]),
        "certain outage": hand_total(1000, means, m2, 0.5, [1000, 1000, 1000]),
        "zero esc": hand_total(
            1000, [0.0, 0.0, 0.0, 0.0, means[4]], [0.0, 0.0, 0.0, 0.0, m2[4]], 0.0, [1000, 5, 1000]
        ),
    }
    # totals of real chunks: one chunk's, and the merge of two
    params, varz = setup_point()
    cfg = make_cfg(trials=3000)
    for protocol in Protocol:
        first = chunk(params, varz, cfg, 0, 1000, protocol)
        cases[f"chunk {protocol.value}"] = first_row(first)
        cases[f"merged {protocol.value}"] = first_row(
            montecarlo._merge(first, chunk(params, varz, cfg, 1000, 3000, protocol))
        )
    return cases


FINISH_CASES = finish_cases()
FINISH_POINT = setup_point()
# rows at the edges of the finish: a ratio variance of -0.0, which
# max(v, 0.0) passes, one below 0, which it clips, and one trial
EDGE_CASES = {
    "ratio variance -0.0": hand_total(
        1000, [1.0, 2.0, 3.0, 4.0, 0.5], [1.0, 1.0, 1.0, -0.0, -0.0], 0.0, [3, 4, 5]
    ),
    "ratio variance < 0": hand_total(
        1000, [1.0, 2.0, 3.0, 4.0, 0.5], [1.0, 1.0, 1.0, 1.0, 1.0], 10.0, [3, 4, 5]
    ),
    "n=1 zero esc": hand_total(1, [0.0, 0.0, 0.0, 0.0, 0.25], np.zeros(5), 0.0, [1, 1, 0]),
}
# rows the reference rejects: no relay power, and a moment that overflowed
REJECTED_CASES = {
    "zero mean relay power": hand_total(
        1000, [1.0, 2.0, 3.0, 4.0, 0.0], np.ones(5), 0.0, [0, 0, 0]
    ),
    "zero mean relay power n=1": hand_total(
        1, [1.0, 2.0, 3.0, 4.0, 0.0], np.zeros(5), 0.0, [1, 0, 0]
    ),
    "overflowed moment": hand_total(
        1000, [1.0, 2.0, math.inf, 4.0, 0.5], np.ones(5), 0.0, [0, 0, 0]
    ),
}
# a mean relay power whose square underflows or is subnormal, where the
# finish divides by it twice and departs from the reference on purpose
TINY_MEAN_P_CASES = {
    "square underflows": hand_total(
        1000, [0.0, 0.0, 0.0, 0.0, 3e-300], np.zeros(5), 0.0, [0, 0, 0]
    ),
    "square subnormal": hand_total(
        1000, [0.0, 0.0, 0.0, 2e-6, 3e-160], [0.0, 0.0, 0.0, 1e-17, 0.0], 0.0, [0, 0, 0]
    ),
}


def table(totals):
    """Totals of one trial count, stacked as the rows of one whole-call total."""
    [n] = {total[0] for total in totals}
    return (n, *(np.array([total[k] for total in totals]) for k in range(1, 5)))


def finish(total):
    """One total finished as a one-point call: {metric: Estimate}; raises its ValueError."""
    finished = montecarlo._finish(table([total]))
    [est] = montecarlo.Estimates([FINISH_POINT], (Protocol.EHS_MRC,), *finished)
    return est


def hex_pairs(estimates):
    return [(float.hex(mean), float.hex(std_error)) for mean, std_error in estimates]


class TestFinish:
    def test_one_table_per_trial_count(self):
        # every total above finished as a row of one whole-call table per
        # trial count: each row has the reference's bits, or is flagged as
        # the reference rejects it, whatever rows sit beside it
        named = {**FINISH_CASES, **EDGE_CASES, **REJECTED_CASES, **TINY_MEAN_P_CASES}
        by_n = {}
        for name, total in named.items():
            by_n.setdefault(total[0], []).append(name)
        assert sorted(by_n) == [1, 2, 1000, 3000]
        for names in by_n.values():
            mean, std_error, moments_ok, ee_ok = montecarlo._finish(
                table([named[name] for name in names])
            )
            for i, name in enumerate(names):
                got = hex_pairs(zip(mean[i].tolist(), std_error[i].tolist()))
                if name in TINY_MEAN_P_CASES:
                    want = hex_pairs(finish(named[name]).values())
                    assert (got, moments_ok[i], ee_ok[i]) == (want, True, True), name
                    continue
                try:
                    reference = finish_reference(*named[name])
                except ValueError as exc:
                    assert name in REJECTED_CASES
                    if str(exc) == "moments":
                        assert not moments_ok[i], name
                    else:
                        # no ratio without relay power, as at one point alone
                        assert moments_ok[i] and not ee_ok[i], name
                        assert math.isnan(mean[i, -1]) and math.isnan(std_error[i, -1]), name
                    continue
                want = hex_pairs(reference[metric] for metric in montecarlo.METRICS)
                assert (got, moments_ok[i], ee_ok[i]) == (want, True, True), name

    @pytest.mark.parametrize("total", FINISH_CASES.values(), ids=FINISH_CASES.keys())
    def test_bits_match_numpy_scalar_reference(self, total):
        got = finish(total)
        want = finish_reference(*total)
        assert list(got) == list(want)
        for metric, est in got.items():
            assert type(est.mean) is float and type(est.std_error) is float, metric
            assert (est.mean.hex(), est.std_error.hex()) == tuple(
                float.hex(value) for value in want[metric]
            ), metric

    @pytest.mark.parametrize("where", ["means", "m2", "com"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_moment_raises(self, where, bad):
        n, means, m2, com, counts = FINISH_CASES["n=1000"]
        means, m2 = means.copy(), m2.copy()
        if where == "com":
            com = bad
        else:
            {"means": means, "m2": m2}[where][2] = bad
        total = (n, means, m2, com, counts)
        with pytest.raises(ValueError, match="moments"):
            finish_reference(*total)
        with pytest.raises(ValueError, match=r"^simulated moments overflow at snr_db=15 \(rho="):
            finish(total)

    @pytest.mark.parametrize("n", [1, 1000])
    def test_zero_mean_relay_power_raises(self, n):
        _, means, m2, com, counts = FINISH_CASES["n=1000"]
        means = means.copy()
        means[4] = 0.0
        total = (n, means, m2, com, counts)
        with pytest.raises(ValueError, match="ee"):
            finish_reference(*total)
        with pytest.raises(
            ValueError, match=r"^energy efficiency undefined at snr_db=15 .*: mean relay power is 0$"
        ):
            finish(total)

    def test_mean_relay_power_whose_square_underflows(self):
        # about -3000 dB: esc is 0 and mean_p^2 underflows to 0, which made the
        # reference divide 0 by 0; dividing by mean_p twice gives 0
        total = hand_total(1000, [0.0, 0.0, 0.0, 0.0, 3e-300], np.zeros(5), 0.0, [0, 0, 0])
        with pytest.raises(ValueError, match="ee"):
            finish_reference(*total)
        ee = finish(total)["ee"]
        assert (ee.mean, ee.std_error) == (0.0, 0.0)

    def test_mean_relay_power_whose_square_is_subnormal(self):
        # mean_p^2 = 9e-320 keeps about 14 bits, so dividing by it lost the
        # standard error's fifth digit; dividing by mean_p twice keeps them all
        n, mean_p, m2_esc = 1000, 3e-160, 1e-17
        means, m2 = [0.0, 0.0, 0.0, 2e-6, mean_p], [0.0, 0.0, 0.0, m2_esc, 0.0]
        total = hand_total(n, means, m2, 0.0, [0, 0, 0])
        exact = math.sqrt(Fraction(m2_esc) / (n - 1) / Fraction(mean_p) ** 2 / n)
        ee = finish(total)["ee"]
        assert ee.std_error == pytest.approx(exact, rel=1e-15)
        assert finish_reference(*total)["ee"][1] != pytest.approx(exact, rel=1e-6)


def fake_chunk(plans, cfg, lo, hi):
    # moments that depend on the chunk index, so a fold out of order shows
    rows = sum(tile.points * len(tile.protocols) for tile in plans[hi - lo])
    return (
        hi - lo,
        np.full((rows, 5), 1.0 + lo),
        np.zeros((rows, 5)),
        np.zeros(rows),
        np.zeros((rows, 3), dtype=np.int64),
    )


class LazyFuture:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.in_flight -= 1
        return self.fn(*self.args)


class RecordingPool:
    """ThreadPoolExecutor stand-in: starts no thread and runs a call when its result is read."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.in_flight = self.peak_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return LazyFuture(self, fn, args)


class TestChunkScheduling:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_flat_in_trials(self, workers, monkeypatch):
        # the fake also stands in for the workspace, which _run_chunk allocates
        monkeypatch.setattr(montecarlo, "_run_chunk", fake_chunk)
        cfg = make_cfg(trials=2 * 10 ** 8)
        one = ([setup_point()], (Protocol.EHS_MRC,))
        # the 14 (point, protocol) entries of the default sweep
        sweep = (snr_points(range(0, 35, 5)), Protocol)
        for points, protocols in (one, sweep):
            tracemalloc.start()
            try:
                estimates = list(estimate_metrics(points, protocols, cfg, workers=workers))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(estimates) == len(points) * len(protocols)
            assert peak < 1 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kernel_memory_bounded_per_thread(self, workers, monkeypatch):
        # the real kernel: a tile holds at most one chunk's cells, so each
        # thread's workspace and temporaries stay within a fixed number of
        # rows of CHUNK_TRIALS doubles, for 491 points of 1000 trials (tiles
        # of 32 points) as for one point of 10^5 trials (one-point tiles)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        # uniform_lanes imports numpy.random on its first call; that one-time
        # module import is not kernel memory, so it happens before tracing
        import numpy.random  # noqa: F401

        row_bytes = CHUNK_TRIALS * 8
        dense = ([setup_point(d1=0.01 + 0.002 * k) for k in range(491)], Protocol)
        one = ([setup_point()], (Protocol.EHS_MRC,))
        for (points, protocols), trials in ((dense, 1000), (one, 10 ** 5)):
            threads = min(workers, -(-trials // CHUNK_TRIALS))
            # an empty pool, so the call makes and counts its workspaces
            monkeypatch.setattr(montecarlo, "_POOL", [])
            tracemalloc.start()
            try:
                estimates = list(
                    estimate_metrics(points, protocols, make_cfg(trials=trials), workers=workers)
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(estimates) == len(points) * len(protocols)
            assert peak < 14 * row_bytes * threads

    @pytest.mark.skipif(
        sys.platform != "linux", reason="counts minor page faults as Linux reports them"
    )
    def test_repeated_call_takes_few_page_faults(self):
        # workspaces outlive the call and a chunk allocates nothing that grows
        # with its trials or cells, so a repeated call touches little fresh
        # memory; a tile's temporaries alone, one 250 KiB array each, would
        # fault in far more pages than the bound allows
        import resource

        dense = ([setup_point(d1=0.01 + 0.002 * k) for k in range(491)], Protocol)
        one = ([setup_point()], (Protocol.EHS_MRC,))
        for (points, protocols), trials in ((dense, 1000), (one, 10 ** 5)):
            cfg = make_cfg(trials=trials)
            assert estimate_metrics(points, protocols, cfg).ok.all()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert estimate_metrics(points, protocols, cfg).ok.all()
            assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500, trials

    def test_pool_keeps_one_workspace_per_cpu_between_calls(self, monkeypatch):
        # however many workers a call asks for, it leaves at most one workspace
        # per CPU in the pool, and the next call borrows those same workspaces
        monkeypatch.setattr(montecarlo, "_POOL", [])
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        params, varz = setup_point()
        cfg = make_cfg(trials=6 * CHUNK_TRIALS)
        first = estimate(params, varz, cfg, Protocol.EHS_MRC, workers=5000)
        kept = list(montecarlo._POOL)
        assert 1 <= len(kept) <= 2
        assert estimate(params, varz, cfg, Protocol.EHS_MRC, workers=5000) == first
        assert len(montecarlo._POOL) <= 2
        assert {id(ws) for ws in montecarlo._POOL} <= {id(ws) for ws in kept}

    def test_concurrent_calls_share_the_pool(self):
        # calls from several threads at once, each with more workers than
        # CPUs and a short switch interval, borrow and return workspaces under
        # the pool's lock: each gets the serial bits, and the pool keeps at
        # most one workspace per CPU
        params, varz = setup_point()
        cfg = make_cfg(trials=4 * CHUNK_TRIALS + 7)
        serial = estimate(params, varz, cfg, Protocol.EHS_MRC)
        results = []

        def call():
            results.append(estimate(params, varz, cfg, Protocol.EHS_MRC, workers=8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [serial] * 4
        assert len(montecarlo._POOL) <= (montecarlo.os.cpu_count() or 1)

    def test_worker_threads_capped(self, monkeypatch):
        pools = []

        def recording_pool(max_workers):
            pools.append(RecordingPool(max_workers))
            return pools[-1]

        monkeypatch.setattr(montecarlo, "_run_chunk", fake_chunk)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        params, varz = setup_point()
        cfg = make_cfg(trials=10 * CHUNK_TRIALS)
        serial = estimate(params, varz, cfg, Protocol.EHS_MRC, workers=1)
        assert pools == []
        assert estimate(params, varz, cfg, Protocol.EHS_MRC, workers=5000) == serial
        estimate(params, varz, make_cfg(trials=2 * CHUNK_TRIALS), Protocol.EHS_MRC, workers=5000)
        assert [pool.max_workers for pool in pools] == [3, 2]
        assert [pool.peak_in_flight for pool in pools] == [6, 2]


class TestValidationReport:
    def test_row_layout(self):
        params, varz = setup_point()
        est = estimate(params, varz, make_cfg(), Protocol.EHS_MRC)
        report = montecarlo.compare_with_analytic(params, varz, Protocol.EHS_MRC, est)
        metrics = [row.metric for row in report.rows]
        assert metrics == [
            "c_x1",
            "c_x2",
            "c_x3",
            "esc_total",
            "op_x1",
            "op_x2_ccu",
            "op_x3_ceu",
            "ee",
        ]
        by_metric = {row.metric: row for row in report.rows}
        for metric in ("c_x1", "c_x2", "op_x1"):
            assert by_metric[metric].status == "OK"
            assert abs(by_metric[metric].z) <= 3.0
        for metric in ("c_x3", "esc_total", "op_x2_ccu", "op_x3_ceu", "ee"):
            assert by_metric[metric].status == "APPROX"
            assert by_metric[metric].z is None
        assert not report.failed

    def test_baseline_rows(self):
        params, varz = setup_point()
        est = estimate(params, varz, make_cfg(), Protocol.HS_SC)
        report = montecarlo.compare_with_analytic(params, varz, Protocol.HS_SC, est)
        assert [row.metric for row in report.rows] == ["c_x2", "op_x2_ccu"]
        assert report.rows[0].status == "OK"
        assert report.rows[1].status == "APPROX"

    def test_exact_disagreement_fails(self, monkeypatch):
        params, varz = setup_point()

        def broken(params, varz, thr):
            return 0.5

        monkeypatch.setattr(analytic, "op_ceu_x1", broken)
        est = estimate(params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC)
        report = montecarlo.compare_with_analytic(params, varz, Protocol.EHS_MRC, est)
        assert report.failed
        row = {r.metric: r for r in report.rows}["op_x1"]
        assert row.status == "FAIL"
