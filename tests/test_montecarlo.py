import math

import numpy as np
import pytest

from ehs_cnoma import _kernels, analytic, model, montecarlo, protocols
from ehs_cnoma.analytic import AnalyticReport, Exactness
from ehs_cnoma.model import ChannelRealization
from ehs_cnoma.montecarlo import CHUNK_TRIALS, EstimatorConfig, estimate_metrics
from ehs_cnoma.protocols import Protocol, thresholds


def setup_point(**overrides):
    params = model.SystemParams(rho=overrides.pop("rho", 10.0 ** 1.5), **overrides)
    return params, model.variances_from_distances(params)


def make_cfg(trials=100_000, seed=42):
    return EstimatorConfig(trials=trials, seed=seed)


def chunk(params, varz, cfg, lo, hi, protocol=Protocol.EHS_MRC):
    g_ccu, g_ceu, g_relay = model.sample_gains(varz, cfg.seed, lo, hi)
    return _kernels.accumulate_chunk(params, thresholds(params), protocol, g_ccu, g_ceu, g_relay)


class TestKernels:
    @pytest.mark.parametrize("protocol", list(Protocol))
    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_kernel_matches_scalar_outcomes(self, protocol, snr_db):
        params, varz = setup_point(rho=10.0 ** (snr_db / 10.0))
        thr = thresholds(params)
        gains = model.sample_gains(varz, 42, 0, CHUNK_TRIALS)
        outcomes = [
            protocols.realization_outcome(params, ChannelRealization(*map(float, g)), thr, protocol)
            for g in zip(*gains)
        ]
        scalar = {
            name: np.array([getattr(o, name) for o in outcomes])
            for name in ("c_x1", "c_x2", "c_x3", "p_relay", "out_x1", "out_x2_ccu", "out_x3_ceu")
        }
        # the array physics agrees with the scalar API trial by trial
        metrics = protocols._link_metrics(params, *gains, protocol)
        caps = protocols.instantaneous_capacities(params, metrics, protocol)
        flags = protocols.outage_flags(params, metrics, thr, protocol)
        for name, value in zip(scalar, (*caps, metrics.p_relay, *flags)):
            assert np.array_equal(np.broadcast_to(value, (CHUNK_TRIALS,)), scalar[name]), name
        # and the chunk reduction is the plain mean and count of those values
        n, means, m2, com, counts = _kernels.accumulate_chunk(params, thr, protocol, *gains)
        esc = (scalar["c_x1"] + scalar["c_x2"]) + scalar["c_x3"]
        assert n == CHUNK_TRIALS
        columns = (scalar["c_x1"], scalar["c_x2"], scalar["c_x3"], esc, scalar["p_relay"])
        assert means.tolist() == [column.mean() for column in columns]
        assert counts.tolist() == [
            np.count_nonzero(scalar[name]) for name in ("out_x1", "out_x2_ccu", "out_x3_ceu")
        ]

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
        n, means, m2, com, counts = chunk(params, varz, cfg, 0, 4096, protocol=Protocol.HS_SC)
        assert counts[0] == n  # x1 never transmitted -> always in outage
        assert means[0] == 0.0  # and carries no capacity


class TestEstimates:
    def test_deterministic(self):
        params, varz = setup_point()
        a = estimate_metrics(params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC)
        b = estimate_metrics(params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC)
        assert a == b

    def test_worker_count_invariance(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=150_000)
        serial = estimate_metrics(params, varz, cfg, Protocol.EHS_MRC, workers=1)
        threaded = estimate_metrics(params, varz, cfg, Protocol.EHS_MRC, workers=4)
        assert serial == threaded

    def test_partial_and_multi_chunk_trial_counts(self):
        params, varz = setup_point()
        for trials in (1000, CHUNK_TRIALS, CHUNK_TRIALS + 7, 3 * CHUNK_TRIALS):
            est = estimate_metrics(params, varz, make_cfg(trials=trials), Protocol.EHS_MRC)
            assert all(e.n == trials for e in est.values())

    def test_standard_error_scales_with_trials(self):
        params, varz = setup_point()
        small = estimate_metrics(params, varz, make_cfg(trials=CHUNK_TRIALS), Protocol.EHS_MRC)
        large = estimate_metrics(params, varz, make_cfg(trials=4 * CHUNK_TRIALS), Protocol.EHS_MRC)
        for metric in ("c_x2", "esc_total", "op_x3_ceu", "ee"):
            ratio = small[metric].std_error / large[metric].std_error
            assert 1.7 < ratio < 2.3, metric

    def test_ranges(self):
        params, varz = setup_point()
        est = estimate_metrics(params, varz, make_cfg(), Protocol.EHS_MRC)
        for metric in ("op_x1", "op_x2_ccu", "op_x3_ceu"):
            assert 0.0 <= est[metric].mean <= 1.0
        for metric in ("c_x1", "c_x2", "c_x3", "esc_total"):
            assert est[metric].mean > 0.0
        assert est["mean_p_relay"].mean > 0.0
        assert est["ee"].mean > 0.0

    def test_sum_and_ratio_identities(self):
        params, varz = setup_point()
        est = estimate_metrics(params, varz, make_cfg(), Protocol.EHS_MRC)
        parts = est["c_x1"].mean + est["c_x2"].mean + est["c_x3"].mean
        assert est["esc_total"].mean == pytest.approx(parts, rel=1e-12)
        assert est["ee"].mean == est["esc_total"].mean / est["mean_p_relay"].mean

    def test_certain_outage_above_sic_ceiling(self):
        params, varz = setup_point(r3=1.2)
        est = estimate_metrics(params, varz, make_cfg(trials=10_000), Protocol.EHS_MRC)
        assert est["op_x2_ccu"].mean == 1.0
        assert est["op_x3_ceu"].mean == 1.0
        assert est["op_x2_ccu"].std_error == 0.0

    def test_exact_outage_form_within_three_sigma(self):
        params, varz = setup_point()
        cfg = make_cfg(trials=1_000_000)
        est = estimate_metrics(params, varz, cfg, Protocol.EHS_MRC)
        thr = thresholds(params)
        ana = analytic.op_ceu_x1(params, varz, thr).value
        assert abs(est["op_x1"].mean - ana) <= 3.0 * est["op_x1"].std_error

    def test_protocol_orderings(self):
        params, varz = setup_point()
        ehs = estimate_metrics(params, varz, make_cfg(), Protocol.EHS_MRC)
        hs = estimate_metrics(params, varz, make_cfg(), Protocol.HS_SC)
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


class TestValidationReport:
    def test_row_layout(self):
        params, varz = setup_point()
        report = montecarlo.compare_with_analytic(params, varz, make_cfg(), Protocol.EHS_MRC)
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
        report = montecarlo.compare_with_analytic(params, varz, make_cfg(), Protocol.HS_SC)
        assert [row.metric for row in report.rows] == ["c_x2", "op_x2_ccu"]
        assert report.rows[0].status == "OK"
        assert report.rows[1].status == "APPROX"

    def test_exact_disagreement_fails(self, monkeypatch):
        params, varz = setup_point()

        def broken(params, varz, thr):
            return AnalyticReport(0.5, Exactness.EXACT)

        monkeypatch.setattr(analytic, "op_ceu_x1", broken)
        report = montecarlo.compare_with_analytic(
            params, varz, make_cfg(trials=50_000), Protocol.EHS_MRC
        )
        assert report.failed
        row = {r.metric: r for r in report.rows}["op_x1"]
        assert row.status == "FAIL"
