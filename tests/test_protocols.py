import pytest

from ehs_cnoma import analytic, protocols
from ehs_cnoma.model import SystemParams, variances_from_distances
from ehs_cnoma.protocols import (
    Protocol,
    Thresholds,
    decode_threshold,
    instantaneous_capacities,
    link_metrics,
    outage_flags,
    relay_power,
    thresholds,
)

RHO_15DB = 10.0 ** 1.5


def make_params(**overrides):
    return SystemParams(rho=overrides.pop("rho", RHO_15DB), **overrides)


def metrics_with(**overrides):
    base = dict(
        snr_x1_ceu=100.0,
        sinr_x3_ccu=8.9,
        snr_x2_ccu=100.0,
        sinr_x3_ceu_direct=8.9,
        p_relay=1.0,
        snr_x3_relay=100.0,
        snr_x3_combined=100.0,
    )
    base.update(overrides)
    return protocols.LinkMetrics(**base)


class TestThresholds:
    def test_values(self):
        assert decode_threshold(1.0, 0.3) == pytest.approx(6.245789314111254, rel=1e-15)
        assert decode_threshold(0.5, 0.0) == 1.0
        assert decode_threshold(1.0, 0.5) == 15.0

    def test_monotone_in_rate_and_alpha(self):
        assert decode_threshold(1.5, 0.3) > decode_threshold(1.0, 0.3)
        assert decode_threshold(1.0, 0.5) > decode_threshold(1.0, 0.3)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            decode_threshold(0.0, 0.3)
        with pytest.raises(ValueError):
            decode_threshold(1.0, 1.0)

    def test_struct_from_params(self):
        thr = thresholds(make_params(r1=0.5, r2=1.0, r3=1.5))
        assert thr.psi_r1 == decode_threshold(0.5, 0.3)
        assert thr.psi_r2 == decode_threshold(1.0, 0.3)
        assert thr.psi_r3 == decode_threshold(1.5, 0.3)


class TestHarvesting:
    def test_relay_power_worked_example(self):
        params = make_params(rho=10.0)
        # 0.7 * 10 * (0.6/0.7 + 0.3) * 1 = 6 + 2.1
        assert relay_power(params, 1.0) == pytest.approx(8.1, abs=1e-12)
        assert relay_power(params, 0.0) == 0.0

    def test_relay_power_default_point(self):
        assert relay_power(make_params(), 4.0) == pytest.approx(102.4577961894555, rel=1e-12)

    def test_relay_power_linear_in_eta(self):
        params_half = make_params(eta=0.35)
        params_full = make_params(eta=0.7)
        assert 2.0 * relay_power(params_half, 1.3) == pytest.approx(
            relay_power(params_full, 1.3), rel=1e-15
        )

    def test_mean_relay_power_is_relay_power_at_mean_gain(self):
        # both read the one harvesting factor, and the power is linear in g_ccu
        params = make_params(alpha=0.45, delta=0.2)
        varz = variances_from_distances(params)
        assert analytic.mean_relay_power(params, varz) == pytest.approx(
            relay_power(params, varz.lambda_ccu), rel=1e-15
        )


class TestLinkMetrics:
    def test_enhanced_worked_example(self):
        params = make_params(rho=10.0)
        m = link_metrics(params, 1.0, 1.0, 0.5, Protocol.EHS_MRC)
        assert m.snr_x1_ceu == pytest.approx(10.0, rel=1e-15)
        assert m.sinr_x3_ccu == pytest.approx(4.5, rel=1e-15)
        assert m.snr_x2_ccu == pytest.approx(1.0, rel=1e-15)
        assert m.sinr_x3_ceu_direct == pytest.approx(4.5, rel=1e-15)
        assert m.p_relay == pytest.approx(8.1, abs=1e-12)
        assert m.snr_x3_relay == pytest.approx(4.05, abs=1e-12)
        assert m.snr_x3_combined == pytest.approx(8.55, abs=1e-12)

    def test_sic_interference_ceiling(self):
        params = make_params()
        weak = link_metrics(params, 1.0, 1.0, 1.0, Protocol.EHS_MRC)
        strong = link_metrics(params, 1e12, 1.0, 1.0, Protocol.EHS_MRC)
        ceiling = params.p_f / params.p_n
        assert weak.sinr_x3_ccu < strong.sinr_x3_ccu < ceiling
        assert strong.sinr_x3_ccu > ceiling - 1e-6

    def test_baseline_shares_everything_but_combining(self):
        params = make_params(rho=10.0)
        gains = (1.0, 1.0, 0.5)
        ehs = link_metrics(params, *gains, Protocol.EHS_MRC)
        hs = link_metrics(params, *gains, Protocol.HS_SC)
        assert hs.snr_x1_ceu == 0.0
        assert hs.sinr_x3_ccu == ehs.sinr_x3_ccu
        assert hs.snr_x2_ccu == ehs.snr_x2_ccu
        assert hs.sinr_x3_ceu_direct == ehs.sinr_x3_ceu_direct
        assert hs.p_relay == ehs.p_relay
        assert hs.snr_x3_relay == ehs.snr_x3_relay
        assert hs.snr_x3_combined == max(ehs.sinr_x3_ceu_direct, ehs.snr_x3_relay)
        assert hs.snr_x3_combined <= ehs.snr_x3_combined

    def test_power_split_changes_relay_branch_only(self):
        low = link_metrics(make_params(delta=0.1), 1.0, 1.0, 1.0, Protocol.EHS_MRC)
        high = link_metrics(make_params(delta=0.9), 1.0, 1.0, 1.0, Protocol.EHS_MRC)
        assert low.sinr_x3_ccu == high.sinr_x3_ccu
        assert low.snr_x2_ccu == high.snr_x2_ccu
        assert low.snr_x1_ceu == high.snr_x1_ceu
        assert low.p_relay < high.p_relay
        assert low.snr_x3_combined < high.snr_x3_combined


class TestCapacities:
    def test_exact_log_points(self):
        params = make_params(alpha=0.3)
        m = metrics_with(snr_x1_ceu=3.0, snr_x2_ccu=1.0, snr_x3_combined=7.0)
        c_x1, c_x2, c_x3 = instantaneous_capacities(params, m, Protocol.EHS_MRC)
        assert c_x1 == pytest.approx(0.6, rel=1e-15)  # 0.3 * log2(4)
        assert c_x2 == pytest.approx(0.35, rel=1e-15)  # 0.35 * log2(2)
        assert c_x3 == pytest.approx(1.05, rel=1e-15)  # 0.35 * log2(8)

    def test_baseline_never_counts_x1(self):
        params = make_params()
        m = metrics_with(snr_x1_ceu=3.0)
        c_x1, _, _ = instantaneous_capacities(params, m, Protocol.HS_SC)
        assert c_x1 == 0.0

    def test_zero_snr_zero_capacity(self):
        params = make_params()
        m = metrics_with(snr_x1_ceu=0.0, snr_x2_ccu=0.0, snr_x3_combined=0.0)
        assert instantaneous_capacities(params, m, Protocol.EHS_MRC) == (0.0, 0.0, 0.0)

    def test_monotone_in_rho(self):
        prev = (0.0, 0.0, 0.0)
        for rho in (0.5, 2.0, 10.0, 50.0):
            params = make_params(rho=rho)
            m = link_metrics(params, 1.0, 0.8, 0.6, Protocol.EHS_MRC)
            caps = instantaneous_capacities(params, m, Protocol.EHS_MRC)
            assert all(c >= p for c, p in zip(caps, prev))
            prev = caps


class TestOutage:
    PSI = decode_threshold(1.0, 0.3)

    def thr(self):
        return Thresholds(self.PSI, self.PSI, self.PSI)

    def test_all_clear(self):
        flags = outage_flags(make_params(), metrics_with(), self.thr(), Protocol.EHS_MRC)
        assert flags == (False, False, False)

    def test_x2_below_threshold(self):
        m = metrics_with(snr_x2_ccu=6.0)
        flags = outage_flags(make_params(), m, self.thr(), Protocol.EHS_MRC)
        assert flags == (False, True, False)

    def test_failed_sic_marks_both_near_user_symbols(self):
        # near user failing x3 blocks x2 and invalidates the relayed copy
        m = metrics_with(sinr_x3_ccu=6.0)
        flags = outage_flags(make_params(), m, self.thr(), Protocol.EHS_MRC)
        assert flags == (False, True, True)

    def test_x1_below_threshold(self):
        m = metrics_with(snr_x1_ceu=6.0)
        flags = outage_flags(make_params(), m, self.thr(), Protocol.EHS_MRC)
        assert flags == (True, False, False)

    def test_threshold_equality_decodes(self):
        m = metrics_with(
            snr_x1_ceu=self.PSI,
            sinr_x3_ccu=self.PSI,
            snr_x2_ccu=self.PSI,
            snr_x3_combined=self.PSI,
        )
        flags = outage_flags(make_params(), m, self.thr(), Protocol.EHS_MRC)
        assert flags == (False, False, False)

    def test_baseline_x1_always_out(self):
        m = metrics_with(snr_x1_ceu=1e9)
        flags = outage_flags(make_params(), m, self.thr(), Protocol.HS_SC)
        assert flags[0] is True

    def test_threshold_above_sic_ceiling_is_certain_outage(self):
        # psi_r3 exceeds p_f/p_n = 9, which sinr_x3_ccu can never reach
        params = make_params(r3=1.2)
        thr = thresholds(params)
        assert thr.psi_r3 > params.p_f / params.p_n
        for gains in ((0.1, 0.1, 0.1), (10.0, 10.0, 10.0), (1e6, 1e6, 1e6)):
            m = link_metrics(params, *gains, Protocol.EHS_MRC)
            _, out_x2, out_x3 = outage_flags(params, m, thr, Protocol.EHS_MRC)
            assert out_x2 and out_x3
