import math

import numpy as np
import pytest

from ehs_cnoma import _kernels, analytic
from ehs_cnoma.model import SystemParams, variances_from_distances
from ehs_cnoma.protocols import (
    Protocol,
    Thresholds,
    decode_threshold,
    far_links,
    far_user,
    near_user,
    relay_power,
    thresholds,
)

RHO_15DB = 10.0 ** 1.5
# thresholds that every symbol clears at unit gains
LOW = Thresholds(0.5, 0.5, 0.5)


def make_params(**overrides):
    return SystemParams(rho=overrides.pop("rho", RHO_15DB), **overrides)


def trial(params, gains, protocol=Protocol.EHS_MRC, thr=LOW):
    """(c_x1, c_x2, c_x3), (out_x1, out_x2, out_x3) and p_relay of one realization."""
    g_ccu, g_ceu, g_relay = gains
    c_x2, out_x2, decoded_x3, p_relay = near_user(params, thr, g_ccu)
    links = far_links(params, g_ceu, g_relay, p_relay)
    c_x1, c_x3, out_x1, out_x3 = far_user(params, thr, protocol, links, decoded_x3)
    return (c_x1, c_x2, c_x3), (out_x1, out_x2, out_x3), p_relay


class TestThresholds:
    def test_values(self):
        assert decode_threshold(1.0, 0.3) == pytest.approx(6.245789314111254, rel=1e-15)
        assert decode_threshold(0.5, 0.0) == 1.0
        assert decode_threshold(1.0, 0.5) == 15.0

    def test_monotone_in_rate_and_alpha(self):
        assert decode_threshold(1.5, 0.3) > decode_threshold(1.0, 0.3)
        assert decode_threshold(1.0, 0.5) > decode_threshold(1.0, 0.3)

    def test_argument_validation(self):
        # the rate and alpha ranges are SystemParams checks; only the
        # overflow is decode_threshold's own
        with pytest.raises(ValueError, match="overflows at rate=1.0, alpha=0.9995"):
            decode_threshold(1.0, 0.9995)
        with pytest.raises(ValueError, match="overflows at rate=600.0, alpha=0.3"):
            decode_threshold(600.0, 0.3)

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
        # rho = 10 at gains (1, 1, 0.5): snr_x1 = 10, snr_x2 = 1, the near
        # user's x3 SINR 9/2 and the direct one 4.5, the relayed SNR 8.1 * 0.5
        params = make_params(rho=10.0)
        caps, flags, p_relay = trial(params, (1.0, 1.0, 0.5))
        assert caps[0] == pytest.approx(0.3 * math.log2(11.0), rel=1e-15)
        assert caps[1] == pytest.approx(0.35, rel=1e-15)
        assert caps[2] == pytest.approx(0.35 * math.log2(1.0 + 4.5 + 4.05), rel=1e-14)
        assert p_relay == pytest.approx(8.1, abs=1e-12)
        assert flags == (False, False, False)

    def test_sic_interference_ceiling(self):
        # the near user's x3 SINR rises toward p_f/p_n and never reaches it
        params = make_params()
        ceiling = params.p_f / params.p_n
        below = Thresholds(LOW.psi_r1, LOW.psi_r2, ceiling - 1e-6)
        at = Thresholds(LOW.psi_r1, LOW.psi_r2, ceiling)
        assert not near_user(params, below, 1.0)[2]
        assert near_user(params, below, 1e12)[2]
        assert not near_user(params, at, 1e12)[2]

    def test_baseline_shares_everything_but_combining(self):
        # the near user's part takes no protocol; at these gains the direct
        # x3 SINR 4.5 beats the relayed 4.05, so selection keeps the direct one
        params = make_params(rho=10.0)
        ehs, ehs_flags, _ = trial(params, (1.0, 1.0, 0.5), Protocol.EHS_MRC)
        hs, hs_flags, _ = trial(params, (1.0, 1.0, 0.5), Protocol.HS_SC)
        assert hs[0] == 0.0 and hs_flags[0] is True
        assert hs[1] == ehs[1] and hs_flags[1] == ehs_flags[1]
        assert hs[2] == pytest.approx(0.35 * math.log2(1.0 + 4.5), rel=1e-15)
        assert hs[2] < ehs[2]

    def test_power_split_changes_relay_branch_only(self):
        low_caps, low_flags, low_p = trial(make_params(delta=0.1), (1.0, 1.0, 1.0))
        high_caps, high_flags, high_p = trial(make_params(delta=0.9), (1.0, 1.0, 1.0))
        assert low_caps[:2] == high_caps[:2]
        assert low_flags == high_flags
        assert low_p < high_p
        assert low_caps[2] < high_caps[2]


class TestCapacities:
    def test_exact_log_points(self):
        # rho = 1 at gains (10, 3, g): snr_x1 = 3, snr_x2 = 1, and g sets the
        # MRC-combined x3 SNR to 7 up to rounding
        params = make_params(rho=1.0, alpha=0.3)
        g_relay = (7.0 - 2.7 / 1.3) / relay_power(params, 10.0)
        (c_x1, c_x2, c_x3), _, _ = trial(params, (10.0, 3.0, g_relay))
        assert c_x1 == pytest.approx(0.6, rel=1e-15)  # 0.3 * log2(4)
        assert c_x2 == pytest.approx(0.35, rel=1e-15)  # 0.35 * log2(2)
        assert c_x3 == pytest.approx(1.05, rel=1e-14)  # 0.35 * log2(8)

    def test_baseline_never_counts_x1(self):
        (c_x1, _, _), _, _ = trial(make_params(), (1.0, 1e6, 1.0), Protocol.HS_SC)
        assert c_x1 == 0.0

    def test_zero_snr_zero_capacity(self):
        caps, _, _ = trial(make_params(rho=0.0), (1.0, 1.0, 1.0))
        assert caps == (0.0, 0.0, 0.0)

    def test_monotone_in_rho(self):
        prev = (0.0, 0.0, 0.0)
        for rho in (0.5, 2.0, 10.0, 50.0):
            caps, _, _ = trial(make_params(rho=rho), (1.0, 0.8, 0.6))
            assert all(c >= p for c, p in zip(caps, prev))
            prev = caps


class TestOutage:
    # rho = 10 at gains (1, 1, 0.5): snr_x1 = 10, snr_x2 = 1, the near
    # user's x3 SINR 4.5, the direct x3 SINR 4.5 and the MRC-combined 8.55
    GAINS = (1.0, 1.0, 0.5)

    def flags(self, thr, protocol=Protocol.EHS_MRC):
        return trial(make_params(rho=10.0), self.GAINS, protocol, thr)[1]

    def test_all_clear(self):
        assert self.flags(Thresholds(1.0, 0.5, 4.0)) == (False, False, False)

    def test_x2_below_threshold(self):
        assert self.flags(Thresholds(1.0, 1.5, 4.0)) == (False, True, False)

    def test_failed_sic_marks_both_near_user_symbols(self):
        # near user failing x3 blocks x2 and invalidates the relayed copy,
        # although the combined SNR 8.55 clears the threshold
        assert self.flags(Thresholds(1.0, 0.5, 5.0)) == (False, True, True)

    def test_x1_below_threshold(self):
        assert self.flags(Thresholds(11.0, 0.5, 4.0)) == (True, False, False)

    def test_threshold_equality_decodes(self):
        # x1, x2 and the near user's x3 sit on their thresholds; under
        # selection the far user's x3 SINR is the direct 4.5 too
        thr = Thresholds(10.0, 1.0, 4.5)
        assert self.flags(thr) == (False, False, False)
        assert self.flags(thr, Protocol.HS_SC)[1:] == (False, False)

    def test_baseline_x1_always_out(self):
        _, flags, _ = trial(make_params(), (1.0, 1e9, 1.0), Protocol.HS_SC)
        assert flags[0] is True

    def test_threshold_above_sic_ceiling_is_certain_outage(self):
        # psi_r3 exceeds p_f/p_n = 9, which the near user's x3 SINR never reaches
        params = make_params(r3=1.2)
        thr = thresholds(params)
        assert thr.psi_r3 > params.p_f / params.p_n
        for gains in ((0.1, 0.1, 0.1), (10.0, 10.0, 10.0), (1e6, 1e6, 1e6)):
            _, (_, out_x2, out_x3), _ = trial(params, gains, thr=thr)
            assert out_x2 and out_x3


class TestStepForms:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_out_rows_arrays_and_floats_agree(self, protocol):
        # each step on a block of trials, with and without a workspace, and on
        # each trial's float gains gives the same bits; trial 0 sits on every
        # threshold (rho = 10 at gains (1, 1, 0.5), as in TestOutage)
        params = make_params(rho=10.0)
        thr = Thresholds(10.0, 1.0, 4.5)
        gains = np.random.default_rng(3).exponential(1.0, (3, 64))
        gains[:, 0] = TestOutage.GAINS
        g_ccu, g_ceu, g_relay = gains

        near = near_user(params, thr, g_ccu)
        links = far_links(params, g_ceu, g_relay, near[3])
        far = far_user(params, thr, protocol, links, near[2])
        # a workspace whose rows hold NaN, and flags True, until a step
        # writes them; each step's results land in the rows its docstring names
        ws = _kernels.Workspace()
        rows, flags = ws.cells((64,), range(7), range(3))
        for row in rows:
            row.fill(np.nan)
        for flag in flags:
            flag.fill(True)
        near_out = near_user(params, thr, g_ccu, ws)
        links_out = far_links(params, g_ceu, g_relay, near_out[3], ws)
        held = [
            (near_out[0], rows[0]), (near_out[3], rows[1]), (near_out[2], flags[0]),
            (near_out[1], flags[1]), *zip(links_out, rows[4:]),
        ]
        # out_x2 is counted before far_user takes its flag for out_x1
        near_bits = [np.asarray(value).tobytes() for value in near_out]
        far_out = far_user(params, thr, protocol, links_out, near_out[2], ws)
        held += [(far_out[1], rows[3]), (far_out[3], flags[2])]
        if protocol is Protocol.EHS_MRC:
            held += [(far_out[0], rows[2]), (far_out[2], flags[1])]
        else:
            # the baseline's c_x1 is the float 0 and its x1 always out
            assert far[0] == 0.0 and far[2] is True
            assert flags[1].tobytes() == near_bits[1]

        assert near_bits == [np.asarray(value).tobytes() for value in near]
        for plain, written in zip((*links, *far), (*links_out, *far_out)):
            assert np.asarray(written).tobytes() == np.asarray(plain).tobytes()
        for value, row in held:
            assert np.shares_memory(value, row)

        for i in range(64):
            one_near = near_user(params, thr, float(g_ccu[i]))
            one_links = far_links(params, float(g_ceu[i]), float(g_relay[i]), one_near[3])
            one_far = far_user(params, thr, protocol, one_links, one_near[2])
            for value, column in [*zip(one_near, near), *zip(one_links, links), *zip(one_far, far)]:
                expected = column[i] if np.ndim(column) else column
                assert np.asarray(value).tobytes() == np.asarray(expected).tobytes(), i
        # on the thresholds every symbol decodes
        assert not near[1][0] and near[2][0] and not far[3][0]
        if protocol is Protocol.EHS_MRC:
            assert not far[2][0]
