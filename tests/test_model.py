import dataclasses
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ehs_cnoma import model
from ehs_cnoma._philox import uniform_lanes
from oracles import ks_statistic_exponential, philox4x64_10


def make_params(**overrides):
    return model.SystemParams(rho=overrides.pop("rho", 10.0 ** 1.5), **overrides)


class TestVariances:
    def test_default_distances(self):
        varz = model.variances_from_distances(make_params())
        assert varz.lambda_ccu == 4.0
        assert varz.lambda_ceu == 1.0
        assert varz.lambda_relay == 4.0

    def test_zero_exponent_flattens_geometry(self):
        varz = model.variances_from_distances(make_params(v=0.0))
        assert (varz.lambda_ccu, varz.lambda_ceu, varz.lambda_relay) == (1.0, 1.0, 1.0)

    def test_quarter_distance(self):
        varz = model.variances_from_distances(make_params(d1=0.25))
        assert varz.lambda_ccu == 16.0
        assert varz.lambda_ceu == 1.0
        assert varz.lambda_relay == 0.75 ** -2.0

    def test_monotone_in_each_distance(self):
        near = model.variances_from_distances(make_params(d1=0.3))
        far = model.variances_from_distances(make_params(d1=0.6))
        assert near.lambda_ccu > far.lambda_ccu
        close = model.variances_from_distances(make_params(d2=1.0))
        remote = model.variances_from_distances(make_params(d2=2.0))
        assert close.lambda_ceu > remote.lambda_ceu

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            model.ChannelVariances(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            model.ChannelVariances(1.0, -2.0, 1.0)


class TestSystemParams:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"rho": -1.0}, "rho"),
            ({"alpha": 0.0}, "alpha"),
            ({"alpha": 1.0}, "alpha"),
            ({"delta": 0.0}, "delta"),
            ({"eta": 0.0}, "eta"),
            ({"eta": 1.5}, "eta"),
            ({"p_n": 0.6, "p_f": 0.4}, "p_n"),
            ({"p_n": 0.2}, "p_total"),
            ({"d1": 0.0}, "d1"),
            ({"d1": 1.0}, "d2"),
            ({"r2": 0.0}, "r2"),
            ({"v": -0.5}, "v"),
        ],
    )
    def test_validation_names_offending_field(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            make_params(**overrides)

    def test_rho_zero_allowed(self):
        assert make_params(rho=0.0).rho == 0.0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            model.ChannelRealization(1.0, -0.1, 1.0)


class TestCounterStream:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63 + 12345, 2 ** 64 - 1])
    def test_raw_blocks_match_reference_generator(self, seed):
        # the oracle is an independent Philox4x64-10; block 0 checks the
        # counter wrap from 2^256 - 1 and 32767/32768 the chunk seam
        for start in (0, 1, 32767, 32768):
            mine = uniform_lanes(seed, start, start + 3, lanes=4)
            ref = [
                [(w >> 11) * 2.0 ** -53 for w in philox4x64_10(seed, b)]
                for b in range(start, start + 3)
            ]
            assert np.array_equal(mine, ref), start

    def test_uniform_lanes_match_reference_doubles(self):
        ref = Generator(Philox(key=42)).random(12)
        mine = uniform_lanes(42, 1, 4)
        # reference consumes all 4 words per block; lanes keep the first 3
        assert np.array_equal(mine[0], ref[[0, 1, 2]])
        assert np.array_equal(mine[1], ref[[4, 5, 6]])
        assert np.array_equal(mine[2], ref[[8, 9, 10]])

    def test_uniform_range(self):
        u = uniform_lanes(7, 0, 4096)
        assert u.shape == (4096, 3)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            uniform_lanes(1, 10, 5)


class TestSampler:
    def test_inverse_cdf_identity(self):
        varz = model.ChannelVariances(4.0, 1.0, 4.0)
        u = uniform_lanes(9, 0, 256, lanes=3)
        g_ccu, g_ceu, g_relay = model.sample_gains(varz, 9, 0, 256)
        assert np.array_equal(g_ccu, -4.0 * np.log1p(-u[:, 0]))
        assert np.array_equal(g_ceu, -1.0 * np.log1p(-u[:, 1]))
        assert np.array_equal(g_relay, -4.0 * np.log1p(-u[:, 2]))

    def test_chunk_invariance(self):
        varz = model.ChannelVariances(2.0, 1.0, 3.0)
        full = model.sample_gains(varz, 7, 0, 512)
        part = model.sample_gains(varz, 7, 100, 300)
        for lane in range(3):
            assert np.array_equal(part[lane], full[lane][100:300])

    def test_single_realization_matches_stream(self):
        varz = model.ChannelVariances(2.0, 1.0, 3.0)
        full = model.sample_gains(varz, 7, 0, 64)
        real = model.sample_realization(varz, 7, 13)
        assert real.g_ccu == full[0][13]
        assert real.g_ceu == full[1][13]
        assert real.g_relay == full[2][13]
        assert model.sample_realization(varz, 7, 13) == real

    def test_negative_trial_index_rejected(self):
        with pytest.raises(ValueError):
            model.sample_realization(model.ChannelVariances(1.0, 1.0, 1.0), 0, -1)

    def test_seed_changes_stream(self):
        varz = model.ChannelVariances(1.0, 1.0, 1.0)
        a = model.sample_gains(varz, 1, 0, 128)
        b = model.sample_gains(varz, 2, 0, 128)
        assert not np.array_equal(a[0], b[0])


class TestDistribution:
    N = 1_000_000

    def test_mean_and_median(self):
        varz = model.ChannelVariances(1.0, 1.0, 1.0)
        gains = model.sample_gains(varz, 42, 0, self.N)
        for lane in gains:
            assert abs(lane.mean() - 1.0) < 0.003
            assert abs(np.mean(lane < math.log(2.0)) - 0.5) < 0.0015

    def test_ks_distance(self):
        varz = model.ChannelVariances(4.0, 1.0, 4.0)
        g_ccu, g_ceu, g_relay = model.sample_gains(varz, 123, 0, self.N)
        assert ks_statistic_exponential(g_ccu, 4.0) < 0.002
        assert ks_statistic_exponential(g_ceu, 1.0) < 0.002
        assert ks_statistic_exponential(g_relay, 4.0) < 0.002

    def test_lanes_uncorrelated(self):
        varz = model.ChannelVariances(1.0, 1.0, 1.0)
        g_ccu, g_ceu, g_relay = model.sample_gains(varz, 42, 0, self.N)
        assert abs(np.corrcoef(g_ccu, g_ceu)[0, 1]) < 0.005
        assert abs(np.corrcoef(g_ceu, g_relay)[0, 1]) < 0.005
