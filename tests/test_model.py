import dataclasses
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from ehs_cnoma import _philox, model
from ehs_cnoma._philox import uniform_lanes
from ehs_cnoma.montecarlo import CHUNK_TRIALS, EstimatorConfig, estimate_metrics
from ehs_cnoma.protocols import Protocol
from oracles import ks_statistic_exponential, philox4x64_10


def raw_lanes(seed, start, n):
    """Lanes 0-2 of blocks [start, start + n) from the words of one random_raw call."""
    words = Philox(key=seed, counter=(start - 1) % 2 ** 256).random_raw(4 * n).reshape(n, 4)
    return ((words[:, :3] >> np.uint64(11)) * 2.0 ** -53).T


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

    def test_path_loss_outside_float_range_names_distances(self):
        # d2^(-v) underflows to 0 here, and d1^(-v) overflows
        with pytest.raises(ValueError, match="d2=1e\\+300"):
            model.variances_from_distances(make_params(d2=1e300))
        with pytest.raises(ValueError, match="d1=1e-300"):
            model.variances_from_distances(make_params(d1=1e-300))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            model.ChannelVariances(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            model.ChannelVariances(1.0, -2.0, 1.0)
        with pytest.raises(ValueError, match="lambda_relay"):
            model.ChannelVariances(1.0, 1.0, math.nan)
        with pytest.raises(ValueError, match="lambda_ccu"):
            model.ChannelVariances(math.inf, 1.0, 1.0)


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
            ({"r1": math.nan}, "r1"),
            ({"r2": math.nan}, "r2"),
            ({"r3": math.nan}, "r3"),
            ({"v": math.nan}, "v must"),
            ({"v": math.inf}, "v must"),
            ({"rho": math.inf}, "rho"),
            ({"d2": math.inf}, "d2"),
            ({"p_f": math.inf, "p_total": math.inf}, "p_f"),
            ({"r1": 0.0}, "r1 must be > 0"),
            ({"r3": 0.0}, "r3 must be > 0"),
        ],
    )
    def test_validation_names_offending_field(self, overrides, fragment):
        with pytest.raises(ValueError, match=fragment):
            make_params(**overrides)

    def test_rho_zero_allowed(self):
        assert make_params(rho=0.0).rho == 0.0


class TestCounterStream:
    @pytest.mark.parametrize("seed", [0, 42, 2 ** 63 + 12345, 2 ** 64 - 1])
    def test_raw_blocks_match_reference_generator(self, seed):
        # the oracle is an independent Philox4x64-10; block 0 checks the
        # counter wrap from 2^256 - 1 and 32767/32768 the chunk seam
        for start in (0, 1, 32767, 32768):
            mine = uniform_lanes(seed, start, start + 3)
            ref = [
                [(w >> 11) * 2.0 ** -53 for w in philox4x64_10(seed, b)[:3]]
                for b in range(start, start + 3)
            ]
            assert np.array_equal(mine.T, ref), start

    def test_uniform_lanes_match_reference_doubles(self):
        ref = Generator(Philox(key=42)).random(12)
        mine = uniform_lanes(42, 1, 4)
        # reference consumes all 4 words per block; lanes keep the first 3
        assert np.array_equal(mine[:, 0], ref[[0, 1, 2]])
        assert np.array_equal(mine[:, 1], ref[[4, 5, 6]])
        assert np.array_equal(mine[:, 2], ref[[8, 9, 10]])

    def test_long_range_equals_one_uninterrupted_stream(self):
        # a range the generator runs through in several steps gives the words
        # of one random_raw call over the whole range
        start, n = 5, 2 * _philox._WORD_BLOCKS + 17
        words = Philox(key=42, counter=start - 1).random_raw(4 * n).reshape(n, 4)
        ref = (words[:, :3] >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(uniform_lanes(42, start, start + n), ref.T)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, 98765, 2 ** 63 + 12345])
    def test_lanes_equal_one_random_raw_stream(self, seed):
        # the generator's doubles, a step at a time, against the words of one
        # random_raw call: from block 0 (the counter wraps from 2^256 - 1),
        # across the steps, and from just before a step's end
        step = _philox._WORD_BLOCKS
        for start, n in ((0, 3), (0, 2 * step + 17), (step - 3, 10), (3 * step + 1, step)):
            assert np.array_equal(uniform_lanes(seed, start, start + n), raw_lanes(seed, start, n))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_equal_those_from_random_raw_words(self, workers, monkeypatch):
        # a call whose chunks are drawn from random_raw words gives the same
        # estimates, at 1 and 2 workers
        params = model.SystemParams(rho=10.0 ** 1.5)
        varz = model.variances_from_distances(params)
        cfg = EstimatorConfig(trials=2 * CHUNK_TRIALS + 4099, seed=2 ** 64 - 5)
        expected = list(estimate_metrics(params, varz, Protocol, cfg, workers=workers))

        def from_raw(seed, start, stop, out=None):
            out[...] = raw_lanes(seed, start, stop - start)
            return out

        monkeypatch.setattr(_philox, "uniform_lanes", from_raw)
        assert list(estimate_metrics(params, varz, Protocol, cfg, workers=workers)) == expected

    def test_uniform_range(self):
        u = uniform_lanes(7, 0, 4096)
        assert u.shape == (3, 4096)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match=r"^inverted block range \[10, 5\)$"):
            uniform_lanes(1, 10, 5)
        # an empty range is not inverted: it gives no blocks
        assert uniform_lanes(1, 5, 5).shape == (3, 0)


class TestSampler:
    def test_inverse_cdf_identity(self):
        # a variance times the unit draw is the inverse CDF bit for bit
        u = uniform_lanes(9, 0, 256)
        draws = model.sample_gains(9, 0, 256)
        for lane, lam in enumerate((4.0, 1.0, 0.3)):
            assert np.array_equal(draws[lane], -np.log1p(-u[lane]))
            assert np.array_equal(lam * draws[lane], -lam * np.log1p(-u[lane]))

    def test_chunk_invariance(self):
        full = model.sample_gains(7, 0, 512)
        part = model.sample_gains(7, 100, 300)
        for lane in range(3):
            assert np.array_equal(part[lane], full[lane][100:300])

    def test_seed_changes_stream(self):
        a = model.sample_gains(1, 0, 128)
        b = model.sample_gains(2, 0, 128)
        assert not np.array_equal(a[0], b[0])


class TestDistribution:
    N = 1_000_000

    def test_mean_and_median(self):
        gains = model.sample_gains(42, 0, self.N)
        for lane in gains:
            assert abs(lane.mean() - 1.0) < 0.003
            assert abs(np.mean(lane < math.log(2.0)) - 0.5) < 0.0015

    def test_ks_distance(self):
        g_ccu, g_ceu, g_relay = (lam * draw for lam, draw in zip(
            (4.0, 1.0, 4.0), model.sample_gains(123, 0, self.N)
        ))
        assert ks_statistic_exponential(g_ccu, 4.0) < 0.002
        assert ks_statistic_exponential(g_ceu, 1.0) < 0.002
        assert ks_statistic_exponential(g_relay, 4.0) < 0.002

    def test_lanes_uncorrelated(self):
        g_ccu, g_ceu, g_relay = model.sample_gains(42, 0, self.N)
        assert abs(np.corrcoef(g_ccu, g_ceu)[0, 1]) < 0.005
        assert abs(np.corrcoef(g_ceu, g_relay)[0, 1]) < 0.005
