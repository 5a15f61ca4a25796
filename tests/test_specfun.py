import math
import sys

import numpy as np
import pytest

from ehs_cnoma import specfun
from ehs_cnoma.protocols import decode_threshold
from oracles import ei_series, expected_log1p_exponential
from oracles import neg_ei_exp as scalar_neg_ei_exp


def test_neg_ei_exp_frozen_values():
    assert specfun.neg_ei_exp(1.0) == pytest.approx(0.5963473623231940, rel=5e-15)
    assert abs(specfun.neg_ei_exp(31.6227766) - 3.0015) < 1e-3


def test_neg_ei_exp_matches_quadrature():
    for u in np.logspace(-4, 4, 17):
        ref = expected_log1p_exponential(float(u))
        assert specfun.neg_ei_exp(float(u)) == pytest.approx(ref, rel=1e-8), f"u={u}"


def test_neg_ei_exp_monotone_and_bounded():
    grid = np.logspace(-6, 6, 49)
    values = [specfun.neg_ei_exp(float(u)) for u in grid]
    for u, val in zip(grid, values):
        # Jensen: E[ln(1+uT)] <= ln(1+u E[T]) for T ~ Exp(1)
        assert 0.0 < val <= math.log1p(float(u))
    assert all(b > a for a, b in zip(values, values[1:]))


def test_neg_ei_exp_tiny_argument_linear():
    u = 1e-12
    assert specfun.neg_ei_exp(u) == pytest.approx(u, rel=1e-9)
    # below the reciprocal overflow threshold the linear limit is returned as is
    assert specfun.neg_ei_exp(1e-310) == 1e-310


def test_neg_ei_exp_domain_errors():
    for u in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            specfun.neg_ei_exp(u)


def test_neg_ei_exp_consistent_with_ei():
    # the fused form must equal its two factors wherever they are finite
    for u in (0.05, 0.1, 0.5, 1.0, 2.0):
        w = 1.0 / u
        direct = -ei_series(-w) * math.exp(w)
        assert specfun.neg_ei_exp(u) == pytest.approx(direct, rel=1e-12)


# 40,000 log-uniform arguments over [1e-320, 1e300], then the edges: w = 1/u
# = 6 where the series hands over to the continued fraction, the reciprocal
# overflow limit 1/DBL_MAX below which u is returned as is, and denormals
LOG_UNIFORM = np.exp(np.random.default_rng(26).uniform(math.log(1e-320), math.log(1e300), 40_000))
CUTOFF, OVERFLOW = 1.0 / 6.0, 1.0 / sys.float_info.max
EDGES = [
    CUTOFF, math.nextafter(CUTOFF, 0.0), math.nextafter(CUTOFF, 1.0),
    OVERFLOW, math.nextafter(OVERFLOW, 0.0), math.nextafter(OVERFLOW, 1.0),
    5e-324, 1e-310, sys.float_info.min, 1e300, 1.0,
]


def test_neg_ei_exp_arrays_match_the_scalar_form_bit_for_bit():
    # every element of an array, and every float, gets the bits of the
    # scalar evaluation the array one replaced
    u = np.concatenate([LOG_UNIFORM, EDGES])
    assert 1.0 / CUTOFF == 6.0
    values = specfun.neg_ei_exp(u)
    assert values.tobytes() == np.array([scalar_neg_ei_exp(x) for x in u.tolist()]).tobytes()
    for x in EDGES:
        value = specfun.neg_ei_exp(x)
        assert type(value) is float and value == scalar_neg_ei_exp(x)
    assert specfun.neg_ei_exp(u[:6].reshape(2, 3)).tobytes() == values[:6].tobytes()
    assert specfun.neg_ei_exp(np.array([])).shape == (0,)


def test_neg_ei_exp_array_with_one_bad_element_raises():
    with pytest.raises(ValueError, match="u must be finite and > 0, got 0.0"):
        specfun.neg_ei_exp(np.array([1.0, 0.0, math.inf]))


def test_elementwise_broadcasts_a_column_against_a_float():
    # a (P, 1) column, as a kernel tile carries a varying rate or alpha,
    # gets the bits of one float call per element, in its own shape
    decode = specfun.elementwise(decode_threshold)
    column = np.array([[0.5], [1.0], [3.0]])
    values = decode(column, 0.3)
    assert values.shape == (3, 1)
    expected = [decode_threshold(rate, 0.3) for rate in column.ravel().tolist()]
    assert values.tobytes() == np.array(expected).tobytes()
    grid = decode(column, np.array([0.1, 0.3]))
    assert grid.shape == (3, 2) and grid[:, 1:].tobytes() == values.tobytes()
