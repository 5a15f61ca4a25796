import math

import numpy as np
import pytest

from ehs_cnoma import specfun
from oracles import ei_series, expected_log1p_exponential


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
