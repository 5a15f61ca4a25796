"""The fused exponential-integral form -Ei(-1/u)*e^(1/u).

Every ergodic capacity closed form in this package reduces to the pattern
-Ei(-1/u)*e^(1/u), which equals E[ln(1+X)] for X exponential with mean u.
Evaluating the two factors separately overflows for small u, so the fused
form is computed through the continued fraction of e^w*E1(w) directly.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015329

_SERIES_CUTOFF = 6.0  # series below, continued fraction above
_MAX_ITER = 400
_FPMIN = 1e-300


def _ei_series(x: float) -> float:
    # Ei(x) = gamma + ln|x| + sum_k x^k / (k k!); safe for |x| <= ~6 where
    # alternating cancellation stays near machine precision
    total = EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, _MAX_ITER):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            break
    return total


def _e1_exp_cf(w: float) -> float:
    """e^w * E1(w) for w > 0 by modified Lentz, no exponential ever formed."""
    b = w + 1.0
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        a = -float(i) * float(i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    return h


def neg_ei_exp(u: float) -> float:
    """-Ei(-1/u) * e^(1/u) for u > 0, stable for u down to denormal range.

    Equals E[ln(1+X)] with X exponential of mean u: positive, strictly
    increasing in u, and below ln(1+u) + 1.
    """
    if u <= 0.0 or not math.isfinite(u):
        raise ValueError(f"u must be finite and > 0, got {u}")
    w = 1.0 / u
    if not math.isfinite(w):
        # u below the reciprocal overflow threshold: E[ln(1+X)] ~ u
        return u
    if w > _SERIES_CUTOFF:
        return _e1_exp_cf(w)
    # moderate w: series for E1(w) = -Ei(-w), then the exponential is tame
    return -_ei_series(-w) * math.exp(w)
