"""The fused exponential-integral form -Ei(-1/u)*e^(1/u).

Every ergodic capacity closed form in this package reduces to the pattern
-Ei(-1/u)*e^(1/u), which equals E[ln(1+X)] for X exponential with mean u.
Evaluating the two factors separately overflows for small u, so the fused
form is computed through the continued fraction of e^w*E1(w) directly.

neg_ei_exp takes a float or an array; each element stops on its own
convergence test and gets the bits it gets as a float.
"""

from __future__ import annotations

import functools
import math

import numpy as np

EULER_GAMMA = 0.5772156649015329

_SERIES_CUTOFF = 6.0  # series below, continued fraction above
_MAX_ITER = 400
_SERIES_BLOCK = 16  # series terms per array step
_FPMIN = 1e-300


def elementwise(f):
    """f, written for floats, applied element by element to broadcast array arguments.

    numpy does + - * / as Python floats do, but its exp, log and power
    differ from the math module's in the last bit on some inputs.
    """

    @functools.wraps(f)
    def over_elements(*args):
        if not any([isinstance(arg, np.ndarray) for arg in args]):
            return f(*args)
        args = np.broadcast_arrays(*args)
        values = list(map(f, *[arg.ravel().tolist() for arg in args]))
        return np.array(values, dtype=np.float64).reshape(args[0].shape)

    return over_elements


_exp = elementwise(math.exp)
_log = elementwise(math.log)


def _ei_series(x):
    # Ei(x) = gamma + ln|x| + sum_k x^k / (k k!); safe for |x| <= ~6 where
    # alternating cancellation stays near machine precision. Cumulative
    # products and sums over _SERIES_BLOCK terms at a time run in order, so
    # each partial sum has the bits of a term-by-term loop that stops at the
    # first converged one.
    out = np.empty_like(x)
    at = np.arange(len(x))
    total = EULER_GAMMA + _log(np.abs(x))
    term = np.ones_like(x)
    for first in range(1, _MAX_ITER, _SERIES_BLOCK):
        k = np.arange(first, min(first + _SERIES_BLOCK, _MAX_ITER), dtype=np.float64)
        terms = np.multiply.accumulate(np.column_stack([term, x[:, None] / k]), axis=1)[:, 1:]
        contribs = terms / k
        sums = np.add.accumulate(np.column_stack([total, contribs]), axis=1)[:, 1:]
        converged = np.abs(contribs) <= 1e-18 * np.abs(sums)
        stop = converged.argmax(axis=1)
        done = converged[np.arange(len(at)), stop]
        out[at[done]] = sums[done, stop[done]]
        going = ~done
        at, x, term, total = at[going], x[going], terms[going, -1], sums[going, -1]
        if not len(at):
            return out
    # no partial sum converged: the sum of all _MAX_ITER - 1 terms, as the loop
    out[at] = total
    return out


def _e1_exp_cf(w):
    """e^w * E1(w) for w > 0 by modified Lentz, no exponential ever formed."""
    b = w + 1.0
    c = np.full_like(w, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    running = np.ones(w.shape, dtype=bool)
    for i in range(1, _MAX_ITER):
        a = -float(i) * float(i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        np.multiply(h, delta, out=h, where=running)
        running &= ~(np.abs(delta - 1.0) < 1e-16)
        if not running.any():
            break
    return h


def neg_ei_exp(u):
    """-Ei(-1/u) * e^(1/u) for u > 0, stable for u down to denormal range.

    Equals E[ln(1+X)] with X exponential of mean u: positive, strictly
    increasing in u, and below ln(1+u) + 1. u is a float, which gives a
    float, or an array, which gives an array of its shape; an element
    that is not finite and > 0 raises for the whole array.
    """
    values = np.array(u, dtype=np.float64).reshape(-1)
    valid = np.isfinite(values) & (values > 0.0)
    if not valid.all():
        raise ValueError(f"u must be finite and > 0, got {values[~valid][0]}")
    # u below the reciprocal overflow threshold keeps the limit E[ln(1+X)] ~ u
    with np.errstate(over="ignore"):
        w = 1.0 / values
    out = values.copy()
    fraction = np.isfinite(w) & (w > _SERIES_CUTOFF)
    series = w <= _SERIES_CUTOFF
    if fraction.any():
        out[fraction] = _e1_exp_cf(w[fraction])
    if series.any():
        # moderate w: series for E1(w) = -Ei(-w), then the exponential is tame
        w_series = w[series]
        out[series] = -_ei_series(-w_series) * _exp(w_series)
    if isinstance(u, np.ndarray):
        return out.reshape(u.shape)
    return float(out[0])
