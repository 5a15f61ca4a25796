"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (series
definitions, brute-force quadrature) rather than by calling back into the
package, so that agreement between the two is meaningful evidence.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy import integrate

mpmath.mp.dps = 40


def ei_series(x):
    """Exponential integral Ei(x) summed term by term at 40 digits.

    Uses the defining series Ei(x) = gamma + ln|x| + sum x^k / (k k!),
    which converges for any finite nonzero real argument. Returns a float.
    """
    if x == 0:
        raise ValueError("Ei undefined at 0")
    x = mpmath.mpf(x)
    total = mpmath.euler + mpmath.log(abs(x))
    term = mpmath.mpf(1)
    for k in range(1, 400):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) < abs(total) * mpmath.mpf("1e-38") and k > 8:
            break
    return float(total)


def expected_log1p_exponential(scale):
    """E[ln(1 + scale * T)] for T ~ Exp(1), by adaptive quadrature."""
    if scale == 0:
        return 0.0
    val, err = integrate.quad(
        lambda t: np.log1p(scale * t) * np.exp(-t),
        0.0,
        np.inf,
        epsabs=0.0,
        epsrel=1e-12,
        limit=300,
    )
    if err > 1e-9 * abs(val):
        raise RuntimeError(f"quadrature did not converge: {val} +- {err}")
    return val


def philox4x64_10(seed, block):
    """Four output words of Philox4x64-10 (Salmon et al., SC'11).

    Key (seed, 0), counter block mod 2^256 split into four 64-bit words,
    ten rounds with the Weyl key schedule. Python ints make the 64x64 ->
    128 bit product a plain multiplication.
    """
    mask = (1 << 64) - 1
    block %= 1 << 256
    c = [(block >> (64 * i)) & mask for i in range(4)]
    k0, k1 = seed, 0
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * c[0]
        p1 = 0xCA5A826395121157 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & mask, (p0 >> 64) ^ c[3] ^ k1, p0 & mask]
        k0 = (k0 + 0x9E3779B97F4A7C15) & mask
        k1 = (k1 + 0xBB67AE8584CAA73B) & mask
    return c


def ks_statistic_exponential(samples, lam):
    """Kolmogorov-Smirnov distance of samples against Exp(mean=lam)."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.size
    cdf = -np.expm1(-s / lam)
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return max(d_plus, d_minus)


def outage_x2_near_user(rho, p_n, p_f, psi2, psi3, lambda_ccu):
    """Exact probability that the near user fails to recover x2.

    SIC decodes x3 first: p_f rho g / (p_n rho g + 1) >= psi3 holds exactly
    when g >= t3 = psi3 / (rho (p_f - p_n psi3)), and never when
    p_f <= p_n psi3. Then x2 needs p_n rho g >= psi2, i.e. g >= t2 =
    psi2 / (rho p_n). With g ~ Exp(mean lambda_ccu) the outage is
    1 - exp(-max(t3, t2) / lambda_ccu).
    """
    if p_f <= p_n * psi3:
        return 1.0
    t3 = psi3 / (rho * (p_f - p_n * psi3))
    t2 = psi2 / (rho * p_n)
    return 1.0 - math.exp(-max(t3, t2) / lambda_ccu)


def finish_reference(n, means, m2, com, counts):
    """One point's estimates from its chunk totals, in numpy-scalar arithmetic.

    The finishing formulas as first written: each moment is read as a numpy
    scalar, a continuous metric's standard error is sqrt(m2 / (n-1) / n), an
    outage's is that of a proportion, and the energy efficiency is the ratio
    of the esc_total and p_relay means with the first-order variance
    (var_esc - 2 r cov + r^2 var_p) / mean_p^2, under numpy's errstate.
    Returns {metric: (mean, std_error)}. Raises ValueError("moments") when a
    moment is not finite and ValueError("ee") when the ratio or its standard
    error is not.
    """
    cont = {"c_x1": 0, "c_x2": 1, "c_x3": 2, "esc_total": 3, "mean_p_relay": 4}
    flags = {"op_x1": 0, "op_x2_ccu": 1, "op_x3_ceu": 2}
    if not (np.isfinite(means).all() and np.isfinite(m2).all() and math.isfinite(com)):
        raise ValueError("moments")
    mean_esc, mean_p = float(means[3]), float(means[4])
    if mean_p == 0.0:
        raise ValueError("ee")
    ratio = mean_esc / mean_p
    if n <= 1:
        ee = (ratio, 0.0)
    else:
        var_esc, var_p, cov = m2[3] / (n - 1), m2[4] / (n - 1), com / (n - 1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            var_ratio = (var_esc - 2.0 * ratio * cov + ratio * ratio * var_p) / (mean_p * mean_p)
        ee = (ratio, math.sqrt(max(var_ratio, 0.0) / n))
    if not (math.isfinite(ee[0]) and math.isfinite(ee[1])):
        raise ValueError("ee")
    out = {}
    for metric, idx in cont.items():
        se = math.sqrt(m2[idx] / (n - 1) / n) if n > 1 else 0.0
        out[metric] = (float(means[idx]), se)
    for metric, idx in flags.items():
        p = counts[idx] / n
        se = math.sqrt(p * (1.0 - p) * n / (n - 1) / n) if n > 1 else 0.0
        out[metric] = (float(p), se)
    out["ee"] = ee
    return out


# specfun's scalar -Ei(-1/u)*e^(1/u) as it was before it took arrays,
# copied verbatim, for bit-for-bit comparison with the array evaluation
# that replaced it.
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


def stacked(points):
    """The (params, varz) grid namespaces of a non-empty list of (params, varz) point objects.

    Every field becomes a float64 array with one value per point, the form
    a grid takes in estimate_metrics and closed_forms, built here field by
    field rather than through model.grid_points.
    """
    return tuple(
        SimpleNamespace(**{
            name: np.array([vars(obj)[name] for obj in objects], dtype=np.float64)
            for name in vars(objects[0])
        })
        for objects in zip(*points)
    )
