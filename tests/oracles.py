"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (series
definitions, brute-force quadrature) rather than by calling back into the
package, so that agreement between the two is meaningful evidence.
"""

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
