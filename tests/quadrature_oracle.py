"""Quadrature and Monte Carlo references for the half-normal closed forms.

The library computes the tail moment and the log-moment pieces behind the
threshold curve in closed form (incomplete gamma functions).  This module
computes the same integrals by adaptive quadrature instead, so that the
tests can check one route against the other.  :func:`mc_threshold_oracle`
estimates rho*(p) itself from order statistics of raw samples.

The weak ``x**p`` (and ``x**p * ln x``) singularity at zero is evaluated on
``[0, NEAR_ZERO_SPLIT]`` by a two-term series of ``exp(-x**2/2)``, so the
quadrature only sees smooth integrands.  The mass beyond ``Z_MAX`` is
dropped: for any exponent in [0, 2] it is below
sqrt(2/pi) * exp(-Z_MAX**2/2) * (Z_MAX + 1/Z_MAX) < 1e-20, far under ``TOL``.
"""

import math

import numpy as np
from scipy.integrate import quad

from lpdecode import SeedSpec

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
TOL = 1e-12
Z_MAX = 10.0
# Below this point integrands are replaced by their series expansion.
NEAR_ZERO_SPLIT = 1e-3


def pdf(z: float) -> float:
    """Half-normal density sqrt(2/pi) * exp(-z**2/2) at ``z >= 0``."""
    return SQRT_2_OVER_PI * math.exp(-0.5 * z * z)


def _quad(fn, a, b):
    if b <= a:
        return 0.0
    val, _ = quad(fn, a, b, epsabs=TOL, epsrel=TOL, limit=200)
    return val


def _power_piece_near_zero(p, t, a):
    """``int_t^a x**p pdf(x) dx`` for 0 <= t <= a <= NEAR_ZERO_SPLIT.

    exp(-x**2/2) = 1 - x**2/2 + r(x) with |r(x)| <= x**4/8, so the
    remainder is below sqrt(2/pi) * a**(p+5) / (8(p+5)) < 1e-16.
    """

    def ipow(q):
        return (a ** (q + 1) - t ** (q + 1)) / (q + 1)

    return SQRT_2_OVER_PI * (ipow(p) - 0.5 * ipow(p + 2))


def _log_power_piece_near_zero(p, t, a):
    """``int_t^a x**p ln(x) pdf(x) dx`` by the same expansion, with the ln
    factor integrated exactly against each power term."""

    def ilog(q):
        upper = a ** (q + 1) * (math.log(a) / (q + 1) - 1.0 / (q + 1) ** 2)
        lower = 0.0
        if t > 0:
            lower = t ** (q + 1) * (math.log(t) / (q + 1) - 1.0 / (q + 1) ** 2)
        return upper - lower

    return SQRT_2_OVER_PI * (ilog(p) - 0.5 * ilog(p + 2))


def tail_moment(p, t):
    """g(t) = ``int_t^inf z**p pdf(z) dz``, reported as zero from ``Z_MAX`` on."""
    if t >= Z_MAX:
        return 0.0
    total = 0.0
    if t < NEAR_ZERO_SPLIT:
        total += _power_piece_near_zero(p, t, NEAR_ZERO_SPLIT)
        t = NEAR_ZERO_SPLIT
    return total + _quad(lambda z: z**p * pdf(z), t, Z_MAX)


def log_moment_integrals(p, zstar):
    """The pair ``(int_0^zstar, int_zstar^inf)`` of ``x**p ln(x) pdf(x) dx``."""
    a = NEAR_ZERO_SPLIT
    integrand = lambda x: x**p * math.log(x) * pdf(x)

    lo_end = min(zstar, Z_MAX)
    if lo_end <= a:
        lower = _log_power_piece_near_zero(p, 0.0, lo_end)
    else:
        lower = _log_power_piece_near_zero(p, 0.0, a) + _quad(integrand, a, lo_end)

    if zstar >= Z_MAX:
        upper = 0.0
    else:
        upper = _quad(integrand, max(zstar, a), Z_MAX)
        if zstar < a:
            upper += _log_power_piece_near_zero(p, zstar, a)
    return lower, upper


def drho_dp(p, zstar):
    """Slope of the threshold curve at p, given its split point z*."""
    lower, upper = log_moment_integrals(p, zstar)
    return (lower - upper) / (2.0 * zstar**p)


def mc_threshold_oracle(p, m, seed):
    """Empirical threshold from one sorted sample of m half-normal draws.

    Draw X_1..X_m ~ N(0,1) from the stream ``SeedSpec(seed, 0)``, sort
    |X_i|**p in non-increasing order and return k/m for the smallest k whose
    prefix sum reaches half the total sum: a consistent estimator of
    rho*(p), the same for the same seed.
    """
    y = np.sort(np.abs(SeedSpec(seed, 0).generator().standard_normal(m)) ** p)[::-1]
    prefix = np.cumsum(y)
    k = int(np.searchsorted(prefix, 0.5 * prefix[-1], side="left")) + 1
    return k / m
