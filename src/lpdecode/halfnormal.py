"""Density, CDF and absolute moment of |X| for X ~ N(0, 1).

Every threshold quantity in this package reduces to integrals of
``z**p * pdf(z)`` over pieces of ``[0, inf)``.  Those integrals have closed
forms in the (incomplete) gamma function: the CDF is erf, the full moment
is :func:`mu`, and :mod:`lpdecode.threshold` builds z*, rho* and its slope
from the same substitution u = z**2 / 2.
"""

from __future__ import annotations

import math

from .errors import DomainError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def pdf(z: float) -> float:
    """Half-normal density sqrt(2/pi) * exp(-z**2/2) at ``z >= 0``."""
    if not (math.isfinite(z) and z >= 0):
        raise DomainError(f"pdf requires finite z >= 0, got {z}")
    return SQRT_2_OVER_PI * math.exp(-0.5 * z * z)


def cdf(z: float) -> float:
    """P(|X| <= z) = erf(z / sqrt(2))."""
    if not (math.isfinite(z) and z >= 0):
        raise DomainError(f"cdf requires finite z >= 0, got {z}")
    return math.erf(z / math.sqrt(2.0))


def mu(p: float) -> float:
    """E|X|**p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi) for p in (0, 2]."""
    if not (math.isfinite(p) and 0 < p <= 2):
        raise DomainError(f"mu requires p in (0, 2], got {p}")
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
