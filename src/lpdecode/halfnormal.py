"""Density, CDF and (truncated) absolute moments of |X| for X ~ N(0, 1).

Every threshold quantity in this package reduces to integrals of
``z**p * pdf(z)`` over pieces of ``[0, inf)``.  The closed forms (erf, the
gamma-function moment formula) are the source of truth for the CDF and the
full moment.  Adaptive quadrature on ``[0, z_max]`` computes the truncated
moments, the log-moment pieces behind the threshold derivative, and serves
as the independent oracle the closed forms are tested against.

The semi-infinite domain is handled rigorously: mass beyond ``z_max`` is
bounded by a Gaussian tail inequality and verified against the requested
absolute tolerance instead of being silently dropped.  The weak ``x**p``
(and ``x**p * ln x``) singularity at zero is evaluated on ``[0, NEAR_ZERO_SPLIT]``
by a two-term series expansion of ``exp(-x**2/2)`` whose remainder is bounded
analytically, so the quadrature engine only ever sees smooth integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .errors import DomainError, NumericError

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Below this point integrands are replaced by their series expansion.
NEAR_ZERO_SPLIT = 1e-3


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and upper cutoff for the semi-infinite integrals.

    ``z_max`` must be at least 8: the half-normal mass beyond 8 is below
    1e-15 and is covered by the analytic tail bound.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    z_max: float = 10.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if not (self.z_max >= 8 and math.isfinite(self.z_max)):
            raise DomainError(f"z_max must be finite and >= 8, got {self.z_max}")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class MomentQuery:
    """A truncated moment request: exponent ``p`` and truncation point ``t``."""

    p: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and 0 < self.p <= 2):
            raise DomainError(f"exponent p must be in (0, 2], got {self.p}")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise DomainError(f"truncation point t must be finite and >= 0, got {self.t}")


def pdf(z: float) -> float:
    """Half-normal density sqrt(2/pi) * exp(-z**2/2) at ``z >= 0``."""
    if not (math.isfinite(z) and z >= 0):
        raise DomainError(f"pdf requires finite z >= 0, got {z}")
    return SQRT_2_OVER_PI * math.exp(-0.5 * z * z)


def _tail_bound(t: float) -> float:
    """Upper bound on ``int_t^inf x**q pdf(x) dx`` for any q in [0, 2], t >= 1.

    Uses x**q <= x**2 for x >= 1 plus integration by parts and the Mills
    inequality.  Also bounds the ln-weighted integrand for q <= 1, since
    x**q * ln(x) <= x**2 there.
    """
    return SQRT_2_OVER_PI * math.exp(-0.5 * t * t) * (t + 1.0 / t)


def _check_tail(quadrature: QuadratureConfig) -> None:
    bound = _tail_bound(quadrature.z_max)
    if bound > quadrature.abs_tol:
        raise NumericError(
            f"tail mass bound {bound:.3e} beyond z_max={quadrature.z_max} exceeds "
            f"abs_tol={quadrature.abs_tol:.3e}; raise z_max or loosen abs_tol"
        )


def _quad(fn, a: float, b: float, quadrature: QuadratureConfig) -> float:
    if b <= a:
        return 0.0
    val, _ = quad(fn, a, b, epsabs=quadrature.abs_tol, epsrel=quadrature.rel_tol, limit=200)
    return val


def _power_piece_near_zero(p: float, t: float, a: float) -> float:
    """``int_t^a x**p pdf(x) dx`` for 0 <= t <= a <= NEAR_ZERO_SPLIT.

    Two-term expansion exp(-x**2/2) = 1 - x**2/2 + r(x), |r(x)| <= x**4/8,
    so the remainder is below sqrt(2/pi) * a**(p+5) / (8(p+5)) < 1e-16.
    """

    def ipow(q):
        return (a ** (q + 1) - t ** (q + 1)) / (q + 1)

    return SQRT_2_OVER_PI * (ipow(p) - 0.5 * ipow(p + 2))


def _log_power_piece_near_zero(p: float, t: float, a: float) -> float:
    """``int_t^a x**p ln(x) pdf(x) dx`` for 0 <= t <= a <= NEAR_ZERO_SPLIT.

    Same expansion as :func:`_power_piece_near_zero`; the ln factor is
    integrated exactly against each power term.
    """

    def ilog(q):
        upper = a ** (q + 1) * (math.log(a) / (q + 1) - 1.0 / (q + 1) ** 2)
        lower = 0.0
        if t > 0:
            lower = t ** (q + 1) * (math.log(t) / (q + 1) - 1.0 / (q + 1) ** 2)
        return upper - lower

    return SQRT_2_OVER_PI * (ilog(p) - 0.5 * ilog(p + 2))


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


def tail_moment(q: MomentQuery, quadrature: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """g(t) = ``int_t^inf z**p pdf(z) dz``.

    Strictly decreasing in t, with g(0) = E|X|**p; the part beyond ``z_max``
    is bounded analytically and reported as zero.
    """
    _check_tail(quadrature)
    t, p = q.t, q.p
    if t >= quadrature.z_max:
        return 0.0
    a = NEAR_ZERO_SPLIT
    total = 0.0
    if t < a:
        total += _power_piece_near_zero(p, t, a)
        t = a
    total += _quad(lambda z: z ** p * pdf(z), t, quadrature.z_max, quadrature)
    return total


def log_moment_integrals(
    p: float,
    zstar: float,
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """The pair ``(int_0^zstar, int_zstar^inf)`` of ``x**p ln(x) pdf(x) dx``.

    Both are finite for p > 0 (the ln singularity at zero is integrable).
    Only the threshold derivative :func:`lpdecode.threshold.drho_dp` consumes these.
    """
    if not (math.isfinite(p) and 0 < p <= 1):
        raise DomainError(f"log_moment_integrals requires p in (0, 1], got {p}")
    if not (math.isfinite(zstar) and zstar > 0):
        raise DomainError(f"split point zstar must be positive, got {zstar}")
    _check_tail(quadrature)

    a = NEAR_ZERO_SPLIT
    integrand = lambda x: x ** p * math.log(x) * pdf(x)

    lo_end = min(zstar, quadrature.z_max)
    if lo_end <= a:
        lower = _log_power_piece_near_zero(p, 0.0, lo_end)
    else:
        lower = _log_power_piece_near_zero(p, 0.0, a) + _quad(integrand, a, lo_end, quadrature)

    if zstar >= quadrature.z_max:
        upper = 0.0
    else:
        start = max(zstar, a)
        upper = _quad(integrand, start, quadrature.z_max, quadrature)
        if zstar < a:
            upper += _log_power_piece_near_zero(p, zstar, a)
    return lower, upper


# -- Closed-form cross-check of the quadrature route --


def tail_moment_p1_closed_form(t: float) -> float:
    """sqrt(2/pi) * exp(-t**2/2), the exact g(t) at p = 1."""
    if not (math.isfinite(t) and t >= 0):
        raise DomainError(f"tail_moment_p1_closed_form requires finite t >= 0, got {t}")
    return SQRT_2_OVER_PI * math.exp(-0.5 * t * t)
