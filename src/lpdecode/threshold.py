"""Recovery threshold curve rho*(p) for lp decoding over Gaussian ensembles.

For each exponent p in (0, 1] the threshold is defined through the
half-normal tail moment g(t): find the split point z* where g(z*) = g(0)/2,
then rho*(p) = 1 - F(z*).  Both steps have closed forms (an inverse
incomplete gamma function and erfc), and so does the slope drho*/dp (the
s-derivative of the incomplete gamma function, as a series, and the
digamma function).  The curve is strictly decreasing in p, from 1/2 in the
p -> 0 limit down to 0.239... at p = 1.  The two special functions are
computed here with ``math`` alone: the inverse incomplete gamma function by
Newton's method (with Halley's correction) on the incomplete gamma series,
and digamma by its recurrence and asymptotic series.

An order-statistics Monte Carlo oracle estimates the same quantity from
raw samples (sort |X_i|**p, find the prefix holding half the total mass),
providing an independent anti-regression route for the analytic curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, _require_count, _require_int, _require_p
from .seeding import generator_from


@dataclass(frozen=True)
class ThresholdPoint:
    """One sample of the threshold curve: (p, z*, rho*, optional drho*/dp)."""

    p: float
    z_star: float
    rho_star: float
    drho_dp: float | None = None

    def __post_init__(self):
        _require_p(self.p)
        if not self.z_star > 0:
            raise DomainError(f"z_star must be positive, got {self.z_star}")
        if not 0 < self.rho_star < 0.5:
            raise DomainError(f"rho_star must lie in (0, 0.5), got {self.rho_star}")
        if self.drho_dp is not None and not self.drho_dp < 0:
            raise DomainError(f"drho_dp must be negative when populated, got {self.drho_dp}")


@dataclass(frozen=True)
class CurveRequest:
    """Uniform p-grid sweep request; steps is the number of emitted points."""

    p_min: float
    p_max: float
    steps: int
    with_derivative: bool = False

    def __post_init__(self):
        _require_p(self.p_min)
        _require_p(self.p_max)
        if self.p_min > self.p_max:
            raise DomainError(
                f"need p_min <= p_max, got p_min={self.p_min}, p_max={self.p_max}"
            )
        _require_count("steps", self.steps)
        if self.steps == 1 and self.p_min != self.p_max:
            raise DomainError("a single-point request needs p_min == p_max")

    def p_values(self) -> list[float]:
        if self.steps == 1:
            return [self.p_min]
        span = self.p_max - self.p_min
        return [self.p_min + span * i / (self.steps - 1) for i in range(self.steps)]


def solve_zstar(p: float) -> float:
    """Split point z* with g(z*) = g(0)/2, in closed form.

    With s = (p+1)/2 the tail moment is g(t) = E|X|**p * Q(s, t**2/2), where
    Q is the regularised upper incomplete gamma function.  So g(z*) = g(0)/2
    reads Q(s, z***2/2) = 1/2, and z* = sqrt(2 * Q^-1(s, 1/2)).
    """
    _require_p(p)
    return _zstar_at(p)


def _zstar_at(p: float) -> float:
    return math.sqrt(2.0 * _gamma_median(0.5 * (p + 1.0)))


def _rho_at(zs: float) -> float:
    return math.erfc(zs / math.sqrt(2.0))


# For p in (0, 1], x = z***2/2 is in [0.23, 0.70]: term k >= 3 is < 0.7**k/k!, 20 miss < 1e-21.
_SERIES_TERMS = 20
# (k, (-1)**k / k!) for the terms of the series of gamma(s, x), highest k first.
_SERIES = [(k, (-1) ** k / math.factorial(k)) for k in reversed(range(_SERIES_TERMS))]
# Halley's method reaches the rounding floor of _gamma_median in 4 to 7 steps for every s.
_NEWTON_STEPS = 20


def _gamma_median(s: float) -> float:
    """The x with P(s, x) = gamma(s, x) / Gamma(s) = 1/2, for s in [1/2, 1].

    Newton's method on P, with Halley's correction: P' = x**(s-1) e**-x /
    Gamma(s), so P''/P' = (s-1)/x - 1 comes free.  gamma(s, x) is x**s
    times a polynomial in x, the series sum_k (-1)**k x**k / (k! (s+k)),
    whose coefficients are computed once per s.  The start is the root x0
    of the series' leading term x**s / Gamma(s+1), times e**(x0/(s+1)) for
    its second.  The iteration stops once a step is no smaller than the
    last: the iterate has reached the rounding floor of P, and further
    steps only jitter.
    """
    gs = math.gamma(s)
    coefs = [c / (s + k) for k, c in _SERIES]
    x = (0.5 * s * gs) ** (1.0 / s)
    x *= math.exp(x / (s + 1.0))
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        poly = 0.0
        for c in coefs:
            poly = poly * x + c
        step = (x ** s * poly - 0.5 * gs) / (x ** (s - 1.0) * math.exp(-x))
        step /= 1.0 - 0.5 * step * ((s - 1.0) / x - 1.0)
        if abs(step) >= last:
            return x
        x -= step
        last = abs(step)
    raise NumericError(f"Gamma({s!r}) median: Newton did not settle in {_NEWTON_STEPS} steps")


def _digamma(s: float) -> float:
    """psi(s) for s > 0: psi(s) = psi(s+1) - 1/s up to s >= 20, then the
    asymptotic series through its s**-10 term, whose next term is < 1e-17."""
    acc = 0.0
    while s < 20.0:
        acc -= 1.0 / s
        s += 1.0
    t = 1.0 / (s * s)
    tail = t * (1 / 12 - t * (1 / 120 - t * (1 / 252 - t * (1 / 240 - t / 132))))
    return acc + math.log(s) - 0.5 / s - tail


def _drho_at(p: float, zs: float) -> float:
    s, x = 0.5 * (p + 1.0), 0.5 * zs * zs
    ln_x = math.log(x)
    # d/ds of the lower incomplete gamma function gamma(s, x), from its
    # series sum_k (-1)**k x**(s+k) / (k! (s+k)).
    dlower = 0.0
    term = x ** s
    for k in range(_SERIES_TERMS):
        dlower += term * (ln_x / (s + k) - 1.0 / (s + k) ** 2)
        term *= -x / (k + 1)
    # drho_dp's two integrals are lower = C (ln 2 Gamma(s)/2 + dlower) and
    # lower + upper = C Gamma(s) (ln 2 + psi(s)), C = 2**(p/2) / (2 sqrt(pi));
    # in 2 lower - (lower + upper) the ln 2 terms cancel.
    c = 2.0 ** (p / 2.0) / (2.0 * math.sqrt(math.pi))
    return c * (2.0 * dlower - math.gamma(s) * _digamma(s)) / (2.0 * zs ** p)


def rho_star(p: float) -> float:
    """Recovery threshold rho*(p) = P(|X| > z*) = erfc(z* / sqrt(2)); lies in (0, 1/2)."""
    return _rho_at(solve_zstar(p))


def drho_dp(p: float) -> float:
    """Derivative of the threshold curve, in closed form.

    Equals [int_0^z* x**p ln(x) f(x) dx - int_z*^inf x**p ln(x) f(x) dx] / (2 z***p),
    which is strictly negative: the defining balance of z* forces the
    numerator below zero.  Substituting u = x**2/2 turns both integrals into
    s-derivatives of gamma functions at s = (p+1)/2: the whole half-line
    gives Gamma'(s) = Gamma(s) psi(s), and [0, z*] the s-derivative of the
    lower incomplete gamma function gamma(s, z***2/2), summed from its series.
    """
    return _drho_at(p, solve_zstar(p))


def curve(req: CurveRequest) -> list[ThresholdPoint]:
    """Threshold points on the uniform p-grid of ``req``.

    p = 0 is never sampled: the curve is defined for p > 0 only, and the
    limit value 1/2 is an annotation, not a data point.
    """
    points = []
    for p in req.p_values():
        zs = _zstar_at(p)
        deriv = _drho_at(p, zs) if req.with_derivative else None
        points.append(ThresholdPoint(p=p, z_star=zs, rho_star=_rho_at(zs), drho_dp=deriv))
    return points


def mc_threshold_oracle(p: float, m: int, seed: int) -> float:
    """Empirical threshold from one sorted sample of m half-normal draws.

    Draw X_1..X_m ~ N(0,1), sort |X_i|**p in non-increasing order and return
    k/m for the smallest k whose prefix sum reaches half the total sum.  A
    consistent estimator of rho*(p); the draw is owned by a private stream,
    so identical seeds give identical estimates.
    """
    _require_p(p)
    _require_count("m", m, least=10_000)
    _require_int("seed", seed)
    gen = generator_from(seed, 0)
    y = np.sort(np.abs(gen.standard_normal(m)) ** p)[::-1]
    prefix = np.cumsum(y)
    k = int(np.searchsorted(prefix, 0.5 * prefix[-1], side="left")) + 1
    return k / m


def curve_csv(points: list[ThresholdPoint]) -> str:
    """CSV rendering, header ``p,z_star,rho_star,drho_dp``, 9 significant digits.

    The derivative field is left empty for points where it was not computed.
    """
    lines = ["p,z_star,rho_star,drho_dp"]
    for pt in points:
        deriv = "" if pt.drho_dp is None else f"{pt.drho_dp:.9g}"
        lines.append(f"{pt.p:.9g},{pt.z_star:.9g},{pt.rho_star:.9g},{deriv}")
    return "\n".join(lines) + "\n"
