"""IRLS decoder for min_x ||y - A x||_p^p with 0 < p <= 1.

The nonsmooth objective is approached through a smoothed surrogate
sum_i (r_i^2 + eps)^(p/2) with eps shrunk geometrically; each fixed-eps
phase runs reweighted least squares with weights w_i = (r_i^2 + eps)^(p/2-1),
which majorizes the surrogate, so the smoothed objective is non-increasing
within a phase.  eps is applied relative to the squared measurement scale
||y||^2 / m, which makes the whole iteration equivariant under y -> c y; the
iteration itself runs on y and A divided by powers of two, so that holds
across the whole float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .ensemble import SeedSpec
from .errors import DomainError, NumericError, SingularityError


_EPS_START = 1.0
_EPS_MIN = 1e-8
_EPS_SHRINK = 0.1
_MAX_OUTER = 12
_MAX_INNER = 100
_INNER_TOL = 1e-10
_PIVOT_RATIO_MIN = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class DecoderConfig:
    """The lp exponent and the number of IRLS restarts; the eps schedule and
    iteration caps are module constants."""

    p: float
    restarts: int = 1

    def __post_init__(self):
        if not (0 < self.p <= 1):
            raise DomainError(f"p must lie in (0, 1], got {self.p}")
        if self.restarts < 1:
            raise DomainError("restarts must be at least 1")


@dataclass(eq=False)
class DecodeResult:
    """Decoder output for the best restart.

    ``objective_trace`` holds the smoothed surrogate value after every inner
    solve; ``phase_starts`` marks where each eps phase begins in that trace.
    ``converged`` means the final phase (at eps_min) met the step tolerance.
    """

    x_hat: np.ndarray
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool
    phase_starts: list[int]


def lp_objective(r: np.ndarray, p: float) -> float:
    """sum_i |r_i|^p for p in (0, 2]."""
    if not (0 < p <= 2):
        raise DomainError(f"p must lie in (0, 2], got {p}")
    return float(np.sum(np.abs(np.asarray(r, dtype=float)) ** p))


def weighted_least_squares(a: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """argmin_x sum_i w_i (y_i - (A x)_i)^2 by Cholesky of the weighted Gram
    matrix A^T W A, without forming a Q.

    The Gram matrix G = R^T R squares the condition number of the
    sqrt(w)-scaled system, so a solve through it loses twice the digits a QR
    solve would.  The system counts as numerically rank deficient, and
    SingularityError is raised, when the factorisation fails or when the
    pivots R_kk^2 span more than 1/sqrt(eps): past that, less than half the
    digits of x would be right.  A^T W A must also be representable, which
    ``decode`` ensures by rescaling A and y; an A with entries near 1e150
    can overflow it, which raises SingularityError.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    m, n = a.shape
    if y.shape != (m,) or w.shape != (m,):
        raise DomainError(f"shape mismatch: a is {a.shape}, y is {y.shape}, w is {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise DomainError("weights must be finite and strictly positive")

    aw = a * w[:, None]
    try:
        factor = cho_factor(a.T @ aw, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(
            f"weighted system is numerically rank deficient (Cholesky failed: {exc}, m={m}, n={n})"
        ) from exc
    pivots = np.diag(factor[0]) ** 2
    ratio = pivots.min() / pivots.max() if n else 0.0
    if not ratio > _PIVOT_RATIO_MIN:
        raise SingularityError(
            "weighted system is numerically rank deficient "
            f"(Cholesky pivot ratio {ratio:.3e}, m={m}, n={n})"
        )
    return cho_solve(factor, aw.T @ y, check_finite=False)


def _run_single(a, y, cfg, x0, s2):
    """One restart from x0: eps continuation around the inner IRLS loop."""
    p = cfg.p
    x = x0
    trace: list[float] = []
    phase_starts: list[int] = []
    iterations = 0
    eps = _EPS_START
    converged = False
    r = y - a @ x
    while True:
        eps_abs = eps * s2
        phase_starts.append(len(trace))
        phase_converged = False
        for _ in range(_MAX_INNER):
            w = (r * r + eps_abs) ** (p / 2 - 1)
            x_new = weighted_least_squares(a, y, w)
            r_new = y - a @ x_new
            trace.append(float(np.sum((r_new * r_new + eps_abs) ** (p / 2))))
            iterations += 1
            denom = max(np.linalg.norm(x), np.linalg.norm(x_new))
            step = np.linalg.norm(x_new - x) / denom if denom > 0 else 0.0
            x, r = x_new, r_new
            if step <= _INNER_TOL:
                phase_converged = True
                break
        if eps <= _EPS_MIN:
            converged = phase_converged
            break
        if len(phase_starts) >= _MAX_OUTER:
            break
        eps = max(eps * _EPS_SHRINK, _EPS_MIN)
    if not np.all(np.isfinite(x)):
        raise NumericError("IRLS iterate became non-finite")
    return x, trace, iterations, converged, phase_starts


def _exponent(v: np.ndarray) -> int:
    """The e with 2^(e-1) <= max|v| < 2^e (0 when v is all zero)."""
    return math.frexp(float(np.max(np.abs(v))))[1]


def decode(
    a: np.ndarray,
    y: np.ndarray,
    cfg: DecoderConfig,
    seed: SeedSpec | None = None,
) -> DecodeResult:
    """Decode y against A, returning the best of ``cfg.restarts`` IRLS runs.

    Restart 0 starts from the unweighted least-squares fit; later restarts
    perturb it with seeded Gaussian noise at a tenth of its norm.  The seed
    defaults to SeedSpec(0, 0) and only matters when restarts > 1.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.ndim != 2:
        raise DomainError(f"a must be a matrix, got ndim={a.ndim}")
    m, n = a.shape
    if n < 1 or m < n:
        raise DomainError(f"decoding requires m >= n >= 1, got m={m}, n={n}")
    if y.shape != (m,):
        raise DomainError(f"y must have length m={m}, got shape {y.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(y))):
        raise DomainError("a and y must be finite")

    # IRLS runs on y / 2^ey and A / 2^ea, whose largest entries lie in
    # [1/2, 1), so r*r, eps and the Gram matrix stay in range for any finite
    # input.  Scaling by a power of two is exact (short of the subnormal
    # range), and so is scaling x back.
    ey = _exponent(y)
    ea = _exponent(a)
    ys = np.ldexp(y, -ey)
    as_ = np.ldexp(a, -ea)
    s2 = float(np.mean(ys * ys))
    if s2 == 0.0:
        return DecodeResult(
            x_hat=np.zeros(n),
            objective=0.0,
            objective_trace=[],
            iterations=0,
            converged=True,
            phase_starts=[],
        )

    x0 = weighted_least_squares(as_, ys, np.ones(m))
    gen = None
    if cfg.restarts > 1:
        gen = (seed or SeedSpec(0, 0)).generator()
    trace_scale = float(np.exp2(ey * cfg.p))

    best = None
    best_obj = math.inf
    for k in range(cfg.restarts):
        if k == 0:
            start = x0
        else:
            scale = 0.1 * np.linalg.norm(x0) / math.sqrt(n)
            start = x0 + gen.standard_normal(n) * scale
        xs, trace, iters, conv, starts = _run_single(as_, ys, cfg, start, s2)
        x = np.ldexp(xs, ey - ea)
        obj = lp_objective(y - a @ x, cfg.p)
        if not math.isfinite(obj):
            raise NumericError("objective became non-finite")
        if obj < best_obj:
            best_obj = obj
            best = DecodeResult(
                x_hat=x,
                objective=obj,
                objective_trace=[t * trace_scale for t in trace],
                iterations=iters,
                converged=conv,
                phase_starts=starts,
            )
    return best

