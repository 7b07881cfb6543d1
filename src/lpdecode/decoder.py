"""IRLS decoder for min_x ||y - A x||_p^p with 0 < p <= 1.

The nonsmooth objective is approached through a smoothed surrogate
sum_i (r_i^2 + eps)^(p/2) with eps shrunk geometrically; each fixed-eps
phase runs reweighted least squares with weights w_i = (r_i^2 + eps)^(p/2-1),
which majorizes the surrogate, so the smoothed objective is non-increasing
within a phase.  eps is applied relative to the squared measurement scale
||y||^2 / m, which makes the whole iteration equivariant under y -> c y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .ensemble import SeedSpec
from .errors import DomainError, NumericError, SingularityError


_EPS_START = 1.0
_EPS_MIN = 1e-8
_EPS_SHRINK = 0.1
_MAX_OUTER = 12
_MAX_INNER = 100
_INNER_TOL = 1e-10


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
    """argmin_x sum_i w_i (y_i - (A x)_i)^2 via QR of the sqrt(w)-scaled system."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    m, n = a.shape
    if y.shape != (m,) or w.shape != (m,):
        raise DomainError(f"shape mismatch: a is {a.shape}, y is {y.shape}, w is {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise DomainError("weights must be finite and strictly positive")

    sw = np.sqrt(w)
    q, r = np.linalg.qr(a * sw[:, None])
    diag = np.abs(np.diag(r))
    dmax = diag.max() if n else 0.0
    if dmax == 0.0 or diag.min() <= max(m, n) * np.finfo(float).eps * dmax:
        raise SingularityError(
            "weighted system is numerically rank deficient "
            f"(|R_kk| range [{diag.min():.3e}, {dmax:.3e}], m={m}, n={n})"
        )
    return solve_triangular(r, q.T @ (y * sw))


def _run_single(a, y, cfg, x0, s2):
    """One restart from x0: eps continuation around the inner IRLS loop."""
    p = cfg.p
    x = x0
    trace: list[float] = []
    phase_starts: list[int] = []
    iterations = 0
    eps = _EPS_START
    converged = False
    while True:
        eps_abs = eps * s2
        phase_starts.append(len(trace))
        phase_converged = False
        for _ in range(_MAX_INNER):
            r = y - a @ x
            w = (r * r + eps_abs) ** (p / 2 - 1)
            x_new = weighted_least_squares(a, y, w)
            r_new = y - a @ x_new
            trace.append(float(np.sum((r_new * r_new + eps_abs) ** (p / 2))))
            iterations += 1
            denom = max(np.linalg.norm(x), np.linalg.norm(x_new))
            step = np.linalg.norm(x_new - x) / denom if denom > 0 else 0.0
            x = x_new
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

    s2 = float(np.mean(y * y))
    if s2 == 0.0:
        return DecodeResult(
            x_hat=np.zeros(n),
            objective=0.0,
            objective_trace=[],
            iterations=0,
            converged=True,
            phase_starts=[],
        )

    x0 = weighted_least_squares(a, y, np.ones(m))
    gen = None
    if cfg.restarts > 1:
        gen = (seed or SeedSpec(0, 0)).generator()

    best = None
    best_obj = math.inf
    for k in range(cfg.restarts):
        if k == 0:
            start = x0
        else:
            scale = 0.1 * np.linalg.norm(x0) / math.sqrt(n)
            start = x0 + gen.standard_normal(n) * scale
        x, trace, iters, conv, starts = _run_single(a, y, cfg, start, s2)
        obj = lp_objective(y - a @ x, cfg.p)
        if not math.isfinite(obj):
            raise NumericError("objective became non-finite")
        if obj < best_obj:
            best_obj = obj
            best = DecodeResult(
                x_hat=x,
                objective=obj,
                objective_trace=trace,
                iterations=iters,
                converged=conv,
                phase_starts=starts,
            )
    return best
