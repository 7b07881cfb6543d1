"""Null-space recovery conditions, violation search, and adversarial attacks.

For a direction z in the column space view, write v = A z.  The unsigned
margin at error fraction rho is

    sum_{i not in T} |v_i|^p - sum_{i in T} |v_i|^p,

with T the ceil(rho m) indices of largest |v_i|.  Recovery of every message
under every error pattern of that size requires a non-negative margin for
all z.  When the error support T and its signs are fixed, only the entries
of T fighting the error count, and the margin becomes

    sum_{i not in T} |v_i|^p - sum_{i in T-} |v_i|^p,

where T- = {i in T : v_i * signs[i] < 0}.  Both margins are homogeneous of
degree p in z, so searches live on the unit sphere.  A strictly negative
margin is constructive: it converts into an explicit error vector under
which the decoder prefers a wrong codeword.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .decoder import lp_objective
from .ensemble import SeedSpec, ceil_count
from .errors import DomainError, NumericError

_SEARCH_STEPS = 500
_STEP_SCALE = 0.3
_GRAD_FLOOR = 1e-8


@dataclass(frozen=True, eq=False)
class ConditionQuery:
    """Which null-space condition to probe on which matrix.

    ``mode`` is ``unsigned`` (needs ``rho``) or ``signed`` (needs ``support``
    and ``signs``).  ``z`` optionally supplies a starting direction for the
    violation search.
    """

    a: np.ndarray
    p: float
    mode: str
    rho: float | None = None
    support: np.ndarray | None = None
    signs: dict[int, int] | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1 or a.shape[0] < a.shape[1]:
            raise DomainError(f"a must be m x n with m >= n >= 1, got shape {a.shape}")
        object.__setattr__(self, "a", a)
        if not (0 < self.p <= 1):
            raise DomainError(f"p must lie in (0, 1], got {self.p}")
        if self.mode == "unsigned":
            if self.rho is None or not (0 <= self.rho <= 1):
                raise DomainError("unsigned mode needs rho in [0, 1]")
        elif self.mode == "signed":
            if self.support is None or self.signs is None:
                raise DomainError("signed mode needs a support and a sign map")
            support = _check_support(a.shape[0], self.support, self.signs)
            object.__setattr__(self, "support", support)
        else:
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.z is not None:
            z = np.asarray(self.z, dtype=float)
            if z.shape != (a.shape[1],):
                raise DomainError(f"z must have length n={a.shape[1]}, got shape {z.shape}")
            object.__setattr__(self, "z", z)


@dataclass(eq=False)
class CertifyReport:
    """Outcome of a violation search; ``witness`` attains ``min_margin``."""

    min_margin: float
    witness: np.ndarray
    violated: bool
    restarts_used: int


def _check_direction(a: np.ndarray, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (a.shape[1],):
        raise DomainError(f"z must have length n={a.shape[1]}, got shape {z.shape}")
    if not np.any(z):
        raise DomainError("direction z must be nonzero")
    return z


def _check_support(m: int, support, signs: dict[int, int] | None = None) -> np.ndarray:
    """``support`` as distinct int64 indices into range(m); with ``signs``,
    also require a sign of +1 or -1 for every index."""
    t = np.asarray(support, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= m):
        raise DomainError("support indices out of range")
    if len(np.unique(t)) != t.size:
        raise DomainError("support indices must be distinct")
    if signs is not None:
        missing = [int(i) for i in t if int(i) not in signs]
        if missing:
            raise DomainError(f"sign map misses support indices {missing}")
        if any(signs[int(i)] not in (-1, 1) for i in t):
            raise DomainError("signs must be +1 or -1")
    return t


def _top_support(v: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest |v_i|, ties resolved toward lower index."""
    return np.argsort(-np.abs(v), kind="stable")[:k]


def support_margin(a: np.ndarray, p: float, support: np.ndarray, z) -> float:
    """Unsigned margin with an explicitly chosen support T."""
    v = a @ _check_direction(a, z)
    pw = np.abs(v) ** p
    t = _check_support(a.shape[0], support)
    return float(np.sum(pw) - 2 * np.sum(pw[t]))


def unsigned_margin(a: np.ndarray, p: float, rho: float, z) -> float:
    """Margin against the worst support of size ceil(rho m) for this z."""
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    k = ceil_count(rho, a.shape[0])
    pw = np.abs(v) ** p
    t = _top_support(v, k)
    return float(np.sum(pw) - 2 * np.sum(pw[t]))


def signed_margin(a: np.ndarray, p: float, support, signs: dict[int, int], z) -> float:
    """Margin when the error support and signs are fixed in advance."""
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    t = _check_support(a.shape[0], support, signs)
    sgn = np.array([signs[int(i)] for i in t], dtype=float)
    pw = np.abs(v) ** p
    t_minus = t[v[t] * sgn < 0]
    off = np.ones(a.shape[0], dtype=bool)
    off[t] = False
    return float(np.sum(pw[off]) - np.sum(pw[t_minus]))


def _margin_and_subgrad(q: ConditionQuery, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate the mode's margin and one subgradient at z."""
    a, p = q.a, q.p
    v = a @ z
    absv = np.abs(v)
    pw = absv**p
    # |v|^(p-1) blows up at v = 0 for p < 1; floor it relative to the scale.
    floor = _GRAD_FLOOR * (absv.max() + 1e-300)
    dfac = p * np.maximum(absv, floor) ** (p - 1.0) * np.sign(v)
    coef = np.ones(a.shape[0])
    if q.mode == "unsigned":
        t = _top_support(v, ceil_count(q.rho, a.shape[0]))
        coef[t] = -1.0
    else:
        t = q.support
        sgn = np.array([q.signs[int(i)] for i in t], dtype=float)
        coef[t] = 0.0
        coef[t[v[t] * sgn < 0]] = -1.0
    margin = float(np.dot(coef, pw))
    grad = a.T @ (coef * dfac)
    return margin, grad


def search_violation(
    q: ConditionQuery,
    restarts: int = 8,
    seed: SeedSpec | None = None,
) -> CertifyReport:
    """Projected subgradient descent on the unit sphere hunting margin < 0.

    Each restart runs a fixed number of steps with a diminishing step size;
    the report keeps the best margin seen anywhere.  ``q.z``, when present,
    seeds the first restart.  A negative minimum is a certified violation
    (the witness direction reproduces it); a non-negative minimum is only
    evidence, since the search is not exhaustive.
    """
    if restarts < 1:
        raise DomainError("restarts must be at least 1")
    gen = (seed or SeedSpec(0, 0)).generator()
    n = q.a.shape[1]

    best_margin = math.inf
    best_z = None
    for r in range(restarts):
        if r == 0 and q.z is not None and np.any(q.z):
            z = q.z / np.linalg.norm(q.z)
        else:
            z = gen.standard_normal(n)
            z /= np.linalg.norm(z)
        for t in range(_SEARCH_STEPS):
            margin, grad = _margin_and_subgrad(q, z)
            if margin < best_margin:
                best_margin = margin
                best_z = z.copy()
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            z = z - (_STEP_SCALE / math.sqrt(t + 1.0)) * grad / gn
            z /= np.linalg.norm(z)
        margin, _ = _margin_and_subgrad(q, z)
        if margin < best_margin:
            best_margin = margin
            best_z = z.copy()
    return CertifyReport(
        min_margin=best_margin,
        witness=best_z,
        violated=bool(best_margin < 0),
        restarts_used=restarts,
    )


def brute_force_min_margin(
    q: ConditionQuery, resolution: float = 0.01
) -> tuple[float, np.ndarray]:
    """Exhaustive minimum over a spherical grid; test oracle for n <= 3.

    Grid cost grows like (2 pi / resolution)^(n-1), so larger n is refused.
    """
    n = q.a.shape[1]
    if n > 3:
        raise DomainError("brute-force sphere search supports n <= 3 only")
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    if n == 1:
        candidates = [np.array([1.0]), np.array([-1.0])]
    elif n == 2:
        angles = np.arange(0.0, 2 * math.pi, resolution)
        candidates = [np.array([math.cos(t), math.sin(t)]) for t in angles]
    else:
        candidates = []
        for theta in np.arange(0.0, math.pi + resolution / 2, resolution):
            for phi in np.arange(0.0, 2 * math.pi, resolution):
                candidates.append(
                    np.array(
                        [
                            math.sin(theta) * math.cos(phi),
                            math.sin(theta) * math.sin(phi),
                            math.cos(theta),
                        ]
                    )
                )
    best = math.inf
    best_z = candidates[0]
    for z in candidates:
        margin, _ = _margin_and_subgrad(q, z)
        if margin < best:
            best = margin
            best_z = z
    return float(best), best_z


def attack_arbitrary(
    a: np.ndarray,
    f: np.ndarray,
    p: float,
    rho: float,
    z=None,
    seed: SeedSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Error pattern that makes f + z beat f whenever the unsigned margin of z
    is negative.

    Places e_i = (A z)_i on the top ceil(rho m) entries T of |A z|, so the
    residual at x_alt = f + z is exactly -A z off T and zero on T:

        ||y - A x_alt||_p^p = sum_{i not in T} |(A z)_i|^p
        ||y - A f||_p^p     = sum_{i in T} |(A z)_i|^p.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    m, n = a.shape
    if f.shape != (n,):
        raise DomainError(f"f must have length n={n}, got shape {f.shape}")
    if not (0 <= rho <= 1):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    if not (0 < p <= 1):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    if z is None:
        if seed is None:
            raise DomainError("either z or seed must be given")
        z = seed.generator().standard_normal(n)
    z = _check_direction(a, z)

    v = a @ z
    t = _top_support(v, ceil_count(rho, m))
    e = np.zeros(m)
    e[t] = v[t]
    return e, f + z


def attack_fixed_sign(
    a: np.ndarray,
    f: np.ndarray,
    p: float,
    support,
    signs: dict[int, int],
    z,
    head_scale: float = 10.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Error pattern with prescribed support and signs that makes f - z win.

    Needs p < 1 and a strictly negative signed margin -delta at z.  On
    T- = {i in T : (A z)_i signs_i < 0} set e_i = -(A z)_i (which has the
    required sign); on the rest of T set e_i = signs_i * M with M doubled
    until the head's contribution to

        ||e + A z||_p^p - ||e||_p^p = margin + sum_{T+} (|M + |(A z)_i||^p - M^p)

    drops below delta / 2.  For p < 1 each head term decays like M^(p-1),
    so escalation terminates; the alternative x_alt = f - z then satisfies
    ||y - A x_alt||_p^p <= ||e||_p^p - delta / 2.
    """
    a = np.asarray(a, dtype=float)
    f = np.asarray(f, dtype=float)
    m, n = a.shape
    if f.shape != (n,):
        raise DomainError(f"f must have length n={n}, got shape {f.shape}")
    if not (0 < p < 1):
        raise DomainError(f"fixed-sign attack requires p in (0, 1) strictly, got {p}")
    z = _check_direction(a, z)
    t = _check_support(m, support, signs)
    margin = signed_margin(a, p, t, signs, z)
    if not margin < 0:
        raise DomainError(
            f"fixed-sign attack requires a strictly negative signed margin, got {margin}"
        )
    delta = -margin

    v = a @ z
    sgn = np.array([signs[int(i)] for i in t], dtype=float)
    minus_mask = v[t] * sgn < 0
    t_minus = t[minus_mask]
    t_plus = t[~minus_mask]

    e = np.zeros(m)
    e[t_minus] = -v[t_minus]
    if t_plus.size:
        head_abs = np.abs(v[t_plus])
        base = head_scale * max(np.max(np.abs(v)), 1e-300)
        magnitude = base
        while True:
            gap = float(np.sum((magnitude + head_abs) ** p - magnitude**p))
            if gap < delta / 2:
                break
            if magnitude >= base * 2.0**60:
                raise NumericError(
                    "head escalation hit its cap before shrinking the gap below "
                    f"delta / 2 (p={p}, delta={delta:.3e})"
                )
            magnitude *= 2.0
        e[t_plus] = sgn[~minus_mask] * magnitude
    return e, f - z


def report_json(report: CertifyReport, query: ConditionQuery) -> str:
    """Serialize a report with its query context as stable JSON."""
    if query.mode == "unsigned":
        rho = float(query.rho)
    else:
        rho = len(query.support) / query.a.shape[0]
    payload = {
        "min_margin": report.min_margin,
        "violated": report.violated,
        "witness": [float(v) for v in report.witness],
        "restarts_used": report.restarts_used,
        "mode": query.mode,
        "p": query.p,
        "rho": rho,
    }
    return json.dumps(payload, indent=2) + "\n"


def objective_pair(
    a: np.ndarray, y: np.ndarray, p: float, x_true: np.ndarray, x_alt: np.ndarray
) -> tuple[float, float]:
    """Residual objectives (at x_true, at x_alt); attack checks compare these."""
    return (
        lp_objective(y - a @ x_true, p),
        lp_objective(y - a @ x_alt, p),
    )
