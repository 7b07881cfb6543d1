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

Every margin here is sum_i c_i |v_i|^p with coefficients c_i in {+1, 0, -1};
``_coefficients`` is the one place that picks T (unsigned) or T- (signed)
and so decides which entries count against recovery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import SeedSpec, ceil_count
from .errors import DomainError, NumericError

_SEARCH_STEPS = 500
_STEP_SCALE = 0.3
_GRAD_FLOOR = 1e-8
_HEAD_SCALE = 10.0
_GRID_BLOCK_ENTRIES = 2**14


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
    _sgn: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[1] < 1 or a.shape[0] < a.shape[1]:
            raise DomainError(f"a must be m x n with m >= n >= 1, got shape {a.shape}")
        object.__setattr__(self, "a", a)
        if not (0 < self.p <= 1):
            raise DomainError(f"p must lie in (0, 1], got {self.p}")
        if self.mode == "unsigned":
            _support_size(self.rho, a.shape[0])
        elif self.mode == "signed":
            if self.support is None or self.signs is None:
                raise DomainError("signed mode needs a support and a sign map")
            support, sgn = _check_support(a.shape[0], self.support, self.signs)
            object.__setattr__(self, "support", support)
            object.__setattr__(self, "_sgn", sgn)
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


def _support_size(rho: float | None, m: int) -> int:
    """ceil(rho m), the size of the worst-case support T, for rho in [0, 1]."""
    if rho is None or not (0 <= rho <= 1):
        raise DomainError(f"rho must lie in [0, 1], got {rho}")
    return ceil_count(rho, m)


def _check_support(m: int, support, signs: dict[int, int] | None = None):
    """``support`` as distinct int64 indices into range(m), and with ``signs``
    (a sign of +1 or -1 for every index) the length-m sign vector that holds
    those signs on the support and 0 off it; without ``signs`` that vector is
    None."""
    t = np.asarray(support, dtype=np.int64)
    if t.size and (t.min() < 0 or t.max() >= m):
        raise DomainError("support indices out of range")
    if len(np.unique(t)) != t.size:
        raise DomainError("support indices must be distinct")
    if signs is None:
        return t, None
    missing = [int(i) for i in t if int(i) not in signs]
    if missing:
        raise DomainError(f"sign map misses support indices {missing}")
    if any(signs[int(i)] not in (-1, 1) for i in t):
        raise DomainError("signs must be +1 or -1")
    sgn = np.zeros(m)
    sgn[t] = [signs[int(i)] for i in t]
    return t, sgn


def _coefficients(v: np.ndarray, k: int = 0, sgn=None, support=None) -> np.ndarray:
    """Coefficients c of the margin sum_i c_i |v_i|^p, for v of shape (m,) or
    (m, K) (one column per direction).

    Signed condition (``sgn`` is the length-m sign vector, 0 off the support):
    +1 off the support, -1 on T- (entries opposing their sign), 0 on the rest
    of the support.  Unsigned condition: -1 on T and +1 off it, where T is
    ``support`` when given and otherwise the k largest |v_i| of each column,
    ties going to the lower index.
    """
    if sgn is not None:
        s = sgn[:, None] if v.ndim == 2 else sgn
        return np.where(s == 0, 1.0, np.where(v * s < 0, -1.0, 0.0))
    if support is None:
        support = np.argsort(-np.abs(v), axis=0, kind="stable")[:k]
    coef = np.ones(v.shape)
    np.put_along_axis(coef, support, -1.0, axis=0)
    return coef


def support_margin(a: np.ndarray, p: float, support: np.ndarray, z) -> float:
    """Unsigned margin with an explicitly chosen support T."""
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    t, _ = _check_support(a.shape[0], support)
    return float(np.dot(_coefficients(v, support=t), np.abs(v) ** p))


def unsigned_margin(a: np.ndarray, p: float, rho: float, z) -> float:
    """Margin against the worst support of size ceil(rho m) for this z."""
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    coef = _coefficients(v, k=_support_size(rho, a.shape[0]))
    return float(np.dot(coef, np.abs(v) ** p))


def signed_margin(a: np.ndarray, p: float, support, signs: dict[int, int], z) -> float:
    """Margin when the error support and signs are fixed in advance."""
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    _, sgn = _check_support(a.shape[0], support, signs)
    return float(np.dot(_coefficients(v, sgn=sgn), np.abs(v) ** p))


def _query_coefficients(q: ConditionQuery, v: np.ndarray) -> np.ndarray:
    """``_coefficients`` under the condition ``q`` names."""
    if q.mode == "unsigned":
        return _coefficients(v, k=_support_size(q.rho, q.a.shape[0]))
    return _coefficients(v, sgn=q._sgn)


def _margin_and_subgrad(q: ConditionQuery, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Evaluate the mode's margin and one subgradient at z."""
    a, p = q.a, q.p
    v = a @ z
    absv = np.abs(v)
    pw = absv**p
    # |v|^(p-1) blows up at v = 0 for p < 1; floor it relative to the scale.
    floor = _GRAD_FLOOR * (absv.max() + 1e-300)
    dfac = p * np.maximum(absv, floor) ** (p - 1.0) * np.sign(v)
    coef = _query_coefficients(q, v)
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
        z = np.array([[1.0, -1.0]])
    elif n == 2:
        angles = np.arange(0.0, 2 * math.pi, resolution)
        z = np.stack([np.cos(angles), np.sin(angles)])
    else:
        theta, phi = np.meshgrid(
            np.arange(0.0, math.pi + resolution / 2, resolution),
            np.arange(0.0, 2 * math.pi, resolution),
            indexing="ij",
        )
        theta, phi = theta.ravel(), phi.ravel()
        z = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])
    # Column blocks of about _GRID_BLOCK_ENTRIES entries of A z bound the m x K
    # temporaries; one product over a whole n = 3 grid at resolution 0.05 and
    # m = 30 raised peak memory by 6 MB.
    step = max(1, _GRID_BLOCK_ENTRIES // q.a.shape[0])
    margins = np.empty(z.shape[1])
    for j in range(0, z.shape[1], step):
        v = q.a @ z[:, j : j + step]
        margins[j : j + step] = np.einsum("ij,ij->j", _query_coefficients(q, v), np.abs(v) ** q.p)
    best = int(np.argmin(margins))
    return float(margins[best]), z[:, best].copy()


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
    k = _support_size(rho, m)
    if not (0 < p <= 1):
        raise DomainError(f"p must lie in (0, 1], got {p}")
    if z is None:
        if seed is None:
            raise DomainError("either z or seed must be given")
        z = seed.generator().standard_normal(n)
    z = _check_direction(a, z)

    v = a @ z
    t = _coefficients(v, k=k) < 0
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
    _, sgn = _check_support(m, support, signs)
    v = a @ z
    coef = _coefficients(v, sgn=sgn)
    margin = float(np.dot(coef, np.abs(v) ** p))
    if not margin < 0:
        raise DomainError(
            f"fixed-sign attack requires a strictly negative signed margin, got {margin}"
        )
    delta = -margin

    t_minus = coef < 0
    t_plus = coef == 0
    e = np.zeros(m)
    e[t_minus] = -v[t_minus]
    if np.any(t_plus):
        head_abs = np.abs(v[t_plus])
        base = _HEAD_SCALE * max(np.max(np.abs(v)), 1e-300)
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
        e[t_plus] = sgn[t_plus] * magnitude
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
