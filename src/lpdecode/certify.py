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
from .decoder import _norms
from .errors import DomainError, NumericError, _require_int, _require_p, _require_rho

_SEARCH_STEPS = 500
_STEP_SCALE = 0.3
_GRAD_FLOOR = 1e-8
_HEAD_SCALE = 10.0
# Entries of A Z per block of directions: the brute-force grid's blocks and
# the search's stacks of restarts.
_BLOCK_ENTRIES = 2**14


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
        if not np.all(np.isfinite(a)):
            raise DomainError("a must be finite")
        object.__setattr__(self, "a", a)
        _require_p(self.p)
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
            if not np.all(np.isfinite(z)):
                raise DomainError("z must be finite")
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
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(z))):
        raise DomainError("a and z must be finite")
    return z


def _support_size(rho: float | None, m: int) -> int:
    """ceil(rho m), the size of the worst-case support T, for rho in [0, 1]."""
    _require_rho(rho)
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


def _top_k(absv: np.ndarray, k: int) -> np.ndarray:
    """Mask of T, the k largest entries of each row (last axis) of absv, ties
    going to the lower index: the set ``np.argsort(-absv, kind="stable")[..., :k]``
    picks, found with one partition instead of a sort.

    tau is the k-th largest entry of a row; T holds every entry above tau and
    the lowest-index entries equal to tau, up to k in all.  Rows hold no NaN:
    every public entry point rejects a non-finite A or z.
    """
    m = absv.shape[-1]
    if k == 0:
        return np.zeros(absv.shape, dtype=bool)
    tau = np.partition(absv, m - k, axis=-1)[..., m - k, None]
    t = absv >= tau
    # Each row has exactly k entries >= tau unless ties at tau run past k,
    # which needs exact ties (integer-valued A, zeros in A z).  Returning
    # early here makes certify_threshold about 11% faster.
    if np.count_nonzero(t) == k * (t.size // m):
        return t
    above = absv > tau
    tied = t & ~above
    room = k - np.count_nonzero(above, axis=-1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def _coefficients(v: np.ndarray, k: int = 0, sgn=None, support=None) -> np.ndarray:
    """Coefficients c of the margin sum_i c_i |v_i|^p, for v of shape (m,) or
    (R, m) (one row per direction).

    Signed condition (``sgn`` is the length-m sign vector, 0 off the support):
    +1 off the support, -1 on T- (entries opposing their sign), 0 on the rest
    of the support.  Unsigned condition: -1 on T and +1 off it, where T is
    ``support`` when given (v of shape (m,) only) and otherwise the k largest
    |v_i| of each row, ties going to the lower index (``_top_k``).
    """
    if sgn is not None:
        return np.subtract(sgn == 0, v * sgn < 0, dtype=float)
    if support is None:
        return np.where(_top_k(np.abs(v), k), -1.0, 1.0)
    coef = np.ones(v.shape)
    coef[support] = -1.0
    return coef


def support_margin(a: np.ndarray, p: float, support: np.ndarray, z) -> float:
    """Unsigned margin with an explicitly chosen support T."""
    _require_p(p)
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    t, _ = _check_support(a.shape[0], support)
    return float(np.dot(_coefficients(v, support=t), np.abs(v) ** p))


def unsigned_margin(a: np.ndarray, p: float, rho: float, z) -> float:
    """Margin against the worst support of size ceil(rho m) for this z."""
    _require_p(p)
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    coef = _coefficients(v, k=_support_size(rho, a.shape[0]))
    return float(np.dot(coef, np.abs(v) ** p))


def signed_margin(a: np.ndarray, p: float, support, signs: dict[int, int], z) -> float:
    """Margin when the error support and signs are fixed in advance."""
    _require_p(p)
    a = np.asarray(a, dtype=float)
    v = a @ _check_direction(a, z)
    _, sgn = _check_support(a.shape[0], support, signs)
    return float(np.dot(_coefficients(v, sgn=sgn), np.abs(v) ** p))


def _query_coefficients(q: ConditionQuery, v: np.ndarray) -> np.ndarray:
    """``_coefficients`` under the condition ``q`` names."""
    if q.mode == "unsigned":
        return _coefficients(v, k=_support_size(q.rho, q.a.shape[0]))
    return _coefficients(v, sgn=q._sgn)


def _margins_and_subgrads(q: ConditionQuery, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mode's margin and one subgradient at each row of z, (R, n).

    Every product is one BLAS GEMV or DOT per row on C-contiguous operands,
    as in the one-direction code, so a row's bits do not depend on the stack.
    """
    a, p = q.a, q.p
    v = (a @ z[:, :, None])[:, :, 0]
    absv = np.abs(v)
    pw = absv**p
    # |v|^(p-1) blows up at v = 0 for p < 1; floor it relative to the scale.
    floor = _GRAD_FLOOR * (absv.max(axis=1, keepdims=True) + 1e-300)
    dfac = p * np.maximum(absv, floor) ** (p - 1.0) * np.sign(v)
    coef = _query_coefficients(q, v)
    margins = (coef[:, None, :] @ pw[:, :, None])[:, 0, 0]
    grads = (a.T @ (coef * dfac)[:, :, None])[:, :, 0]
    return margins, grads


def _descend(q: ConditionQuery, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Run the descent from every row of z at once, as one stack.

    Returns the best margin seen and its direction: the first row, and then
    the first step, that attains it.  A row whose subgradient vanishes stays
    where it is, as the one-restart loop stopped there.
    """
    restarts = len(z)
    best_margin = np.full(restarts, math.inf)
    best_z = z.copy()
    for t in range(_SEARCH_STEPS + 1):
        margins, grads = _margins_and_subgrads(q, z)
        better = margins < best_margin
        np.copyto(best_margin, margins, where=better)
        np.copyto(best_z, z, where=better[:, None])
        if t == _SEARCH_STEPS:
            break
        gn = _norms(grads)[:, None]
        if np.count_nonzero(gn) == 0:
            break
        stuck = gn == 0.0
        gn[stuck] = 1.0
        z_new = z - (_STEP_SCALE / math.sqrt(t + 1.0)) * grads / gn
        z_new /= _norms(z_new)[:, None]
        np.copyto(z_new, z, where=stuck)
        z = z_new
    r = int(np.argmin(best_margin))
    return float(best_margin[r]), best_z[r]


def search_violation(
    q: ConditionQuery,
    restarts: int = 8,
    seed: SeedSpec | None = None,
) -> CertifyReport:
    """Projected subgradient descent on the unit sphere hunting margin < 0.

    Each restart runs a fixed number of steps with a diminishing step size.
    The restarts move together in stacks of up to 2^14 / m of them (one
    stack at the usual sizes; the bound keeps memory from growing with
    ``restarts``), and T is picked by a partition (``_top_k``).  The report
    keeps the best margin seen anywhere, the first restart and then the
    first step that attains it.  ``q.z``, when present, seeds the first
    restart.  A negative minimum is a certified violation
    (the witness direction reproduces it); a non-negative minimum is only
    evidence, since the search is not exhaustive.  NumericError when no
    margin was below +inf (A z overflowed everywhere).
    """
    _require_int("restarts", restarts)
    if restarts < 1:
        raise DomainError("restarts must be at least 1")
    gen = (seed or SeedSpec(0, 0)).generator()
    m, n = q.a.shape
    size = max(1, _BLOCK_ENTRIES // m)

    best_margin, best_z = math.inf, None
    for first in range(0, restarts, size):
        z = np.empty((min(size, restarts - first), n))
        for r in range(len(z)):
            if first + r == 0 and q.z is not None and np.any(q.z):
                z[r] = q.z / np.linalg.norm(q.z)
            else:
                z[r] = gen.standard_normal(n)
                z[r] /= np.linalg.norm(z[r])
        margin, witness = _descend(q, z)
        if margin < best_margin:
            best_margin, best_z = margin, witness
    if best_z is None:
        raise NumericError("every margin of the search was NaN or +inf")
    return CertifyReport(
        min_margin=best_margin,
        witness=best_z,
        violated=bool(best_margin < 0),
        restarts_used=restarts,
    )


def brute_force_min_margin(
    q: ConditionQuery, resolution: float = 0.01
) -> tuple[float, np.ndarray]:
    """Minimum margin over a spherical grid of directions; test oracle for n <= 3.

    The grid's minimum is an upper bound on the true minimum over the
    sphere, not the minimum itself: at p < 1 the margin has cusps where
    entries of A z vanish, minima sit on them, and a grid can step over a
    violation.  Grid cost grows like (2 pi / resolution)^(n-1), so larger
    n is refused.
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
    # Column blocks of about _BLOCK_ENTRIES entries of A z bound the m x K
    # temporaries; one product over a whole n = 3 grid at resolution 0.05 and
    # m = 30 raised peak memory by 6 MB.
    step = max(1, _BLOCK_ENTRIES // q.a.shape[0])
    margins = np.empty(z.shape[1])
    for j in range(0, z.shape[1], step):
        v = q.a @ z[:, j : j + step]
        coef = _query_coefficients(q, v.T).T
        margins[j : j + step] = np.einsum("ij,ij->j", coef, np.abs(v) ** q.p)
    best = int(np.argmin(margins))
    return float(margins[best]), z[:, best].copy()


def attack_arbitrary(
    a: np.ndarray,
    f: np.ndarray,
    p: float,
    rho: float,
    z,
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
    _require_p(p)
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
