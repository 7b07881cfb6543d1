"""Null-space recovery conditions, violation search, and adversarial attacks.

For a direction z in the column space view, write v = A z.  The unsigned
margin at error fraction rho is

    sum_{i not in T} |v_i|^p - sum_{i in T} |v_i|^p,

with T the floor(rho m) indices of largest |v_i|.  Recovery of every message
under every error pattern of that size requires a non-negative margin for
all z.  When the error support T and its signs are fixed, the adversary
still picks the magnitudes.  For p < 1 it can make the entries of T that
agree with their sign cost nothing, so only the entries of T fighting the
error count, and the margin becomes

    sum_{i not in T} |v_i|^p - sum_{i in T-} |v_i|^p,

where T- = {i in T : v_i * signs[i] < 0}.  At p = 1 the agreeing entries
T+ (the rest of T) count for recovery whatever their magnitude, the margin is
sum_{i not in T-} |v_i| - sum_{i in T-} |v_i|, and the fixed-sign
threshold is 1 instead of 2/3.  All these margins are homogeneous of
degree p in z, so searches live on the unit sphere.  A strictly negative
margin is constructive: it converts into an explicit error vector under
which the decoder prefers a wrong codeword.

Every margin here is sum_i c_i |v_i|^p with coefficients c_i in {+1, 0, -1},
picked by ``_coefficients`` (T unsigned; signed, ``_signed_coefficients``,
which ``harness`` shares) and summed by ``_margins``.  Every public function
takes or builds a ``ConditionQuery``, which checks its inputs once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ensemble import SeedSpec, _require_seed, floor_count
from .decoder import _norms
from .errors import DomainError, NumericError, _require_count, _require_finite, _require_in
from .errors import _require_matrix, _require_p, _require_rho, _require_sign_map, _require_type

_SEARCH_STEPS = 500
_STEP_SCALE = 0.3
_GRAD_FLOOR = 1e-8
_HEAD_SCALE = 10.0
# Entries of A Z per block of directions: the brute-force grid's blocks and
# the search's stacks of restarts.
_BLOCK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class ConditionQuery:
    """Which null-space condition to probe on which matrix, with its inputs
    checked: every function of this module takes or builds one.

    ``mode`` is ``unsigned`` (needs ``rho``) or ``signed`` (needs ``support``,
    distinct integer indices, and ``signs``, +1 or -1 for each, keyed by
    them alone); each mode refuses fields it would not read.  ``z``, a
    nonzero direction, is where the margins and attacks evaluate and where
    the violation search starts.
    """

    a: np.ndarray
    p: float
    mode: str
    rho: float | None = None
    support: np.ndarray | None = None
    signs: dict[int, int] | None = None
    z: np.ndarray | None = None
    # floor(rho m), the size of T (unsigned mode)
    _k: int = field(init=False, default=0, repr=False)
    # the length-m sign vector, the signs on the support and 0 off it (signed mode)
    _sgn: np.ndarray | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        a = _require_matrix(self.a)
        m, n = a.shape
        object.__setattr__(self, "a", a)
        _require_p(self.p)
        if self.mode == "unsigned":
            if self.support is not None or self.signs is not None:
                raise DomainError("unsigned mode takes no support or sign map")
            _require_rho(self.rho)
            object.__setattr__(self, "_k", floor_count(self.rho, m))
        elif self.mode == "signed":
            if self.rho is not None:
                raise DomainError("signed mode takes no rho: its support fixes the error count")
            t, sgn = _require_sign_map(self.support, self.signs, m)
            object.__setattr__(self, "support", t)
            object.__setattr__(self, "_sgn", sgn)
        else:
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.z is not None:
            z = _require_finite("z", self.z, (n,))
            if not np.any(z):
                raise DomainError("direction z must be nonzero")
            object.__setattr__(self, "z", z)


@dataclass(eq=False)
class CertifyReport:
    """Outcome of a violation search; ``witness`` attains ``min_margin``."""

    min_margin: float
    witness: np.ndarray
    violated: bool


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


def _signed_coefficients(v: np.ndarray, sgn: np.ndarray, p: float) -> np.ndarray:
    """Signed coefficients for v, (m,) or (R, m), and sgn the sign vector (0
    off the support): +1 off the support and -1 on T-.  T+ gets the least
    over M of |M + |v_i||^p - M^p, in units of |v_i|^p: 0 for p < 1 (as M
    grows), and +1 at p = 1, where it is |v_i| for every M."""
    opposing = v * sgn < 0
    counted = sgn == 0 if p < 1 else ~opposing
    return np.subtract(counted, opposing, dtype=float)


def _coefficients(q: ConditionQuery, v: np.ndarray, absv: np.ndarray) -> np.ndarray:
    """Coefficients c of the margin sum_i c_i |v_i|^p under the condition ``q``
    names, for v of shape (m,) or (R, m) (one row per direction) and absv
    its |v|, which every caller already has.

    Unsigned: -1 on T and +1 off it, T the floor(rho m) largest |v_i| of each
    row, ties going to the lower index (``_top_k``).
    """
    if q.mode == "unsigned":
        return np.where(_top_k(absv, q._k), -1.0, 1.0)
    return _signed_coefficients(v, q._sgn, q.p)


def _margins(q: ConditionQuery, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """The margin of ``q`` at each row of z, (R, n), and the v = A z, |v| and
    coefficients it sums.  Every product is one BLAS GEMV or DOT per row on
    C-contiguous operands, so a row's bits do not depend on the stack."""
    v = (q.a @ z[:, :, None])[:, :, 0]
    absv = np.abs(v)
    coef = _coefficients(q, v, absv)
    margins = (coef[:, None, :] @ (absv**q.p)[:, :, None])[:, 0, 0]
    return margins, v, absv, coef


def _margin(q: ConditionQuery) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Row 0 of ``_margins`` at ``q.z``; NumericError unless the margin is
    finite, which makes v finite too."""
    with np.errstate(over="ignore", invalid="ignore"):
        margins, v, absv, coef = _margins(q, q.z[None])
    margin = float(margins[0])
    if not math.isfinite(margin):
        raise NumericError(f"the margin at z is {margin}: A z overflowed")
    return margin, v[0], absv[0], coef[0]


def unsigned_margin(a: np.ndarray, p: float, rho: float, z) -> float:
    """Margin against the worst support of size floor(rho m) for this z."""
    return _margin(ConditionQuery(a=a, p=p, mode="unsigned", rho=rho, z=z))[0]


def signed_margin(a: np.ndarray, p: float, support, signs: dict[int, int], z) -> float:
    """Margin when the error support and signs are fixed in advance."""
    return _margin(ConditionQuery(a=a, p=p, mode="signed", support=support, signs=signs, z=z))[0]


def _margins_and_subgrads(q: ConditionQuery, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_margins`` at each row of z, (R, n), and one subgradient per row."""
    a, p = q.a, q.p
    margins, v, absv, coef = _margins(q, z)
    # The subgradient factor coef * p |v|^(p-1) sign(v), built in place.
    # |v|^(p-1) blows up at v = 0 for p < 1; floor it relative to the scale.
    floor = _GRAD_FLOOR * (absv.max(axis=1, keepdims=True) + 1e-300)
    dfac = np.maximum(absv, floor, out=absv)
    dfac **= p - 1.0
    dfac *= p
    dfac *= np.sign(v)
    dfac *= coef
    grads = (a.T @ dfac[:, :, None])[:, :, 0]
    return margins, grads


def _descend(q: ConditionQuery, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Run the descent from every row of z at once, as one stack; z moves
    in place.

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
        stuck = np.flatnonzero(gn == 0.0)
        if len(stuck) == restarts:
            break
        if len(stuck):
            held = z[stuck]
            gn[stuck] = 1.0
        grads *= _STEP_SCALE / math.sqrt(t + 1.0)
        grads /= gn
        z -= grads
        z /= _norms(z)[:, None]
        if len(stuck):
            z[stuck] = held
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
    restart, scaled exactly by a power of two before it is normalised, so
    that any finite z starts at its unit direction.  A negative minimum is
    a certified violation (the witness reproduces it); a non-negative one
    is only evidence, since the search is not exhaustive.  NumericError
    when the least margin is not finite (A z overflowed).
    """
    _require_type("q", q, ConditionQuery)
    _require_count("restarts", restarts)
    gen = _require_seed(seed, SeedSpec(0, 0)).generator()
    m, n = q.a.shape
    size = max(1, _BLOCK_ENTRIES // m)

    best_margin, best_z = math.inf, None
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, restarts, size):
            seeded = first == 0 and q.z is not None
            z = gen.standard_normal((min(size, restarts - first) - seeded, n))
            if seeded:
                z = np.vstack([np.ldexp(q.z, -np.frexp(np.max(np.abs(q.z)))[1]), z])
            z /= _norms(z)[:, None]
            margin, witness = _descend(q, z)
            if margin < best_margin:
                best_margin, best_z = margin, witness
    if not math.isfinite(best_margin):
        raise NumericError(f"the least margin of the search is {best_margin}: A z overflowed")
    return CertifyReport(
        min_margin=best_margin, witness=best_z, violated=bool(best_margin < 0)
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
    _require_type("q", q, ConditionQuery)
    n = q.a.shape[1]
    if n > 3:
        raise DomainError("brute-force sphere search supports n <= 3 only")
    _require_in("resolution", resolution, lambda r: 0 < r < math.inf, "(0, inf)")
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
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, z.shape[1], step):
            v = q.a @ z[:, j : j + step]
            absv = np.abs(v)
            coef = _coefficients(q, v.T, absv.T).T
            margins[j : j + step] = np.einsum("ij,ij->j", coef, absv**q.p)
    best = int(np.argmin(margins))  # the first NaN, if there is one
    if not math.isfinite(margins[best]):
        raise NumericError(f"the least margin of the grid is {margins[best]}: A z overflowed")
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

    Places e_i = (A z)_i on the top floor(rho m) entries T of |A z|, so the
    residual at x_alt = f + z is exactly -A z off T and zero on T:

        ||y - A x_alt||_p^p = sum_{i not in T} |(A z)_i|^p
        ||y - A f||_p^p     = sum_{i in T} |(A z)_i|^p.
    """
    q = ConditionQuery(a=a, p=p, mode="unsigned", rho=rho, z=z)
    f = _require_finite("f", f, (q.a.shape[1],))
    _, v, _, coef = _margin(q)
    t = coef < 0
    e = np.zeros(len(v))
    e[t] = v[t]
    return e, f + q.z


def attack_fixed_sign(
    a: np.ndarray,
    f: np.ndarray,
    p: float,
    support,
    signs: dict[int, int],
    z,
) -> tuple[np.ndarray, np.ndarray]:
    """Error pattern with prescribed support and signs that makes f - z win.

    Needs a strictly negative signed margin -delta at z.  On
    T- = {i in T : (A z)_i signs_i < 0} set e_i = -(A z)_i (which has the
    required sign); on the rest of T, T+, set e_i = signs_i * M.  Then

        ||e + A z||_p^p - ||e||_p^p
            = margin + sum_{T+} (|M + |(A z)_i||^p - M^p - c |(A z)_i|^p),

    c being the coefficient ``_signed_coefficients`` gives T+.  At p = 1,
    c = 1 and every head term is 0 whatever M is.  For p < 1, c = 0, and M is
    doubled until the head terms, M^p expm1(p log1p(|(A z)_i| / M)) with no
    cancellation, sum to less than delta / 2; NumericError if M reaches 2^60
    times its start first.  Then ||y - A (f - z)||_p^p <= ||e||_p^p - delta / 2.
    """
    q = ConditionQuery(a=a, p=p, mode="signed", support=support, signs=signs, z=z)
    f = _require_finite("f", f, (q.a.shape[1],))
    margin, v, absv, coef = _margin(q)
    if not margin < 0:
        raise DomainError(
            f"fixed-sign attack requires a strictly negative signed margin, got {margin}"
        )
    delta = -margin

    t_minus = coef < 0
    t_plus = (q._sgn != 0) & ~t_minus
    e = np.zeros(len(v))
    e[t_minus] = -v[t_minus]
    base = _HEAD_SCALE * max(np.max(absv), 1e-300)
    magnitude = base
    if q.p < 1:
        head_abs = absv[t_plus]
        while True:
            gap = float(np.sum(magnitude**q.p * np.expm1(q.p * np.log1p(head_abs / magnitude))))
            if gap < delta / 2:
                break
            if magnitude >= base * 2.0**60:
                raise NumericError(
                    "head escalation hit its cap before shrinking the gap below "
                    f"delta / 2 (p={p}, delta={delta:.3e})"
                )
            magnitude *= 2.0
    e[t_plus] = q._sgn[t_plus] * magnitude
    return e, f - q.z
