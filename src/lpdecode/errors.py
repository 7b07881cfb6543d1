"""Exception hierarchy shared by all lpdecode modules, and their argument checks."""

import operator

import numpy as np

# The most points a curve, a grid or a sweep may ask for: far more than an
# experiment needs, and few enough that their lists fit in memory.
_MAX_POINTS = 10**6


class LpdecodeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LpdecodeError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class SingularityError(LpdecodeError):
    """A linear system is numerically rank-deficient."""


class NumericError(LpdecodeError):
    """A computation produced non-finite values or failed to reach its tolerance."""


def _require_int(name: str, value) -> None:
    """Raise DomainError unless ``value`` is an integer (NumPy integers included)."""
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _require_type(name: str, value, cls: type):
    """``value``; DomainError unless it is an instance of ``cls``."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {value!r}")
    return value


def _require_count(name: str, value, least: int = 1, most: float = float("inf")) -> None:
    """Raise DomainError unless ``value`` is an integer in [``least``, ``most``]."""
    _require_int(name, value)
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    if value > most:
        raise DomainError(f"{name} must be at most {most}, got {value}")


def _require_shape(m, n) -> None:
    """Raise DomainError unless m >= n >= 1 are integers, the shape of every A."""
    _require_int("m", m)
    _require_int("n", n)
    if n < 1 or m < n:
        raise DomainError(f"need m >= n >= 1, got m={m}, n={n}")


def _require_in(name: str, value, in_range, interval: str) -> None:
    """Raise DomainError unless ``in_range(value)`` holds; a value it cannot
    compare (None, a string) fails, and so does NaN."""
    try:
        ok = bool(in_range(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must lie in {interval}, got {value!r}")


def _require_p(p, top: int = 1) -> None:
    """Raise DomainError unless ``p`` is a number in (0, ``top``]."""
    _require_in("p", p, lambda v: 0 < v <= top, f"(0, {top}]")


def _require_rho(rho, below_one: bool = False) -> None:
    """Raise DomainError unless ``rho`` is a number in [0, 1], or in [0, 1) with
    ``below_one`` (an error fraction, which cannot cover every entry)."""
    _require_in("rho", rho, lambda v: 0 <= v <= 1, "[0, 1]")
    if below_one and rho == 1:
        raise DomainError(f"rho must lie in [0, 1), got {rho}")


def _as_floats(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a float array, NaN and inf kept; DomainError unless it is
    numeric and, when ``shape`` is given, of that shape."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be an array of numbers") from None
    if shape is not None and arr.shape != shape:
        raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _require_finite(name: str, value, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """:func:`_as_floats`, refusing NaN and inf as well."""
    arr = _as_floats(name, value, shape)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def _require_matrix(a) -> np.ndarray:
    """``a`` as a finite float m x n matrix with m >= n >= 1."""
    a = _require_finite("a", a)
    if a.ndim != 2:
        raise DomainError(f"a must be a matrix, got shape {a.shape}")
    _require_shape(*a.shape)
    return a


def _require_indices(name: str, values, m: int) -> np.ndarray:
    """``values`` as int64 indices into range(m); DomainError unless it is a
    1-D sequence of integers (an empty one included).

    Floats are refused rather than truncated, so 0.7 never becomes index 0.
    """
    try:
        t = np.asarray(values)
    except ValueError:
        t = None
    if t is None or t.ndim != 1 or (t.size and not np.issubdtype(t.dtype, np.integer)):
        raise DomainError(f"{name} must be a 1-D sequence of integers, got {values!r}")
    t = t.astype(np.int64)
    if t.size and (t.min() < 0 or t.max() >= m):
        raise DomainError(f"{name} must lie in range({m})")
    return t


def _require_sign_map(support, signs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``support`` as int64 indices, and the length-m vector of each sign at
    its index, 0 elsewhere; DomainError unless ``signs`` maps each support
    index, once, to +1 or -1, and nothing else (compared sorted: np.unique
    and np.isin import numpy.ma)."""
    _require_type("signs", signs, dict)
    keys = _require_indices("sign map keys", list(signs), m)
    t = _require_indices("support", support, m)
    # the keys are distinct, so equal sorted copies refuse a repeated index too
    if not np.array_equal(np.sort(keys), np.sort(t)):
        raise DomainError("sign map keys do not match the support")
    if any(v not in (-1, 1) for v in signs.values()):
        raise DomainError("the sign map must give each support index +1 or -1")
    sgn = np.zeros(m)
    sgn[keys] = list(signs.values())
    return t, sgn
