"""Exception hierarchy shared by all lpdecode modules, and its number and index checks."""

import operator

import numpy as np


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


def _require_in(name: str, value, in_range, interval: str) -> None:
    """Raise DomainError unless ``in_range(value)`` holds; a value it cannot
    compare (None, a string) fails, and so does NaN."""
    try:
        ok = bool(in_range(value))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"{name} must lie in {interval}, got {value!r}")


def _require_p(p) -> None:
    """Raise DomainError unless ``p`` is a number in (0, 1]."""
    _require_in("p", p, lambda v: 0 < v <= 1, "(0, 1]")


def _require_rho(rho) -> None:
    """Raise DomainError unless ``rho`` is a number in [0, 1]."""
    _require_in("rho", rho, lambda v: 0 <= v <= 1, "[0, 1]")


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
