"""Exception hierarchy shared by all lpdecode modules, and its integer, p and rho checks."""

import operator


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


def _require_p(p) -> None:
    """Raise DomainError unless ``p`` is a number in (0, 1]."""
    try:
        in_range = 0 < p <= 1
    except TypeError:
        in_range = False
    if not in_range:
        raise DomainError(f"p must lie in (0, 1], got {p!r}")


def _require_rho(rho) -> None:
    """Raise DomainError unless ``rho`` is a number in [0, 1]."""
    try:
        in_range = 0 <= rho <= 1
    except TypeError:
        in_range = False
    if not in_range:
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
