"""Absolute moment of |X| for X ~ N(0, 1).

Every threshold quantity in this package reduces to integrals of
``z**p * pdf(z)`` over pieces of ``[0, inf)``, pdf being the half-normal
density.  Those integrals have closed forms in the (incomplete) gamma
function: the full moment is :func:`mu`, and :mod:`lpdecode.threshold`
builds z*, rho* and its slope from the same substitution u = z**2 / 2.
"""

from __future__ import annotations

import math

from .errors import _require_p


def mu(p: float) -> float:
    """E|X|**p = 2**(p/2) * Gamma((p+1)/2) / sqrt(pi) for p in (0, 2]."""
    _require_p(p, top=2)
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
