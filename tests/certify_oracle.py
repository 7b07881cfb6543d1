"""Reference oracles for the certify tests.

``support_margin`` is the unsigned margin on a support the caller picks, so
a test can check the library's top-k choice of T against every support of
that size.  ``l1_decode`` solves the l1 decoding problem exactly, as a
linear program, so a test can check what the fixed-sign condition at p = 1
claims about l1 decoding against the decoder itself.
"""

import numpy as np
from scipy.optimize import linprog


def support_margin(a, p, support, z) -> float:
    """sum_{i not in T} |v_i|^p - sum_{i in T} |v_i|^p for v = A z and T = support."""
    v = np.asarray(a, dtype=float) @ np.asarray(z, dtype=float)
    coef = np.ones(v.shape)
    coef[support] = -1.0
    return float(np.dot(coef, np.abs(v) ** p))


def l1_decode(a, y) -> np.ndarray:
    """argmin_x ||y - A x||_1, by HiGHS on the linear program

        minimize sum_i t_i  over (x, t)  subject to  -t <= y - A x <= t.
    """
    m, n = a.shape
    eye = np.eye(m)
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(m)]),
        A_ub=np.block([[-a, -eye], [a, -eye]]),
        b_ub=np.concatenate([-y, y]),
        bounds=[(None, None)] * n + [(0, None)] * m,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n]
