"""Reference oracles for the certify tests.

``support_margin`` is the unsigned margin on a support the caller picks, so
a test can check the library's top-k choice of T against every support of
that size.  ``l1_decode`` solves the l1 decoding problem exactly, as a
linear program, so a test can check what the fixed-sign condition at p = 1
claims about l1 decoding against the decoder itself.  ``exact_lp_decode``
solves the lp decoding problem exactly for every 0 < p <= 1 at small m and
n, by enumerating vertices, so a test can tell which trials lp decoding
recovers without trusting IRLS.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog

# vertices solved per batched np.linalg.solve
_VERTEX_BLOCK = 1 << 15


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


def exact_lp_decode(a, y, p, budget=100_000) -> np.ndarray:
    """argmin_x sum_i |y_i - (A x)_i|^p for 0 < p <= 1, by vertex enumeration.

    On each cell of the arrangement {r_i = 0} the signs of r = y - A x are
    fixed, so the objective is concave there.  A has rank n, so each cell
    is a pointed polyhedron and the objective grows without bound along
    every ray: the minimum sits at a vertex x_S = A_S^-1 y_S, where the n
    residuals of some n-subset S vanish.  This tries all C(m, n) subsets,
    solved in blocks of ``itertools.combinations``, skips the singular
    A_S, and returns the best x.  ValueError past ``budget`` subsets.
    """
    a, y = np.asarray(a, dtype=float), np.asarray(y, dtype=float)
    m, n = a.shape
    count = math.comb(m, n)
    if count > budget:
        raise ValueError(f"C({m}, {n}) = {count} vertices exceed the budget of {budget}")
    subsets = itertools.combinations(range(m), n)
    best_obj, best_x = math.inf, None
    for _ in range(0, count, _VERTEX_BLOCK):
        block = np.array(list(itertools.islice(subsets, _VERTEX_BLOCK)))
        a_s = a[block]
        # |det A_S| against Hadamard's bound, the product of its row norms
        hadamard = np.prod(np.linalg.norm(a_s, axis=2), axis=1)
        regular = np.abs(np.linalg.det(a_s)) > 1e-12 * hadamard
        block = block[regular]
        x = np.linalg.solve(a_s[regular], y[block][..., None])[..., 0]
        r = y - x @ a.T
        r[np.arange(len(block))[:, None], block] = 0.0  # zero at the vertex, not rounding
        obj = np.sum(np.abs(r) ** p, axis=1)
        i = int(np.argmin(obj))
        if obj[i] < best_obj:
            best_obj, best_x = obj[i], x[i]
    return best_x
