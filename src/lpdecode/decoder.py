"""IRLS decoder for min_x ||y - A x||_p^p with 0 < p <= 1.

The nonsmooth objective is approached through a smoothed surrogate
sum_i (r_i^2 + eps)^(p/2) over a fixed schedule of ten eps phases: nine
decades 1, 0.1, ..., 1.0000000000000005e-08, each the last times 0.1, then
a repeat at exactly 1e-8.  Each phase runs at most 100 steps of reweighted
least squares with weights w_i = (r_i^2 + eps)^(p/2-1), which majorizes the
surrogate, so the smoothed objective is non-increasing within a phase.  A
phase ends once the relative step |x_new - x| / max(|x|, |x_new|) is at
most its tolerance: 1e-10 in the last phase, and sqrt(eps) / 1e4 in the
nine intermediate ones, whose minimisers only start the next phase.  That
is the rule of Chartrand and Yin ("Iteratively reweighted algorithms for
compressive sensing", ICASSP 2008) with a 1e4 in place of their 100: on
seeded sweeps, sqrt(eps) / 100 to sqrt(eps) / 3000 lost trials that running
every phase to 1e-10 recovers (tests/test_decoder.py holds them), and 1e4
lost none.  A 1000 x 100 decode at p = 0.5 runs its ten phases in 2, 3, 4,
5, 5, 4, 4, 3, 3, 1 steps.  eps is applied relative to the
squared measurement scale ||y||^2 / m, which makes the whole iteration
equivariant under y -> c y; the iteration itself runs on y and A divided by
powers of two, so that holds across the whole float range.

One kernel, ``_irls``, starts and runs IRLS on a stack of trials at once
and returns arrays; ``_decode_stack`` scales each trial and builds every
result, or the error of a run that failed, in one loop.  ``decode`` passes
one trial; a sweep passes the trials at one p, in the bounded stacks of
``harness._stacks``.  A sweep keeps only each trial's x and objective, so it
decodes without the per-step surrogate objective of ``objective_trace`` and
without phase starts; every other bit of its results is a traced run's.  A
stack holds its A three times at most: the stacked A it was given, one
scaled copy, and one weighted copy per step.  Every step is one batched
Gram product and residual over the live trials, then one LAPACK Cholesky
solve per trial; a trial that finishes or fails leaves the stack, its rows
of the scaled copy compacted in place, so no step is spent on it, and every
trial's result is bit-identical to a run on its own.
That solve is LAPACK's dposv from SciPy's compiled ``_flapack`` extension,
loaded on the first decode and on its own: no ``scipy`` package module is
ever imported.  The Gram product is the GEMM A^T (W A) below n = 48, and
from n = 48 on B^T B with B = W^(1/2) A, which NumPy hands to BLAS dsyrk
at half the flops (``_SYRK_MIN_N``).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import LpdecodeError, NumericError, SingularityError, _as_floats
from .errors import _require_finite, _require_matrix, _require_p, _require_type


_EPS_MIN = 1e-8
# The eps of each of the ten phases: 1, then each the last times 0.1 (whose
# floats differ from eps / 10's), floored at _EPS_MIN.  The ninth is
# 1.0000000000000005e-08, just above the floor, so the tenth is _EPS_MIN.
_EPS = [1.0]
while _EPS[-1] > _EPS_MIN:
    _EPS.append(max(_EPS[-1] * 0.1, _EPS_MIN))
_EPS = np.array(_EPS)
_MAX_INNER = 100
_INNER_TOL = 1e-10
# The step tolerance of each phase: sqrt(eps) / 1e4, then _INNER_TOL in the last
_TOL = np.append(np.sqrt(_EPS[:-1]) / 1e4, _INNER_TOL)
_PIVOT_RATIO_MIN = math.sqrt(np.finfo(float).eps)
# _solve forms each Gram matrix as B^T B with B = sqrt(w) A from this n on,
# and as A^T (w A) below it.  NumPy computes B^T B by BLAS dsyrk, which does
# half the flops of the GEMM but costs more per call.  Time of the Gram
# matrix and right-hand side, dsyrk over GEMM (single-thread OpenBLAS):
#   n             20         32         40    48    56    64    100   200
#   dsyrk / GEMM  1.17-1.41  1.26-1.31  1.08  0.85  0.80  0.80  0.72  0.63
_SYRK_MIN_N = 48


@dataclass(frozen=True)
class DecoderConfig:
    """The lp exponent.  The rest is fixed: every run starts from the
    unweighted least-squares fit and takes the same ten eps phases of at
    most 100 inner iterations each, nine decades from 1 to
    1.0000000000000005e-08 and then exactly 1e-8 (see ``_EPS``).  The nine
    intermediate phases end at a relative step of sqrt(eps) / 1e4 and the
    last at 1e-10 (see ``_TOL``)."""

    p: float

    def __post_init__(self):
        _require_p(self.p)


@dataclass(eq=False)
class DecodeResult:
    """Decoder output.

    ``objective_trace`` holds the smoothed surrogate value after every inner
    solve; ``phase_starts`` marks where each eps phase begins in that trace.
    ``converged`` means the final phase (at eps_min) met the step tolerance.
    """

    x_hat: np.ndarray
    objective: float
    objective_trace: list[float]
    iterations: int
    converged: bool
    phase_starts: list[int]


def lp_objective(r: np.ndarray, p: float) -> float:
    """sum_i |r_i|^p for p in (0, 2]."""
    _require_p(p, top=2)
    return float(np.sum(np.abs(_as_floats("r", r)) ** p))


@functools.cache
def _dposv():
    """LAPACK's dposv, the same compiled routine as ``scipy.linalg.lapack.dposv``.

    The first call loads SciPy's Fortran extension ``scipy/linalg/_flapack``
    by its file, so no ``scipy`` package module runs (``scipy.linalg``
    alone imports some 300 modules), and the extension is not registered
    in ``sys.modules``.  ModuleNotFoundError when SciPy or that extension
    is not installed.
    """
    scipy = importlib.util.find_spec("scipy")  # finds SciPy without importing it
    roots = scipy.submodule_search_locations if scipy else []
    dirs = [os.path.join(root, "linalg") for root in roots]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if spec is None:
        raise ModuleNotFoundError(
            "decoding needs SciPy's compiled LAPACK module scipy/linalg/_flapack, "
            "which was not found", name="scipy"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files a single-phase extension under its bare name; take it out
    if sys.modules.get(spec.name) is module:
        del sys.modules[spec.name]
    return module.dposv


def _weight_rows(a, w):
    """a * w[..., None] as one contiguous multiply of the flattened arrays,
    whose inner loop runs over all of a, not n entries at a time; the same
    bits.  The repeated w becomes the product, so no other copy of a is made."""
    aw = np.repeat(w.reshape(-1), a.shape[-1])
    aw *= a.reshape(-1)
    return aw.reshape(a.shape)


def _solve(a, w, y):
    """One weighted least-squares solve per trial of a stack.

    a is (T, m, n), w is (T, m) and y is (T, m).  Returns x of shape
    (T, n), with zero rows for the trials that fail, and a dict
    {trial: SingularityError} for the failures.

    The Gram matrices A^T W A and right-hand sides A^T W y of the whole
    stack are two batched products: A^T (W A) and (W A)^T y below
    n = _SYRK_MIN_N, and B^T B and B^T (W^(1/2) y) with B = W^(1/2) A from
    it on.  The two round differently, and n alone picks one, so a trial's
    bits do not depend on its stack.  Each trial is then solved by one
    LAPACK dposv, which factors its Gram matrix as U^T U and solves.
    G = U^T U squares the condition number of the sqrt(w)-scaled system, so
    a trial counts as numerically rank deficient when its factorisation
    fails or its pivots U_kk^2 span more than 1/sqrt(eps): past that, less
    than half the digits of x would be right.
    """
    m, n = a.shape[-2:]
    if n >= _SYRK_MIN_N:  # u is v, so NumPy computes u^T v by BLAS dsyrk
        sw = np.sqrt(w)
        u = v = _weight_rows(a, sw)
        z = sw * y
    else:
        u, v, z = a, _weight_rows(a, w), y
    gram = np.swapaxes(u, -1, -2) @ v
    # each trial's right-hand side is overwritten by its solution in place
    x = (np.swapaxes(v, -1, -2) @ z[..., None])[..., 0]
    pivots = np.empty((len(w), n))
    failed = {}
    dposv = _dposv()
    for t in range(len(w)):
        upper, _, info = dposv(gram[t], x[t], lower=0, overwrite_b=1)
        if info:
            failed[t] = SingularityError(
                "weighted system is numerically rank deficient "
                f"(Cholesky failed at leading minor {info}, m={m}, n={n})"
            )
            pivots[t] = 1.0  # not factored, so the pivot test below passes it
            x[t] = 0.0
            continue
        pivots[t] = upper.diagonal()
    pivots **= 2
    ratios = pivots.min(axis=1) / pivots.max(axis=1)
    singular = ~(ratios > _PIVOT_RATIO_MIN)
    if singular.any():
        for t in np.flatnonzero(singular):
            failed[t] = SingularityError(
                "weighted system is numerically rank deficient "
                f"(Cholesky pivot ratio {ratios[t]:.3e}, m={m}, n={n})"
            )
            x[t] = 0.0
    return x, failed


def _norms(v):
    """Euclidean norm of each row, by the BLAS dot np.linalg.norm uses on
    one row, so that each row's norm does not depend on the stack."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _irls(a, y, p, s2, trace=True):
    """IRLS on a stack of trials from each one's unweighted least-squares
    fit: the phases of _EPS around the inner reweighted loop, per trial.

    a is (T, m, n), y is (T, m) and s2 (T,) is the squared measurement
    scale of each trial; a trial with s2 = 0 (a zero y) or whose first
    solve fails is not run.  Returns per-trial x (T, n), iterations (T,),
    converged (T,) and phase_starts (T, phases), the trace (steps taken, T),
    whose first iterations[t] rows hold trial t's objectives, and
    {trial: LpdecodeError} for the failures, those of the first solve
    included; a trial that was not run or failed has zero rows.  With
    trace off, as in a sweep, neither the smoothed surrogate objective nor
    the phase starts are recorded at each step, and both are returned as
    None; every other array holds the same bits.  The stack holds only the
    running trials: a trial that finishes or fails leaves it, and its
    result is written back at its own index.  Its rows of a and y leave
    too: the live rows move forward in place, so _irls owns a and y, and
    the caller must not read them afterwards.
    """
    t_count, m, n = a.shape
    ids = np.arange(t_count)  # the caller's index of each row of the stack
    x, errors = _solve(a, np.ones((t_count, m)), y)
    keep = s2 > 0
    keep[list(errors)] = False
    r = y - (a @ x[..., None])[..., 0]
    norm = _norms(x)  # each trial's ||x||, carried from step to step
    phase = np.zeros(t_count, dtype=np.int64)  # each trial's index into _EPS
    start = np.zeros(t_count, dtype=np.int64)  # the step its phase began at
    # A trial is live from the first step until it is done, so its k-th
    # iteration is the stack's k-th step: objectives[k] holds every live
    # trial's k-th objective, and a trial's iteration count is the step it
    # finished at.
    objectives = []
    iterations = np.zeros(t_count, dtype=np.int64)
    phase_starts = np.zeros((t_count, len(_EPS)), dtype=np.int64) if trace else None
    x_out = np.zeros((t_count, n))
    converged = np.zeros(t_count, dtype=bool)
    k = 0
    while keep.any():
        if not keep.all():
            ids, x, r, s2, phase, start, norm = (
                v[keep] for v in (ids, x, r, s2, phase, start, norm)
            )
            rows = np.flatnonzero(keep)
            for dst, src in enumerate(rows):  # dst <= src: no live row is lost
                if dst < src:
                    a[dst], y[dst] = a[src], y[src]
            a, y = a[: len(rows)], y[: len(rows)]
        eps_abs = (_EPS[phase] * s2)[:, None]
        w = (r * r + eps_abs) ** (p / 2 - 1)
        x_new, failed = _solve(a, w, y)
        r_new = y - (a @ x_new[..., None])[..., 0]
        if trace:
            objectives.append(np.empty(t_count))
            objectives[k][ids] = np.sum((r_new * r_new + eps_abs) ** (p / 2), axis=-1)
        k += 1
        norm_new = _norms(x_new)
        denom = np.maximum(norm, norm_new)
        # x_new == x == 0 where denom is 0, so the step reads 0 there
        step = _norms(x_new - x) / np.where(denom > 0, denom, 1.0)
        x, r, norm = x_new, r_new, norm_new

        settled = step <= _TOL[phase]
        phase_over = settled | (k - start >= _MAX_INNER)
        keep = np.ones(len(ids), dtype=bool)
        for t, exc in failed.items():
            errors[int(ids[t])] = exc
            keep[t] = phase_over[t] = False
        if phase_over.any():
            done = phase_over & (phase == len(_EPS) - 1)
            more = phase_over & ~done
            phase[more] += 1
            start[more] = k
            if trace:
                phase_starts[ids[more], phase[more]] = k
            if done.any():
                converged[ids[done & settled]] = True
                x_out[ids[done]] = x[done]
                iterations[ids[done]] = k
                keep &= ~done
    objectives = np.reshape(objectives, (k, t_count)) if trace else None
    return x_out, iterations, converged, phase_starts, objectives, errors


def _scale(a, y):
    """Per-trial powers of two for a stack: (a / 2^ea, y / 2^ey, ea, ey, s2).

    IRLS runs on the scaled trials, whose largest entries lie in [1/2, 1),
    so r*r, eps and the Gram matrix stay in range for any finite input.
    Scaling by a power of two is exact (short of the subnormal range), and
    so is scaling x back.  s2 is each trial's squared measurement scale.
    """
    ea = np.frexp(np.max(np.abs(a), axis=(1, 2)))[1]
    ey = np.frexp(np.max(np.abs(y), axis=1))[1]
    ys = np.ldexp(y, -ey[:, None])
    return np.ldexp(a, -ea[:, None, None]), ys, ea, ey, np.mean(ys * ys, axis=1)


def decode(a: np.ndarray, y: np.ndarray, cfg: DecoderConfig) -> DecodeResult:
    """Decode y against A by one IRLS run from the unweighted least-squares fit."""
    a = _require_matrix(a)
    y = _require_finite("y", y, a.shape[:1])
    _require_type("cfg", cfg, DecoderConfig)
    (run,) = _decode_stack(a[None], y[None], cfg.p)
    if isinstance(run, LpdecodeError):
        raise run
    return run


def _decode_stack(a, y, p, trace=True):
    """Decode a stack of finite trials, a (T, m, n) and y (T, m), as one
    batched IRLS run per trial.  Returns, in trial order, one DecodeResult
    per trial (x = 0 for a zero y, else scaled back to the original A and
    y), or the LpdecodeError that trial raised; a trial that fails leaves
    the others' results unchanged.

    With trace off, as in a sweep, IRLS records neither the smoothed
    surrogate objective nor the phase starts at each step, and each result
    carries an empty ``objective_trace`` and ``phase_starts``; its
    ``x_hat``, ``objective``, ``iterations`` and ``converged`` are those of
    a traced run, bit for bit.
    """
    t_count, _, n = a.shape
    as_, ys, ea, ey, s2 = _scale(a, y)
    xs, iterations, converged, phase_starts, objectives, errors = _irls(
        as_, ys, p, s2, trace
    )
    out = []
    # an x past the float range scales back to inf, and its objective to
    # inf or NaN, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.ldexp(xs, (ey - ea)[:, None])
        for t in range(t_count):
            if s2[t] == 0.0:
                out.append(DecodeResult(np.zeros(n), 0.0, [], 0, True, []))
                continue
            error = errors.get(t)
            obj = math.nan if error else lp_objective(y[t] - a[t] @ x[t], p)
            if error or not math.isfinite(obj):
                out.append(error or NumericError("objective became non-finite"))
                continue
            k = int(iterations[t])
            out.append(DecodeResult(
                x_hat=x[t],
                objective=obj,
                objective_trace=(objectives[:k, t] * np.exp2(ey[t] * p)).tolist()
                if trace else [],
                iterations=k,
                converged=bool(converged[t]),
                phase_starts=phase_starts[t].tolist() if trace else [],
            ))
    return out
