"""Seeded Monte Carlo experiments: phase sweeps and concentration studies.

Every trial owns a named random stream derived from the plan's master seed
and the (p index, rho index, trial index) coordinates, so results do not
depend on execution order or on the number of worker processes.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .certify import attack_arbitrary
from .decoder import _decode_stack, _dposv, lp_objective
from .ensemble import (
    ErrorSpec,
    SeedSpec,
    apply_decoder_success,
    draw_support_signs,
    floor_count,
    make_instance,
    mix64,
)
from .errors import DomainError, LpdecodeError, _require_count, _require_int, _require_p
from .errors import _require_rho, _require_shape, _require_type
from .halfnormal import mu

log = logging.getLogger(__name__)

_REGIMES = ("arbitrary", "fixed_sign", "adversarial")
# A sweep decodes its trials in stacks of at most this many entries of A
# (always at least one trial), so memory does not grow with their number:
# a stack holds its A, one scaled copy that IRLS compacts in place, and one
# weighted copy per step.
_STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class SweepPlan:
    """Grid of (p, rho) cells to run at fixed problem size."""

    m: int
    n: int
    p_values: tuple[float, ...]
    rho_values: tuple[float, ...]
    trials: int
    error_regime: str = "arbitrary"
    master_seed: int = 0

    def __post_init__(self):
        checks = {"p_values": _require_p, "rho_values": lambda r: _require_rho(r, below_one=True)}
        for name, check in checks.items():
            try:
                values = tuple(getattr(self, name))
            except TypeError:
                raise DomainError(f"{name} must be a sequence of numbers") from None
            for v in values:
                check(v)
            object.__setattr__(self, name, tuple(float(v) for v in values))
        _require_shape(self.m, self.n)
        _require_count("trials", self.trials)
        _require_int("master_seed", self.master_seed)
        if not self.p_values or not self.rho_values:
            raise DomainError("p and rho grids must be non-empty")
        if self.error_regime not in _REGIMES:
            raise DomainError(f"unknown error_regime {self.error_regime!r}")


@dataclass(eq=False)
class PhaseCell:
    """Aggregate decode outcomes for one (p, rho) grid point.

    ``errors`` counts the trials whose build or decode raised an
    LpdecodeError; they count as neither successes nor gaps.  A sweep
    decodes the trials of several cells in one stack, so ``wallclock_ms``
    is the cell's share of its stacks' wall time, split by trial count.
    """

    p: float
    rho: float
    m: int
    n: int
    trials: int
    successes: int
    mean_objective_gap: float
    wallclock_ms: int
    errors: int = 0

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials


@dataclass(eq=False)
class ConcentrationReport:
    """Empirical split of sum |x_i|^p mass for half-normal samples.

    ``ratio_Tminus`` is the mass on the sign-opposing half of the error
    support and ``ratio_Tc`` the off-support mass, both relative to the
    full-vector expectation m * E|X|^p.  Their difference changes sign at
    rho = 2/3.
    """

    rho: float
    p: float
    m: int
    trials: int
    ratio_Tminus: float
    ratio_Tc: float
    margin_sign: str
    positive_trials: int
    negative_trials: int


def trial_seeds(plan: SweepPlan, p_index: int, rho_index: int, trial: int):
    """(instance, auxiliary) streams for one trial; frozen layout."""
    return (
        SeedSpec(plan.master_seed, mix64(p_index, rho_index, trial)),
        SeedSpec(plan.master_seed, mix64(p_index, rho_index, trial, 1)),
    )


def _build_trial(plan: SweepPlan, p: float, rho: float, inst_seed, aux_seed):
    """(A, y, f, e) of one trial, with floor(rho m) errors in every regime.

    ``adversarial`` errors are e = A z on the floor(rho m) largest entries
    of |A z| for a random direction z: a planted decoy, not a searched
    worst case.
    """
    m, n = plan.m, plan.n
    k = floor_count(rho, m)
    if plan.error_regime == "adversarial" and k > 0:
        base = make_instance(m, n, ErrorSpec(rho=0.0), inst_seed)
        z = aux_seed.generator().standard_normal(n)
        e, _ = attack_arbitrary(base.a, base.f, p, rho, z)
        return base.a, base.a @ base.f + e, base.f, e
    spec = ErrorSpec(rho=rho)
    if plan.error_regime == "fixed_sign" and k > 0:
        spec = ErrorSpec(rho=rho, fixed_signs=draw_support_signs(m, rho, aux_seed)[1])
    inst = make_instance(m, n, spec, inst_seed)
    return inst.a, inst.y, inst.f, inst.e


def _stacks(plan: SweepPlan) -> list[tuple[int, int, int]]:
    """(p index, start, stop) of each stack a sweep decodes, in grid order.

    The trials at one p, rho-major and in trial order, are split into the
    fewest balanced blocks of at most _STACK_ENTRIES entries of A (at least
    one trial each), so a sweep's memory does not grow with the number of
    trials; a stack never mixes p values, so p stays one scalar.
    """
    count = len(plan.rho_values) * plan.trials
    blocks = -(-count // max(1, _STACK_ENTRIES // (plan.m * plan.n)))
    return [
        (pi, count * b // blocks, count * (b + 1) // blocks)
        for pi in range(len(plan.p_values))
        for b in range(blocks)
    ]


def _run_stack(plan: SweepPlan, p_index: int, start: int, stop: int):
    """Build and decode trials start..stop at one p as one stack.

    Each trial's A and y go into the stack's arrays once it is built, and
    only its f and e are kept, so the stack's A is the only unscaled copy.

    Returns (outcomes, seconds): per trial, in order, the LpdecodeError it
    raised or (recovered, objective gap), and the stack's wall time.
    """
    t0 = time.perf_counter()
    p = plan.p_values[p_index]
    a = np.empty((stop - start, plan.m, plan.n))
    y = np.empty((stop - start, plan.m))
    outcomes, truths = {}, {}  # truths: (f, e) of each trial built
    for k in range(start, stop):
        rho_index, trial = divmod(k, plan.trials)
        inst_seed, aux_seed = trial_seeds(plan, p_index, rho_index, trial)
        j, rho = len(truths), plan.rho_values[rho_index]
        try:
            a[j], y[j], *truths[k] = _build_trial(plan, p, rho, inst_seed, aux_seed)
        except LpdecodeError as exc:
            outcomes[k] = exc
    if truths:
        decoded = _decode_stack(a[: len(truths)], y[: len(truths)], p)
        for (k, (f, e)), result in zip(truths.items(), decoded):
            outcomes[k] = result if isinstance(result, LpdecodeError) else (
                apply_decoder_success(result.x_hat, f),
                result.objective - lp_objective(e, p),
            )
    return [outcomes[k] for k in range(start, stop)], time.perf_counter() - t0


def _cell(plan: SweepPlan, p: float, rho: float, outcomes) -> PhaseCell:
    """Score one cell from its (outcome, seconds) per trial, in trial order."""
    successes, errors, gaps, seconds = 0, 0, [], 0.0
    for trial, (outcome, trial_s) in enumerate(outcomes):
        seconds += trial_s
        if isinstance(outcome, LpdecodeError):
            log.warning("solver error at p=%g rho=%g trial=%d: %s", p, rho, trial, outcome)
            errors += 1
            continue
        recovered, gap = outcome
        successes += recovered
        gaps.append(gap)
    return PhaseCell(
        p=p,
        rho=rho,
        m=plan.m,
        n=plan.n,
        trials=plan.trials,
        successes=successes,
        mean_objective_gap=float(np.mean(gaps)) if gaps else float("nan"),
        wallclock_ms=int(round(seconds * 1000)),
        errors=errors,
    )


def run_sweep(plan: SweepPlan, jobs: int = 1) -> list[PhaseCell]:
    """Run every (p, rho) cell, in grid order; results are identical for
    any ``jobs`` >= 1, which run the stacks of ``_stacks`` across processes
    (never more processes than stacks)."""
    _require_type("plan", plan, SweepPlan)
    _require_count("jobs", jobs)
    stacks = _stacks(plan)
    workers = min(jobs, len(stacks))
    if workers == 1:
        runs = [_run_stack(plan, *s) for s in stacks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        _dposv()  # loads LAPACK once, here, for the forked workers to inherit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_stack, [plan] * len(stacks), *zip(*stacks)))
    # The stacks cover the grid in order, so trial k of the flat list is
    # trial k % trials of cell k // trials; each trial is charged an equal
    # share of its stack's time.
    flat = [(outcome, seconds / len(outs)) for outs, seconds in runs for outcome in outs]
    grid = [(p, rho) for p in plan.p_values for rho in plan.rho_values]
    t = plan.trials
    return [_cell(plan, p, rho, flat[c * t : (c + 1) * t]) for c, (p, rho) in enumerate(grid)]


def concentration_study(
    rho: float, p: float, m: int, trials: int, seed: int
) -> ConcentrationReport:
    """Sample the mass split behind the fixed-sign 2/3 threshold.

    Each trial draws x ~ N(0, I_m) standing in for A z on a random direction,
    fixes the error support as the first floor(rho m) coordinates, draws its
    signs, and accumulates sum |x_i|^p over the sign-opposing head T- and
    over the tail T^c, normalized by m * E|X|^p.  As m grows these settle at
    rho / 2 and 1 - rho.  The margin's sign is that of T^c minus T-, so it
    turns at rho = 2/3 for p < 1; at p = 1 the sign-agreeing head counts
    for recovery too, the margin is about 1 - rho and stays positive.
    """
    _require_count("m", m, least=10_000)
    _require_count("trials", trials)
    _require_rho(rho, below_one=True)
    _require_p(p)

    gen = SeedSpec(seed, 0).generator()
    k = floor_count(rho, m)
    mass_scale = m * mu(p)
    minus_ratios = []
    tc_ratios = []
    diffs = []
    for _ in range(trials):
        x = gen.standard_normal(m)
        signs = 2.0 * gen.integers(0, 2, size=k) - 1.0
        head = x[:k]
        head_pw = np.abs(head) ** p
        opposing = head * signs < 0
        s_minus = float(np.sum(head_pw[opposing]))
        s_tc = float(np.sum(np.abs(x[k:]) ** p))
        minus_ratios.append(s_minus / mass_scale)
        tc_ratios.append(s_tc / mass_scale)
        diff = s_tc - s_minus
        if p == 1:  # the sign-agreeing head counts too, as in certify._coefficients
            diff += float(np.sum(head_pw[~opposing]))
        diffs.append(diff)

    diffs = np.array(diffs)
    mean_diff = float(np.mean(diffs))
    if trials >= 2:
        stderr = float(np.std(diffs, ddof=1)) / math.sqrt(trials)
        indeterminate = abs(mean_diff) <= 2 * stderr
    else:
        indeterminate = mean_diff == 0.0
    if indeterminate:
        sign = "indeterminate"
    else:
        sign = "positive" if mean_diff > 0 else "negative"
    return ConcentrationReport(
        rho=rho,
        p=p,
        m=m,
        trials=trials,
        ratio_Tminus=float(np.mean(minus_ratios)),
        ratio_Tc=float(np.mean(tc_ratios)),
        margin_sign=sign,
        positive_trials=int(np.sum(diffs > 0)),
        negative_trials=int(np.sum(diffs < 0)),
    )
