"""Acceptance criteria: one test per criterion, one pass/fail line each.

Each test measures its own wallclock and asserts both the substantive
tolerance and the runtime budget.  Budgets are generous on purpose; they
catch algorithmic regressions (quadratic blowups, lost vectorization), not
machine jitter.
"""

import itertools
import math
import time

import numpy as np

from lpdecode import (
    ConditionQuery,
    CurveRequest,
    DecoderConfig,
    ErrorSpec,
    SeedSpec,
    SweepPlan,
    attack_arbitrary,
    attack_fixed_sign,
    concentration_study,
    curve,
    decode,
    gaussian_matrix,
    lp_objective,
    make_instance,
    rho_star,
    run_sweep,
    search_violation,
    signed_margin,
    unsigned_margin,
)
from lpdecode.cli import _concentration_csv, _curve_csv, _phase_csv

from certify_oracle import support_margin
from quadrature_oracle import mc_threshold_oracle


def _report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_golden_threshold():
    t0 = time.perf_counter()
    val = rho_star(1.0)
    dt = time.perf_counter() - t0
    ok = 0.238 <= val <= 0.240 and dt < 1.0
    _report(
        ok,
        "criterion 1 (golden threshold)",
        f"rho_star(1)={val:.6f} in [0.238, 0.240], {dt:.2f}s < 1s",
    )


def test_criterion_02_small_p_limit():
    t0 = time.perf_counter()
    val = rho_star(0.001)
    dt = time.perf_counter() - t0
    ok = 0.49 < val < 0.5 and dt < 1.0
    _report(
        ok,
        "criterion 2 (limit toward 1/2)",
        f"rho_star(0.001)={val:.6f} in (0.49, 0.5), {dt:.2f}s < 1s",
    )


def test_criterion_03_monotone_curve_and_derivative():
    t0 = time.perf_counter()
    pts = curve(CurveRequest(p_min=0.05, p_max=1.0, steps=20, with_derivative=True))
    rhos = [pt.rho_star for pt in pts]
    decreasing = all(a > b for a, b in zip(rhos, rhos[1:]))
    negative = all(pt.drho_dp < 0 for pt in pts)
    # Central differences where the stencil fits inside (0, 1]; at the
    # boundary p=1 fall back to a second-order backward stencil, same O(h^2).
    h = 1e-4

    def _fd(p: float) -> float:
        if p + h <= 1.0:
            return (rho_star(p + h) - rho_star(p - h)) / (2 * h)
        return (3 * rho_star(p) - 4 * rho_star(p - h) + rho_star(p - 2 * h)) / (2 * h)

    fd_err = max(abs(pt.drho_dp - _fd(pt.p)) for pt in pts)
    dt = time.perf_counter() - t0
    ok = decreasing and negative and fd_err <= 1e-3 and dt < 5.0
    _report(
        ok,
        "criterion 3 (monotonicity)",
        f"20-point curve strictly decreasing={decreasing}, all drho_dp<0="
        f"{negative}, max FD error={fd_err:.2e} <= 1e-3, {dt:.2f}s < 5s",
    )


def test_criterion_04_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for i, p in enumerate((0.25, 0.5, 0.75, 1.0)):
        diff = abs(rho_star(p) - mc_threshold_oracle(p, 1_000_000, seed=1000 + i))
        worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst <= 0.005 and dt < 30.0
    _report(
        ok,
        "criterion 4 (order-statistics oracle)",
        f"max |rho_star - oracle| = {worst:.2e} <= 0.005 over p in "
        f"{{0.25, 0.5, 0.75, 1.0}} at m=1e6, {dt:.2f}s < 30s",
    )


def test_criterion_05_noiseless_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    recovered = 0
    trials = 100
    for p in (0.3, 0.7, 1.0):
        for t in range(trials):
            inst = make_instance(100, 10, ErrorSpec(rho=0.0), SeedSpec(50_000 + t, 0))
            res = decode(inst.a, inst.y, DecoderConfig(p=p))
            err = float(np.max(np.abs(res.x_hat - inst.f)))
            worst = max(worst, err)
            recovered += err <= 1e-6
    dt = time.perf_counter() - t0
    ok = recovered == 3 * trials and dt < 10.0
    _report(
        ok,
        "criterion 5 (noiseless exactness)",
        f"{recovered}/{3 * trials} recoveries at rho=0 with error <= 1e-6 "
        f"(worst {worst:.2e}), p in {{0.3, 0.7, 1.0}}, {dt:.2f}s < 10s",
    )


def test_criterion_06_below_threshold_recovery():
    t0 = time.perf_counter()
    plan = SweepPlan(
        m=200,
        n=20,
        p_values=(0.5,),
        rho_values=(0.2,),
        trials=100,
        error_regime="arbitrary",
        master_seed=60_606,
    )
    (cell,) = run_sweep(plan)
    dt = time.perf_counter() - t0
    ok = cell.success_rate >= 0.90 and dt < 60.0
    _report(
        ok,
        "criterion 6 (below-threshold recovery)",
        f"success rate {cell.successes}/100 = {cell.success_rate:.2f} >= 0.90 "
        f"at p=0.5, rho=0.2, m=200, n=20, {dt:.2f}s < 60s",
    )


def test_criterion_07_above_threshold_attack():
    t0 = time.perf_counter()
    p = 0.5
    rho = rho_star(p) + 0.10
    wins = 0
    for t in range(100):
        a = gaussian_matrix(400, 20, SeedSpec(70_000 + t, 0))
        g = SeedSpec(70_000 + t, 1).generator()
        f = g.standard_normal(20)
        z = g.standard_normal(20)
        e, x_alt = attack_arbitrary(a, f, p, rho, z)
        y = a @ f + e
        wins += lp_objective(y - a @ x_alt, p) <= lp_objective(y - a @ f, p)
    dt = time.perf_counter() - t0
    ok = wins >= 95 and dt < 30.0
    _report(
        ok,
        "criterion 7 (above-threshold attack)",
        f"objective(x_alt) <= objective(f) in {wins}/100 >= 95 trials at "
        f"rho=rho_star(0.5)+0.10={rho:.3f}, {dt:.2f}s < 30s",
    )


def test_criterion_08_fixed_sign_crossover():
    t0 = time.perf_counter()
    m = 100_000
    ratio_ok = True
    details = []
    for rho in (0.5, 0.6, 0.75):
        rep = concentration_study(rho, 0.5, m, trials=20, seed=80_000 + int(rho * 100))
        ratio_ok &= abs(rep.ratio_Tminus - rho / 2) <= 0.01
        ratio_ok &= abs(rep.ratio_Tc - (1 - rho)) <= 0.01
        details.append(f"rho={rho}: {rep.ratio_Tminus:.4f}/{rep.ratio_Tc:.4f}")
    pos = sum(
        concentration_study(0.6, 0.5, m, trials=1, seed=81_000 + t).margin_sign
        == "positive"
        for t in range(20)
    )
    neg = sum(
        concentration_study(0.75, 0.5, m, trials=1, seed=82_000 + t).margin_sign
        == "negative"
        for t in range(20)
    )
    dt = time.perf_counter() - t0
    ok = ratio_ok and pos >= 19 and neg >= 19 and dt < 30.0
    _report(
        ok,
        "criterion 8 (crossover at 2/3)",
        f"ratios within 0.01 of rho/2 and 1-rho ({'; '.join(details)}); "
        f"sign positive {pos}/20 at rho=0.6, negative {neg}/20 at rho=0.75, "
        f"{dt:.2f}s < 30s",
    )


def test_criterion_09_fixed_sign_attack_inequality():
    t0 = time.perf_counter()
    constructed = 0
    satisfied = 0
    case = 0
    for m, n in ((40, 3), (60, 5)):
        for p in (0.3, 0.5, 0.7):
            for rho in (0.75, 0.85):
                case += 1
                gen = SeedSpec(90_000 + case, 0).generator()
                a = gen.standard_normal((m, n))
                f = gen.standard_normal(n)
                k = int(math.floor(rho * m + 1e-9))
                support = np.sort(gen.choice(m, size=k, replace=False))
                signs = {
                    int(i): int(s)
                    for i, s in zip(support, 2 * gen.integers(0, 2, k) - 1)
                }
                q = ConditionQuery(
                    a=a, p=p, mode="signed", support=support, signs=signs
                )
                rep = search_violation(q, restarts=3, seed=SeedSpec(90_000 + case, 1))
                if not rep.violated:
                    continue
                constructed += 1
                z = rep.witness
                delta = -signed_margin(a, p, support, signs, z)
                e, _ = attack_fixed_sign(a, f, p, support, signs, z)
                lhs = lp_objective(e + a @ z, p)
                rhs = lp_objective(e, p) - delta / 2
                satisfied += lhs <= rhs
    dt = time.perf_counter() - t0
    ok = constructed >= 12 and satisfied == constructed and dt < 10.0
    _report(
        ok,
        "criterion 9 (fixed-sign attack inequality)",
        f"|e + Az|_p^p <= |e|_p^p - delta/2 in {satisfied}/{constructed} "
        f"constructed cases (of {case} searched), {dt:.2f}s < 10s",
    )


def test_criterion_10_property_suite():
    t0 = time.perf_counter()

    # homogeneity of both margins: degree p in the direction
    a = gaussian_matrix(30, 4, SeedSpec(10_100, 0))
    z = SeedSpec(10_101, 0).generator().standard_normal(4)
    support = np.array([1, 4, 9, 16])
    signs = {1: 1, 4: -1, 9: 1, 16: -1}
    homogeneous = True
    for p in (0.3, 0.5, 1.0):
        u = unsigned_margin(a, p, 0.3, z)
        s = signed_margin(a, p, support, signs, z)
        for c in (0.5, 2.0, 10.0):
            homogeneous &= bool(
                np.isclose(unsigned_margin(a, p, 0.3, c * z), c**p * u, rtol=1e-10)
            )
            homogeneous &= bool(
                np.isclose(
                    signed_margin(a, p, support, signs, c * z), c**p * s, rtol=1e-10
                )
            )

    # IRLS descent: the smoothed objective never rises within an eps phase
    inst = make_instance(100, 10, ErrorSpec(rho=0.2), SeedSpec(10_102, 0))
    res = decode(inst.a, inst.y, DecoderConfig(p=0.5))
    bounds = res.phase_starts + [len(res.objective_trace)]
    descent = all(
        b <= a_ * (1 + 1e-12) + 1e-12
        for lo, hi in zip(bounds, bounds[1:])
        for a_, b in zip(res.objective_trace[lo:hi], res.objective_trace[lo + 1 : hi])
    )

    # seed determinism: byte-identical CSV artifacts on rerun
    plan = SweepPlan(
        m=40, n=5, p_values=(0.5,), rho_values=(0.1, 0.3), trials=5, master_seed=10_103
    )
    sweep_stable = _phase_csv(run_sweep(plan)) == _phase_csv(run_sweep(plan))
    req = CurveRequest(p_min=0.5, p_max=1.0, steps=3, with_derivative=True)
    curve_stable = _curve_csv(curve(req)) == _curve_csv(curve(req))
    conc_stable = _concentration_csv(
        [concentration_study(0.6, 0.5, 20_000, 2, seed=10_104)]
    ) == _concentration_csv([concentration_study(0.6, 0.5, 20_000, 2, seed=10_104)])

    # worst-support dominance: top-k support minimizes over all size-k sets
    dominance = True
    for m, k in ((10, 3), (12, 4)):
        am = gaussian_matrix(m, 3, SeedSpec(10_105 + m, 0))
        zm = SeedSpec(10_106 + m, 0).generator().standard_normal(3)
        worst = unsigned_margin(am, 0.5, k / m, zm)
        margins = [
            support_margin(am, 0.5, np.array(s), zm)
            for s in itertools.combinations(range(m), k)
        ]
        dominance &= bool(np.isclose(min(margins), worst, rtol=1e-12))
        dominance &= all(mg >= worst - 1e-12 for mg in margins)

    dt = time.perf_counter() - t0
    ok = (
        homogeneous
        and descent
        and sweep_stable
        and curve_stable
        and conc_stable
        and dominance
        and dt < 30.0
    )
    _report(
        ok,
        "criterion 10 (property suite)",
        f"homogeneity={homogeneous}, IRLS phase descent={descent}, "
        f"byte-identical reruns={sweep_stable and curve_stable and conc_stable}, "
        f"exhaustive worst-support dominance={dominance}, {dt:.2f}s < 30s",
    )
