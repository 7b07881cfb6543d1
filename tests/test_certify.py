"""Null-space margins, violation search, and adversarial constructions."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpdecode import (
    ConditionQuery,
    DomainError,
    NumericError,
    SeedSpec,
    attack_arbitrary,
    attack_fixed_sign,
    brute_force_min_margin,
    gaussian_matrix,
    lp_objective,
    search_violation,
    signed_margin,
    unsigned_margin,
)
from lpdecode import certify
from lpdecode.certify import _coefficients
from lpdecode.cli import main
from lpdecode.ensemble import draw_support_signs

from certify_oracle import l1_decode, support_margin


def test_unsigned_margin_worked_example():
    # |Az| = (3, 1, 1, 1), p = 1, rho = 0.5: T = {0, 1}, margin = 2 - 4
    a = np.array([[3.0], [1.0], [1.0], [1.0]])
    assert unsigned_margin(a, 1.0, 0.5, np.array([1.0])) == pytest.approx(-2.0)


def test_unsigned_margin_tie_breaks_to_lower_index():
    a = np.array([[1.0], [1.0], [2.0]])
    z = np.array([1.0])
    # k = 2; T holds index 2 (value 2) and index 0 (first of the tied ones)
    assert unsigned_margin(a, 1.0, 2 / 3, z) == pytest.approx(1.0 - 3.0)
    assert support_margin(a, 1.0, np.array([2, 0]), z) == pytest.approx(
        unsigned_margin(a, 1.0, 2 / 3, z)
    )


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_unsigned_margin_homogeneous_degree_p(c, p):
    a = gaussian_matrix(30, 4, SeedSpec(101, 0))
    z = np.array([0.3, -1.2, 0.7, 0.4])
    base = unsigned_margin(a, p, 0.3, z)
    np.testing.assert_allclose(unsigned_margin(a, p, 0.3, c * z), c**p * base, rtol=1e-10)


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_signed_margin_homogeneous_degree_p(c):
    p = 0.5
    a = gaussian_matrix(30, 4, SeedSpec(102, 0))
    z = np.array([1.0, 0.5, -0.5, 2.0])
    support = np.array([0, 3, 7, 11, 20])
    signs = {0: 1, 3: -1, 7: 1, 11: -1, 20: 1}
    base = signed_margin(a, p, support, signs, z)
    np.testing.assert_allclose(
        signed_margin(a, p, support, signs, c * z), c**p * base, rtol=1e-10
    )


def test_unsigned_margin_positive_below_threshold():
    # p=1, rho=0.1 is far below the p=1 threshold: margins are positive
    hits = 0
    for t in range(100):
        a = gaussian_matrix(400, 20, SeedSpec(200, t))
        z = SeedSpec(201, t).generator().standard_normal(20)
        hits += unsigned_margin(a, 1.0, 0.1, z) > 0
    assert hits >= 99


def test_signed_margin_no_opposition_is_off_support_mass():
    a = gaussian_matrix(12, 2, SeedSpec(103, 0))
    z = np.array([1.0, -0.5])
    v = a @ z
    support = np.array([1, 4, 6])
    signs = {int(i): int(np.sign(v[i])) for i in support}
    expected = sum(abs(v[i]) ** 0.5 for i in range(12) if i not in {1, 4, 6})
    got = signed_margin(a, 0.5, support, signs, z)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got >= 0


def test_signed_margin_handmade_flip():
    # flipping every sign swaps which support entries oppose the direction
    a = np.array(
        [
            [1.0, 0.0],
            [-2.0, 1.0],
            [0.5, -1.0],
            [3.0, 2.0],
            [-1.0, -1.0],
            [2.0, 0.5],
        ]
    )
    z = np.array([1.0, 1.0])
    v = a @ z  # (1, -1, -0.5, 5, -2, 2.5)
    p = 0.5
    support = np.array([0, 1, 2])
    signs = {0: 1, 1: 1, 2: -1}
    # T- = {1} (v1 = -1 against +1); direct sums
    off = abs(v[3]) ** p + abs(v[4]) ** p + abs(v[5]) ** p
    assert signed_margin(a, p, support, signs, z) == pytest.approx(
        off - abs(v[1]) ** p, rel=1e-12
    )
    flipped = {0: -1, 1: -1, 2: 1}
    # now indices 0 and 2 oppose instead
    assert signed_margin(a, p, support, flipped, z) == pytest.approx(
        off - abs(v[0]) ** p - abs(v[2]) ** p, rel=1e-12
    )


def test_signed_margin_positive_below_two_thirds():
    # |T| = 0.6 m with random signs sits below the 2/3 crossover
    hits = 0
    for t in range(100):
        a = gaussian_matrix(200, 10, SeedSpec(300, t))
        g = SeedSpec(301, t).generator()
        support = np.sort(g.choice(200, size=120, replace=False))
        signs = {int(i): int(s) for i, s in zip(support, 2 * g.integers(0, 2, 120) - 1)}
        z = g.standard_normal(10)
        hits += signed_margin(a, 0.5, support, signs, z) > 0
    assert hits >= 95


def test_signed_margin_rejects_incomplete_signs():
    a = gaussian_matrix(10, 2, SeedSpec(104, 0))
    with pytest.raises(DomainError):
        signed_margin(a, 0.5, np.array([1, 2]), {1: 1}, np.ones(2))


# |A z| = (1, 2, 3, 1, 0.5, 0.5) at z = 1: opposing signs on the first four
# rows give a strictly negative signed margin, so only the support checks fail.
_COLUMN = np.array([[1.0], [2.0], [3.0], [1.0], [0.5], [0.5]])


@pytest.mark.parametrize(
    "support",
    [[0, 1, 2, -3], [0, 1, 2, 6], [0, 1, 2, 2]],
    ids=["negative_index", "index_past_end", "duplicate_index"],
)
def test_support_checks_reject_bad_indices(support):
    a, z = _COLUMN, np.array([1.0])
    signs = {i: -1 for i in support}
    with pytest.raises(DomainError):
        signed_margin(a, 0.5, support, signs, z)
    with pytest.raises(DomainError):
        attack_fixed_sign(a, np.zeros(1), 0.5, support, signs, z)


def test_sign_checks_reject_signs_other_than_unit():
    a, z = _COLUMN, np.array([1.0])
    support, signs = [0, 1, 2, 3], {0: -5, 1: -1, 2: -1, 3: -1}
    with pytest.raises(DomainError):
        signed_margin(a, 0.5, support, signs, z)
    with pytest.raises(DomainError):
        attack_fixed_sign(a, np.zeros(1), 0.5, support, signs, z)


def test_margins_reject_zero_direction():
    a = gaussian_matrix(10, 2, SeedSpec(105, 0))
    with pytest.raises(DomainError):
        unsigned_margin(a, 0.5, 0.2, np.zeros(2))


@pytest.mark.parametrize("rho", [math.nan, -0.1, 1.5])
def test_unsigned_paths_reject_bad_rho(rho):
    a, z = np.array([[1.0], [2.0]]), np.array([1.0])
    with pytest.raises(DomainError):
        unsigned_margin(a, 1.0, rho, z)
    with pytest.raises(DomainError):
        attack_arbitrary(a, np.zeros(1), 1.0, rho, z)
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=1.0, mode="unsigned", rho=rho)


def test_condition_query_validation():
    a = gaussian_matrix(10, 2, SeedSpec(106, 0))
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=0.5, mode="unsigned")
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=0.5, mode="other", rho=0.2)
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=1.5, mode="unsigned", rho=0.2)
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=0.5, mode="signed", support=np.array([1]))
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=0.5, mode="signed", support=np.array([15]), signs={15: 1})
    for support in ([1, 1], [3, 1, 3]):
        with pytest.raises(DomainError):
            ConditionQuery(
                a=a, p=0.5, mode="signed", support=np.array(support), signs={1: 1, 3: -1}
            )
    with pytest.raises(DomainError):
        ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.2, z=np.ones(3))


def test_worst_support_dominance_exhaustive():
    # the top-k support minimizes the margin over every size-k support
    m, k = 12, 4
    a = gaussian_matrix(m, 3, SeedSpec(107, 0))
    z = SeedSpec(108, 0).generator().standard_normal(3)
    rho = k / m
    worst = unsigned_margin(a, 0.5, rho, z)
    margins = [
        support_margin(a, 0.5, np.array(s), z)
        for s in itertools.combinations(range(m), k)
    ]
    assert min(margins) == pytest.approx(worst, rel=1e-12)
    assert all(mg >= worst - 1e-12 for mg in margins)


def test_search_finds_violation_above_threshold():
    hits = 0
    for t in range(6):
        a = gaussian_matrix(400, 20, SeedSpec(400, t))
        q = ConditionQuery(a=a, p=1.0, mode="unsigned", rho=0.65)
        rep = search_violation(q, restarts=2, seed=SeedSpec(401, t))
        hits += rep.violated
    assert hits == 6


def test_search_finds_no_violation_far_below_threshold():
    hits = 0
    for t in range(6):
        a = gaussian_matrix(400, 20, SeedSpec(500, t))
        q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.05)
        rep = search_violation(q, restarts=2, seed=SeedSpec(501, t))
        hits += not rep.violated
    assert hits == 6


def test_search_witness_reproduces_margin():
    a = gaussian_matrix(50, 5, SeedSpec(109, 0))
    q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.4)
    rep = search_violation(q, restarts=3, seed=SeedSpec(110, 0))
    assert np.linalg.norm(rep.witness) == pytest.approx(1.0, abs=1e-12)
    recomputed = unsigned_margin(a, 0.5, 0.4, rep.witness)
    assert abs(recomputed - rep.min_margin) <= 1e-10


def test_search_uses_directional_hint():
    # handmade column: z = 1 is the violating direction, and the hint is kept
    a = np.array([[1.0], [2.0], [3.0], [1.0], [0.5], [0.5]])
    q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.5, z=np.array([1.0]))
    rep = search_violation(q, restarts=1, seed=SeedSpec(0, 0))
    assert rep.violated
    assert abs(rep.min_margin - unsigned_margin(a, 0.5, 0.5, np.array([1.0]))) <= 1e-10


def test_search_agrees_with_brute_force_n2():
    a = gaussian_matrix(8, 2, SeedSpec(111, 0))
    q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.5)
    brute, _ = brute_force_min_margin(q, resolution=0.005)
    rep = search_violation(q, restarts=6, seed=SeedSpec(112, 0))
    # descent refines past the coarse grid but cannot beat it by much
    assert rep.min_margin <= brute + 1e-9
    assert abs(rep.min_margin - brute) <= 0.05 * max(1.0, abs(brute))


def test_brute_force_signed_mode_n1():
    a = np.array([[1.0], [2.0], [3.0], [1.0], [0.5], [0.5]])
    support = np.array([0, 1, 2, 3])
    signs = {0: -1, 1: -1, 2: -1, 3: -1}
    q = ConditionQuery(a=a, p=0.5, mode="signed", support=support, signs=signs)
    brute, bz = brute_force_min_margin(q)
    # z = +1 makes every support entry oppose its sign
    expected = (2 * 0.5**0.5) - (1 + 2**0.5 + 3**0.5 + 1)
    assert brute == pytest.approx(expected, rel=1e-12)
    assert bz[0] == 1.0


def _grid_loop(n, resolution):
    """The oracle's sphere grid, one point at a time (theta-major for n = 3)."""
    if n == 2:
        return [np.array([math.cos(t), math.sin(t)])
                for t in np.arange(0.0, 2 * math.pi, resolution)]
    return [
        np.array([math.sin(t) * math.cos(f), math.sin(t) * math.sin(f), math.cos(t)])
        for t in np.arange(0.0, math.pi + resolution / 2, resolution)
        for f in np.arange(0.0, 2 * math.pi, resolution)
    ]


@pytest.mark.parametrize("mode", ["unsigned", "signed"])
@pytest.mark.parametrize("n", [2, 3])
def test_brute_force_matches_per_point_margins(n, mode):
    m, p, resolution = 24, 0.5, 0.05
    a = gaussian_matrix(m, n, SeedSpec(117, n))
    if mode == "unsigned":
        q = ConditionQuery(a=a, p=p, mode="unsigned", rho=0.3)
    else:
        gen = SeedSpec(118, n).generator()
        support = np.sort(gen.choice(m, size=16, replace=False))
        signs = {int(i): int(s) for i, s in zip(support, 2 * gen.integers(0, 2, 16) - 1)}
        q = ConditionQuery(a=a, p=p, mode="signed", support=support, signs=signs)
    grid = _grid_loop(n, resolution)
    margins = [
        unsigned_margin(a, p, q.rho, z) if mode == "unsigned"
        else signed_margin(a, p, q.support, q.signs, z)
        for z in grid
    ]
    best = int(np.argmin(margins))
    brute, bz = brute_force_min_margin(q, resolution=resolution)
    assert abs(brute - margins[best]) <= 1e-12
    assert np.array_equal(bz, grid[best])


def test_brute_force_rejects_large_n():
    a = gaussian_matrix(10, 4, SeedSpec(113, 0))
    with pytest.raises(DomainError):
        brute_force_min_margin(ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.2))


def test_unsigned_mode_counts_floor_rho_m_errors():
    # rho m = 6.3 on a 30 x 3 matrix: T, and so the attack's errors, hold 6
    a = gaussian_matrix(30, 3, SeedSpec(100, 0))
    q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.21)
    assert q._k == 6
    e, _ = attack_arbitrary(a, np.zeros(3), 0.5, 0.21, np.array([1.0, -2.0, 0.5]))
    assert np.count_nonzero(e) == 6


def test_attack_arbitrary_identity_and_success():
    a = gaussian_matrix(400, 20, SeedSpec(114, 0))
    g = SeedSpec(115, 0).generator()
    f = g.standard_normal(20)
    z = g.standard_normal(20)
    p, rho = 0.5, 0.45
    e, x_alt = attack_arbitrary(a, f, p, rho, z)
    np.testing.assert_array_equal(x_alt, f + z)

    v = a @ z
    t = np.flatnonzero(e)
    assert t.size == math.floor(rho * 400 + 1e-9)
    # e equals Az on its support, so e - Az vanishes there exactly
    off = np.setdiff1d(np.arange(400), t)
    residual_alt = e - v
    assert np.all(residual_alt[t] == 0)
    # identical terms; only the pairwise-summation grouping differs
    assert lp_objective(residual_alt, p) == pytest.approx(
        lp_objective(v[off], p), rel=1e-13
    )

    y = a @ f + e
    # recomputing through y picks up ~1e-13 rounding per support entry, and
    # |r|^p with p = 1/2 amplifies that to ~1e-7 per entry
    assert lp_objective(y - a @ x_alt, p) == pytest.approx(
        lp_objective(v[off], p), rel=1e-6
    )
    # above threshold the alternative wins
    assert lp_objective(y - a @ x_alt, p) <= lp_objective(y - a @ f, p)


def test_attack_arbitrary_fails_below_threshold():
    hits = 0
    p, rho = 0.5, 0.05
    for t in range(40):
        a = gaussian_matrix(200, 10, SeedSpec(600, t))
        g = SeedSpec(601, t).generator()
        f = g.standard_normal(10)
        z = g.standard_normal(10)
        e, x_alt = attack_arbitrary(a, f, p, rho, z)
        y = a @ f + e
        hits += lp_objective(y - a @ x_alt, p) > lp_objective(y - a @ f, p)
    assert hits >= 38


def test_attack_fixed_sign_handmade():
    a = np.array([[1.0], [2.0], [3.0], [1.0], [0.5], [0.5]])
    support = np.array([0, 1, 2, 3])
    signs = {0: -1, 1: -1, 2: -1, 3: -1}
    z = np.array([1.0])
    p = 0.5
    margin = signed_margin(a, p, support, signs, z)
    assert margin < 0
    delta = -margin

    e, x_alt = attack_fixed_sign(a, np.array([4.0]), p, support, signs, z)
    v = a @ z
    # support entries all oppose, so e = -Az there and e + Az vanishes on T-
    np.testing.assert_array_equal((e + v)[support], np.zeros(4))
    np.testing.assert_array_equal(x_alt, np.array([3.0]))
    # sign pattern honored and off-support entries clean
    for i in support:
        assert np.sign(e[i]) == signs[int(i)]
    assert np.all(e[4:] == 0)
    assert lp_objective(e + v, p) <= lp_objective(e, p) - delta / 2


def test_attack_fixed_sign_with_head_entries():
    # mixed signs force a large-magnitude head on the agreeing entries
    gen = SeedSpec(118, 0).generator()
    a = gen.standard_normal((60, 3))
    f = gen.standard_normal(3)
    support = np.arange(48)
    sgn = 2 * gen.integers(0, 2, 48) - 1
    signs = {int(i): int(s) for i, s in zip(support, sgn)}
    q = ConditionQuery(a=a, p=0.5, mode="signed", support=support, signs=signs)
    rep = search_violation(q, restarts=4, seed=SeedSpec(119, 0))
    assert rep.violated
    z = rep.witness
    delta = -signed_margin(a, 0.5, support, signs, z)

    e, x_alt = attack_fixed_sign(a, f, 0.5, support, signs, z)
    np.testing.assert_array_equal(x_alt, f - z)
    for i in support:
        if e[i] != 0:
            assert np.sign(e[i]) == signs[int(i)]
    assert lp_objective(e + a @ z, 0.5) <= lp_objective(e, 0.5) - delta / 2


def test_attack_fixed_sign_head_gap_shrinks_with_scale():
    # the escalated head's objective gap decays monotonically in its magnitude
    head = np.array([0.7, 1.3, 2.1])
    p = 0.5
    gaps = [
        float(np.sum((m0 + head) ** p - m0**p)) for m0 in (10.0, 100.0, 1000.0, 10000.0)
    ]
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))


def test_attack_fixed_sign_preconditions():
    a = np.array([[1.0], [2.0], [3.0], [1.0], [0.5], [0.5]])
    support = np.array([0, 1, 2, 3])
    agreeing = {0: 1, 1: 1, 2: 1, 3: 1}
    # T- = {0, 3} (|A z| mass 2), T+ = {1, 2} (mass 5), off the support 1
    mixed = {0: -1, 1: 1, 2: 1, 3: -1}
    z = np.array([1.0])
    # non-negative margin is refused
    with pytest.raises(DomainError):
        attack_fixed_sign(a, np.zeros(1), 0.5, support, agreeing, z)
    # at p = 1, T+ counts for recovery: margin 1 + 5 - 2 = 4, refused ...
    assert signed_margin(a, 1.0, support, mixed, z) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        attack_fixed_sign(a, np.zeros(1), 1.0, support, mixed, z)
    # ... while at p = 0.5 it does not, the margin is 2^0.5 - 2 and the attack works
    assert signed_margin(a, 0.5, support, mixed, z) == pytest.approx(2**0.5 - 2)
    attack_fixed_sign(a, np.zeros(1), 0.5, support, mixed, z)


def test_signed_condition_at_p1_holds_where_l1_decoding_recovers():
    # the inputs of `certify --mode signed --p 1 --m 200 --n 10 --rho 0.7
    # --restarts 8 --seed 1`, which reported min_margin -43.19 while T+ was
    # not counted
    a = gaussian_matrix(200, 10, SeedSpec(1, 0))
    support, signs = draw_support_signs(200, 0.7, SeedSpec(1, 1))
    q = ConditionQuery(a=a, p=1.0, mode="signed", support=support, signs=signs)
    rep = search_violation(q, restarts=8, seed=SeedSpec(1, 2))
    assert not rep.violated and rep.min_margin > 0
    # and l1 decoding recovers f under errors of that support and those signs
    gen = SeedSpec(140, 0).generator()
    f = gen.standard_normal(10)
    sgn = np.array([signs[int(i)] for i in support])
    for scale in (1.0, 10.0, 1e3):
        e = np.zeros(200)
        e[support] = sgn * scale * np.abs(gen.standard_normal(support.size))
        np.testing.assert_allclose(l1_decode(a, a @ f + e), f, rtol=0, atol=1e-9)


def test_signed_violation_at_p1_defeats_l1_decoding():
    # the inputs of `attack --mode fixed_sign --m 60 --n 4 --p 1 --rho 0.8 --seed 5`
    a = gaussian_matrix(60, 4, SeedSpec(5, 0))
    f = SeedSpec(5, 1).generator().standard_normal(4)
    support, signs = draw_support_signs(60, 0.8, SeedSpec(5, 3))
    q = ConditionQuery(a=a, p=1.0, mode="signed", support=support, signs=signs)
    rep = search_violation(q, restarts=8, seed=SeedSpec(5, 2))
    assert rep.violated
    e, x_alt = attack_fixed_sign(a, f, 1.0, support, signs, rep.witness)
    # every support entry carries its sign, and nothing lies off the support
    assert all(np.sign(e[i]) == signs[int(i)] for i in support)
    assert not np.any(np.delete(e, support))
    y = a @ f + e
    gap = lp_objective(y - a @ f, 1.0) - lp_objective(y - a @ x_alt, 1.0)
    assert gap == pytest.approx(-rep.min_margin, rel=1e-9)
    # the l1 decoder finds something at least as good as x_alt, so not f
    x_hat = l1_decode(a, y)
    assert lp_objective(y - a @ x_hat, 1.0) <= lp_objective(y - a @ x_alt, 1.0) + 1e-9
    assert np.max(np.abs(x_hat - f)) > 0.1


def test_report_json_contents(capsys):
    # certify's report is the search's result with the query's context
    argv = ["certify", "--m", "20", "--n", "3", "--p", "0.5", "--seed", "120"]
    assert main(argv + ["--mode", "unsigned", "--rho", "0.4", "--restarts", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "min_margin",
        "violated",
        "witness",
        "restarts_used",
        "mode",
        "p",
        "rho",
    }
    assert payload["mode"] == "unsigned"
    assert payload["rho"] == 0.4
    assert payload["p"] == 0.5
    assert payload["restarts_used"] == 2
    q = ConditionQuery(a=gaussian_matrix(20, 3, SeedSpec(120, 0)), p=0.5, mode="unsigned", rho=0.4)
    rep = search_violation(q, restarts=2, seed=SeedSpec(120, 2))
    assert payload["min_margin"] == rep.min_margin
    assert payload["witness"] == rep.witness.tolist()
    assert payload["violated"] == rep.violated

    # a signed report's rho is its support's share of m: floor(0.16 * 20) = 3
    assert main(argv + ["--mode", "signed", "--rho", "0.16", "--restarts", "1"]) == 0
    payload2 = json.loads(capsys.readouterr().out)
    assert payload2["rho"] == pytest.approx(3 / 20)
    assert payload2["mode"] == "signed"


def _stable_coefficients(v, k):
    """Unsigned coefficients with T from a stable argsort, ties to the lower index."""
    coef = np.ones(v.shape)
    np.put_along_axis(coef, np.argsort(-np.abs(v), axis=-1, kind="stable")[..., :k], -1.0, axis=-1)
    return coef


def _reference_margin_and_subgrad(q, z):
    v = q.a @ z
    absv = np.abs(v)
    pw = absv**q.p
    floor = 1e-8 * (absv.max() + 1e-300)
    dfac = q.p * np.maximum(absv, floor) ** (q.p - 1.0) * np.sign(v)
    if q.mode == "unsigned":
        coef = _stable_coefficients(v, math.floor(q.rho * q.a.shape[0] + 1e-9))
    else:
        sgn = np.zeros(q.a.shape[0])
        sgn[q.support] = [q.signs[int(i)] for i in q.support]
        # the agreeing support entries count for recovery at p = 1 only
        coef = np.where(sgn == 0, 1.0, np.where(v * sgn < 0, -1.0, float(q.p == 1)))
    return float(np.dot(coef, pw)), q.a.T @ (coef * dfac)


def _reference_search(q, restarts, seed):
    """The violation search one restart and one step at a time, with T from a
    stable argsort: the loop the stacked search must match bit for bit.

    Yields (best margin, witness) after each restart, which is the result of
    a search with that many restarts, since restart r's start does not depend
    on how many follow."""
    gen = seed.generator()
    n = q.a.shape[1]
    best_margin, best_z = math.inf, None
    for r in range(restarts):
        if r == 0 and q.z is not None and np.any(q.z):
            z = q.z / np.linalg.norm(q.z)
        else:
            z = gen.standard_normal(n)
            z /= np.linalg.norm(z)
        for t in range(500):
            margin, grad = _reference_margin_and_subgrad(q, z)
            if margin < best_margin:
                best_margin, best_z = margin, z.copy()
            gn = np.linalg.norm(grad)
            if gn == 0.0:
                break
            z = z - (0.3 / math.sqrt(t + 1.0)) * grad / gn
            z /= np.linalg.norm(z)
        margin, _ = _reference_margin_and_subgrad(q, z)
        if margin < best_margin:
            best_margin, best_z = margin, z.copy()
        yield best_margin, best_z


def _assert_same_bits(rep, reference):
    margin, witness = reference
    assert np.float64(rep.min_margin).tobytes() == np.float64(margin).tobytes()
    assert rep.witness.tobytes() == witness.tobytes()
    assert rep.violated == (margin < 0)


@pytest.mark.parametrize("hint", [False, True], ids=["random_starts", "hint"])
@pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("mode", ["unsigned", "signed"])
def test_stacked_search_matches_sequential_reference(mode, p, hint):
    m, n = 40, 4
    a = gaussian_matrix(m, n, SeedSpec(130, 0))
    z = None
    if hint:
        # integer rows and an integer start tie many |A z| entries at once
        a, z = np.round(2 * a), np.ones(n)
    if mode == "unsigned":
        q = ConditionQuery(a=a, p=p, mode="unsigned", rho=0.35, z=z)
    else:
        support, signs = draw_support_signs(m, 0.5, SeedSpec(131, 0))
        q = ConditionQuery(a=a, p=p, mode="signed", support=support, signs=signs, z=z)
    reference = list(_reference_search(q, 8, SeedSpec(132, 0)))
    for restarts in (1, 3, 8):
        rep = search_violation(q, restarts=restarts, seed=SeedSpec(132, 0))
        _assert_same_bits(rep, reference[restarts - 1])


def test_restart_with_zero_subgradient_stays_while_others_continue():
    # full support with the signs of A z0: nothing opposes at z0, so every
    # coefficient and the subgradient there are 0 and restart 0 stops at once
    a = gaussian_matrix(30, 3, SeedSpec(133, 0))
    z0 = np.array([0.6, -0.8, 0.0])
    support = np.arange(30)
    signs = {i: int(s) for i, s in enumerate(np.sign(a @ z0))}
    q = ConditionQuery(a=a, p=0.5, mode="signed", support=support, signs=signs, z=z0)
    with np.errstate(divide="raise", invalid="raise"):
        alone = search_violation(q, restarts=1)
        rep = search_violation(q, restarts=3, seed=SeedSpec(134, 0))
    assert alone.min_margin == 0.0 and not alone.violated
    np.testing.assert_array_equal(alone.witness, z0 / np.linalg.norm(z0))
    assert rep.violated
    _assert_same_bits(rep, list(_reference_search(q, 3, SeedSpec(134, 0)))[-1])
    # _descend moves its stack in place, but a stopped row keeps its bits,
    # here a direction that is not of unit norm
    z = np.vstack([2 * z0, SeedSpec(134, 0).generator().standard_normal((2, 3))])
    start = z.copy()
    with np.errstate(divide="raise", invalid="raise"):
        certify._descend(q, z)
    np.testing.assert_array_equal(z[0], start[0])
    assert not np.any(z[1:] == start[1:])



@pytest.mark.parametrize("entries, sizes", [(40, [1] * 8), (120, [3, 3, 2])])
def test_restart_stacks_are_bounded_and_do_not_change_results(monkeypatch, entries, sizes):
    a = np.round(2 * gaussian_matrix(40, 4, SeedSpec(135, 0)))
    q = ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.35, z=np.ones(4))
    stacks = []
    descend = certify._descend
    monkeypatch.setattr(certify, "_descend", lambda q, z: stacks.append(len(z)) or descend(q, z))
    whole = search_violation(q, restarts=8, seed=SeedSpec(136, 0))
    assert stacks == [8]
    stacks.clear()
    monkeypatch.setattr(certify, "_BLOCK_ENTRIES", entries)
    rep = search_violation(q, restarts=8, seed=SeedSpec(136, 0))
    assert stacks == sizes
    _assert_same_bits(rep, (whole.min_margin, whole.witness))


# integer values tie heavily, and 0.0 ties with -0.0
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0]), st.floats(-1e3, 1e3))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(v=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 24)), elements=_ENTRIES),
       data=st.data())
def test_top_k_coefficients_match_stable_argsort(v, data):
    m = v.shape[1]
    for k in (0, data.draw(st.integers(1, m)), m):
        q = ConditionQuery(a=np.ones((m, 1)), p=1.0, mode="unsigned", rho=k / m)
        assert q._k == k
        for row in (v, v[0]):
            np.testing.assert_array_equal(
                _coefficients(q, row, np.abs(row)), _stable_coefficients(row, k)
            )


@pytest.mark.parametrize("bad", [2.5, float("nan"), "3"])
def test_search_rejects_non_integer_restarts(bad):
    q = ConditionQuery(a=_COLUMN, p=0.5, mode="unsigned", rho=0.5)
    with pytest.raises(DomainError, match="restarts must be an integer"):
        search_violation(q, restarts=bad)


@pytest.mark.parametrize("field", ["a", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_condition_query_rejects_non_finite(field, bad):
    a, z = _COLUMN.copy(), np.array([1.0])
    {"a": a, "z": z}[field][0] = bad
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        ConditionQuery(a=a, p=0.5, mode="unsigned", rho=0.5, z=z)



@pytest.mark.parametrize("field", ["a", "z"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_margins_and_attacks_reject_non_finite(field, bad):
    a, z = _COLUMN.copy(), np.array([1.0])
    {"a": a, "z": z}[field][0] = bad
    support, signs = [0, 1, 2, 3], {0: -1, 1: -1, 2: -1, 3: -1}
    calls = [
        lambda: unsigned_margin(a, 0.5, 0.5, z),
        lambda: signed_margin(a, 0.5, support, signs, z),
        lambda: attack_arbitrary(a, np.zeros(1), 0.5, 0.5, z),
        lambda: attack_fixed_sign(a, np.zeros(1), 0.5, support, signs, z),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            call()


def test_search_with_no_finite_margin_raises():
    # A z overflows to inf in every row, so every margin is inf - inf = NaN
    a = np.full((2, 2), 1.5e308)
    q = ConditionQuery(a=a, p=1.0, mode="unsigned", rho=0.5, z=np.ones(2))
    with pytest.raises(NumericError):
        search_violation(q, restarts=1)


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("mode", ["unsigned", "signed"])
def test_seeded_search_is_invariant_to_power_of_two_scaling(mode, k):
    # scaling z by 2**k is exact, so the seeded start and the whole search
    # are the same, though z's norm overflows or underflows at |k| = 1000
    a = gaussian_matrix(30, 3, SeedSpec(0, 0))
    z = SeedSpec(0, 1).generator().standard_normal(3)
    if mode == "unsigned":
        fields = dict(mode="unsigned", rho=0.3)
    else:
        support, signs = draw_support_signs(30, 0.5, SeedSpec(0, 2))
        fields = dict(mode="signed", support=support, signs=signs)
    reports = [
        search_violation(ConditionQuery(a=a, p=0.5, z=start, **fields), restarts=2)
        for start in (z, np.ldexp(z, k))
    ]
    assert reports[1].min_margin == reports[0].min_margin
    assert reports[1].witness.tobytes() == reports[0].witness.tobytes()
    assert reports[1].violated == reports[0].violated


# A finite A whose products A z overflow, with a support, signs and z that fit it
_HUGE = gaussian_matrix(30, 3, SeedSpec(0, 0)) * 5e307
_ONES = np.ones(3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: unsigned_margin(_HUGE, 0.5, 0.3, _ONES),
        lambda: signed_margin(_HUGE, 0.5, [0, 1], {0: 1, 1: -1}, _ONES),
        lambda: search_violation(ConditionQuery(a=_HUGE, p=0.5, mode="unsigned", rho=0.3)),
        lambda: brute_force_min_margin(ConditionQuery(a=_HUGE, p=0.5, mode="unsigned", rho=0.3)),
        lambda: attack_arbitrary(_HUGE, np.zeros(3), 0.5, 0.3, _ONES),
        lambda: attack_fixed_sign(_HUGE, np.zeros(3), 0.5, [0, 1], {0: 1, 1: -1}, _ONES),
    ],
    ids=["unsigned_margin", "signed_margin", "search", "brute_force", "attack_arbitrary",
         "attack_fixed_sign"],
)
def test_overflowing_products_raise_numeric_error_without_warnings(call):
    # tier-1 turns warnings into errors, so a RuntimeWarning would fail here
    with pytest.raises(NumericError, match="A z overflowed"):
        call()
