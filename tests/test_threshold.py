"""Recovery threshold curve rho*(p), checked against quadrature and Monte Carlo."""

import numpy as np
import pytest
from scipy.special import digamma, gammainccinv

import quadrature_oracle
from quadrature_oracle import mc_threshold_oracle
from lpdecode import threshold
from lpdecode.cli import _curve_csv
from lpdecode import (
    CurveRequest,
    DomainError,
    NumericError,
    SeedSpec,
    ThresholdPoint,
    curve,
    drho_dp,
    mu,
    rho_star,
    solve_zstar,
)

# Values frozen from independent evaluations (closed forms where available,
# otherwise tight quadrature cross-checked against 1e6-sample Monte Carlo).
ZSTAR_P1 = 1.1774100225154747  # sqrt(2 ln 2)
RHO_FROZEN = {
    0.05: 0.48029480,
    0.25: 0.41071270,
    0.5: 0.34055686,
    0.75: 0.28447800,
    1.0: 0.23903189,
}
DRHO_FROZEN = {
    0.2: -0.330465,
    0.4: -0.273418,
    0.5: -0.249733,
    0.6: -0.228657,
    0.8: -0.192937,
    1.0: -0.164001,
}


def test_zstar_p1_closed_form():
    # at p=1 the tail moment is sqrt(2/pi) e^{-t^2/2}, so z* = sqrt(2 ln 2)
    assert solve_zstar(1.0) == pytest.approx(ZSTAR_P1, abs=1e-5)


def test_zstar_small_p_approaches_median():
    # as p -> 0 the half-total point tends to the median of |X|
    assert solve_zstar(0.001) == pytest.approx(0.6744897502, abs=0.01)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_zstar_residual_is_zero(p):
    z = solve_zstar(p)
    g0 = mu(p)
    resid = quadrature_oracle.tail_moment(p, z) - 0.5 * g0
    assert abs(resid) <= 1e-9 * g0


def test_rho_star_golden_p1():
    assert rho_star(1.0) == pytest.approx(0.239, abs=1e-3)


def test_rho_star_small_p_limit():
    val = rho_star(0.001)
    assert 0.49 < val < 0.5


@pytest.mark.parametrize("p,expected", sorted(RHO_FROZEN.items()))
def test_rho_star_frozen_values(p, expected):
    np.testing.assert_allclose(rho_star(p), expected, atol=5e-8)


def test_rho_star_range_over_p():
    for p in np.linspace(0.05, 1.0, 11):
        val = rho_star(float(p))
        assert 0.238 <= val < 0.5


def test_rho_star_never_exceeds_one_half_at_tiny_p():
    # z* comes out one ulp below the half-normal median there, where erfc
    # gives 0.5000000000000001; below p ~ 7e-17 even the correctly rounded
    # rho* = 1/2 - 0.404 p is 1/2 itself
    for k in range(16, 301):
        assert rho_star(10.0**-k) == 0.5
    # nothing from p = 1e-15 on moves
    assert rho_star(1e-15) == 0.4999999999999997
    assert rho_star(1e-14) == 0.4999999999999961
    assert rho_star(1e-3) == 0.4995958026324887


def test_curve_reaches_one_half_at_tiny_p():
    points = curve(CurveRequest(p_min=1e-16, p_max=1.0, steps=3, with_derivative=True))
    assert points[0].rho_star == 0.5
    assert points[0].drho_dp < 0


@pytest.mark.parametrize("p,expected", sorted(DRHO_FROZEN.items()))
def test_drho_dp_frozen_values(p, expected):
    np.testing.assert_allclose(drho_dp(p), expected, atol=5e-6)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_drho_dp_negative(p):
    assert drho_dp(p) < 0


def test_drho_dp_matches_finite_difference():
    h = 1e-4
    fd = (rho_star(0.5 + h) - rho_star(0.5 - h)) / (2 * h)
    assert drho_dp(0.5) == pytest.approx(fd, abs=1e-3)


def test_drho_dp_numerator_negative():
    # lower - upper < 0 given the half-total equation; equivalent to the
    # derivative being negative since the denominator 2 z*^p is positive
    for p in (0.3, 0.6, 1.0):
        z = solve_zstar(p)
        lower, upper = quadrature_oracle.log_moment_integrals(p, z)
        assert lower - upper < 0


# Small p, where the series and the ln singularity matter most, and the grid
# of the documented 200-point curve.
ORACLE_GRID = np.concatenate([np.geomspace(1e-6, 1e-2, 20), np.linspace(0.005, 1, 200)])


def test_drho_dp_matches_quadrature_oracle():
    for p in map(float, ORACLE_GRID):
        expected = quadrature_oracle.drho_dp(p, solve_zstar(p))
        np.testing.assert_allclose(drho_dp(p), expected, rtol=1e-12, err_msg=f"p={p}")


def test_curve_csv_matches_quadrature_oracle_bytes():
    pts = curve(CurveRequest(p_min=0.005, p_max=1.0, steps=200, with_derivative=True))
    by_oracle = [
        ThresholdPoint(
            p=pt.p,
            z_star=pt.z_star,
            rho_star=pt.rho_star,
            drho_dp=quadrature_oracle.drho_dp(pt.p, pt.z_star),
        )
        for pt in pts
    ]
    assert _curve_csv(pts) == _curve_csv(by_oracle)


# SciPy is the reference for the two special functions the library computes
# itself: a dense p grid, with the extremes p = 1e-300 and 1e-12.
SPECIAL_GRID = [1e-300, 1e-12, *np.linspace(0.0, 1.0, 20_001)[1:].tolist()]


def test_zstar_and_digamma_match_scipy():
    s = 0.5 * (np.array(SPECIAL_GRID) + 1.0)
    median = [threshold._gamma_median(v) for v in s.tolist()]
    zstar = [solve_zstar(p) for p in SPECIAL_GRID]
    psi = [threshold._digamma(v) for v in s.tolist()]
    np.testing.assert_allclose(median, gammainccinv(s, 0.5), rtol=1e-14, atol=0)
    np.testing.assert_allclose(zstar, np.sqrt(2.0 * gammainccinv(s, 0.5)), rtol=1e-14, atol=0)
    np.testing.assert_allclose(psi, digamma(s), rtol=1e-14, atol=0)


def test_curve_csv_matches_scipy_special_bytes(monkeypatch):
    req = CurveRequest(p_min=1e-4, p_max=1.0, steps=2001, with_derivative=True)
    text = _curve_csv(curve(req))
    monkeypatch.setattr(threshold, "_gamma_median", lambda s: float(gammainccinv(s, 0.5)))
    monkeypatch.setattr(threshold, "_digamma", lambda s: float(digamma(s)))
    assert text == _curve_csv(curve(req))


def test_gamma_median_settles_well_inside_its_step_bound(monkeypatch):
    # every s of the grid settles within half the bound; a bound too small
    # to settle in raises rather than return an unsettled iterate
    monkeypatch.setattr(threshold, "_NEWTON_STEPS", threshold._NEWTON_STEPS // 2)
    for p in SPECIAL_GRID:
        threshold._gamma_median(0.5 * (p + 1.0))
    monkeypatch.setattr(threshold, "_NEWTON_STEPS", 2)
    with pytest.raises(NumericError, match="did not settle"):
        threshold._gamma_median(0.75)


def test_curve_endpoints_and_monotonicity():
    pts = curve(CurveRequest(p_min=0.05, p_max=1.0, steps=20))
    assert len(pts) == 20
    assert pts[0].rho_star == pytest.approx(0.48, abs=0.005)
    assert pts[-1].rho_star == pytest.approx(0.239, abs=1e-3)
    rhos = [pt.rho_star for pt in pts]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_curve_grid_spacing_exact():
    pts = curve(CurveRequest(p_min=0.05, p_max=1.0, steps=20))
    np.testing.assert_allclose(
        [pt.p for pt in pts], np.linspace(0.05, 1.0, 20), atol=1e-12
    )


def test_curve_single_point():
    pts = curve(CurveRequest(p_min=1.0, p_max=1.0, steps=1))
    assert len(pts) == 1
    assert pts[0].rho_star == pytest.approx(rho_star(1.0), abs=1e-12)
    assert pts[0].drho_dp is None


def test_curve_with_derivative():
    pts = curve(CurveRequest(p_min=0.5, p_max=1.0, steps=3, with_derivative=True))
    for pt in pts:
        assert pt.drho_dp is not None and pt.drho_dp < 0


def test_curve_request_validation():
    with pytest.raises(DomainError):
        CurveRequest(p_min=0.5, p_max=0.4, steps=3)
    with pytest.raises(DomainError):
        CurveRequest(p_min=0.2, p_max=0.4, steps=1)
    with pytest.raises(DomainError):
        CurveRequest(p_min=0.0, p_max=1.0, steps=5)
    with pytest.raises(DomainError):
        CurveRequest(p_min=0.1, p_max=1.1, steps=5)
    # a curve lists all of its points first, so at most 10^6 may be asked for
    CurveRequest(p_min=0.1, p_max=1.0, steps=10**6)
    with pytest.raises(DomainError, match="steps must be at most 1000000"):
        CurveRequest(p_min=0.1, p_max=1.0, steps=10**6 + 1)


def test_threshold_point_validation():
    with pytest.raises(DomainError):
        ThresholdPoint(p=0.5, z_star=1.0, rho_star=0.5)
    with pytest.raises(DomainError):
        ThresholdPoint(p=0.5, z_star=-1.0, rho_star=0.3)
    with pytest.raises(DomainError):
        ThresholdPoint(p=0.5, z_star=1.0, rho_star=0.3, drho_dp=0.1)
    # rho* rounds to 1/2 only for p below about 1e-16
    ThresholdPoint(p=1e-300, z_star=0.6744897501960816, rho_star=0.5)
    with pytest.raises(DomainError):
        ThresholdPoint(p=1e-15, z_star=0.6744897501960816, rho_star=0.5)


def test_mc_oracle_golden_p1():
    assert mc_threshold_oracle(1.0, 1_000_000, seed=11) == pytest.approx(
        0.239, abs=0.005
    )


def test_mc_oracle_deterministic():
    a = mc_threshold_oracle(0.5, 50_000, seed=123)
    b = mc_threshold_oracle(0.5, 50_000, seed=123)
    assert a == b
    assert a != mc_threshold_oracle(0.5, 50_000, seed=124)


def test_mc_oracle_matches_quadrature_threshold():
    assert abs(rho_star(0.5) - mc_threshold_oracle(0.5, 200_000, seed=5)) <= 0.01


def test_mc_oracle_prefix_sum_property():
    # replay the oracle's documented stream and check the defining cut
    p, m, seed = 0.7, 20_000, 9
    est = mc_threshold_oracle(p, m, seed)
    k = round(est * m)
    y = np.sort(np.abs(SeedSpec(seed, 0).generator().standard_normal(m)) ** p)[::-1]
    prefix = np.cumsum(y)
    total = prefix[-1]
    assert prefix[k - 1] >= total / 2
    assert prefix[k - 2] < total / 2


def test_curve_csv_layout():
    pts = curve(CurveRequest(p_min=0.5, p_max=1.0, steps=2, with_derivative=True))
    text = _curve_csv(pts)
    lines = text.splitlines()
    assert lines[0] == "p,z_star,rho_star,drho_dp"
    assert len(lines) == 3
    assert text.endswith("\n")
    row = lines[2].split(",")
    assert float(row[0]) == 1.0
    assert float(row[2]) == pytest.approx(0.2390319, abs=1e-6)
    assert float(row[3]) < 0


def test_curve_csv_empty_derivative_column():
    pts = curve(CurveRequest(p_min=1.0, p_max=1.0, steps=1))
    lines = _curve_csv(pts).splitlines()
    assert lines[1].endswith(",")


def test_curve_csv_deterministic():
    req = CurveRequest(p_min=0.3, p_max=0.9, steps=3, with_derivative=True)
    assert _curve_csv(curve(req)) == _curve_csv(curve(req))
