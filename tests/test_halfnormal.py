"""Half-normal moments, and the quadrature oracle and density they are
checked against."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma

from lpdecode import DomainError, mu
from quadrature_oracle import TOL, Z_MAX, log_moment_integrals, pdf, tail_moment

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def test_pdf_at_zero():
    assert pdf(0.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-12)


def test_pdf_far_tail_vanishes():
    assert pdf(40.0) < 1e-300


def test_pdf_normalizes():
    total, err = quad(pdf, 0.0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert err < 1e-6


def test_mu_p1_closed_form():
    assert mu(1.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)


def test_mu_p2_is_unit_variance():
    assert mu(2.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
def test_mu_matches_gamma_closed_form(p):
    np.testing.assert_allclose(mu(p), tail_moment(p, 0.0), rtol=1e-10)


def test_mu_half_matches_monte_carlo():
    x = np.random.default_rng(20240817).standard_normal(10_000_000)
    mc = np.mean(np.sqrt(np.abs(x)))
    assert mu(0.5) == pytest.approx(mc, abs=1e-3)


def test_mu_rejects_out_of_range_p():
    with pytest.raises(DomainError):
        mu(0.0)
    with pytest.raises(DomainError):
        mu(2.5)


def test_tail_moment_at_zero_is_mu():
    assert tail_moment(1.0, 0.0) == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_tail_moment_p1_closed_form(t):
    np.testing.assert_allclose(
        tail_moment(1.0, t),
        SQRT_2_OVER_PI * math.exp(-0.5 * t * t),
        atol=1e-9,
    )


def test_tail_moment_beyond_cutoff_is_zero():
    assert tail_moment(0.5, Z_MAX + 1.0) == 0.0
    # the mass actually dropped is below the advertised tolerance
    dropped, _ = quad(lambda z: z**0.5 * pdf(z), Z_MAX + 1.0, 60.0)
    assert dropped < TOL


@pytest.mark.parametrize("p", [0.05, 0.3, 0.9])
def test_tail_moment_decreasing_in_t(p):
    ts = [0.0, 0.2, 0.5, 1.0, 2.0, 4.0]
    vals = [tail_moment(p, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("p", [0.001, 0.01, 0.2])
def test_tail_moment_continuous_at_series_split(p):
    # the evaluation switches from a power series to quadrature at t = 1e-3;
    # values straddling the switch must differ by exactly the strip's mass
    lo, hi = 1e-3 - 1e-9, 1e-3 + 1e-9
    below = tail_moment(p, lo)
    above = tail_moment(p, hi)
    strip, _ = quad(lambda z: z**p * pdf(z), lo, hi)
    np.testing.assert_allclose(below - above, strip, rtol=1e-6, atol=1e-14)


def test_tail_moment_small_p_against_direct_quadrature():
    # scipy handles the integrable x^p singularity directly; cross-check
    p = 0.01
    direct, _ = quad(lambda z: z**p * pdf(z), 0.0, 10.0, limit=300)
    np.testing.assert_allclose(tail_moment(p, 0.0), direct, rtol=1e-10)


def test_log_moment_integrals_match_monte_carlo():
    # lower + upper = E[|X|^p ln |X|]
    lower, upper = log_moment_integrals(1.0, 1.17741)
    x = np.abs(np.random.default_rng(20240818).standard_normal(10_000_000))
    mc = np.mean(x * np.log(x))
    assert lower + upper == pytest.approx(mc, abs=1e-3)


@pytest.mark.parametrize(
    "p,zstar", [(0.01, 5e-4), (0.25, 0.3), (0.5, 0.95), (0.8, 1.1), (1.0, 2.5), (0.6, 11.0)]
)
def test_log_moment_integrals_sum_to_full_log_moment(p, zstar):
    # E[|X|^p ln|X|] = d mu / dp = mu(p) * (ln 2 + digamma((p+1)/2)) / 2
    lower, upper = log_moment_integrals(p, zstar)
    expected = mu(p) * (math.log(2.0) + digamma((p + 1.0) / 2.0)) / 2.0
    np.testing.assert_allclose(lower + upper, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("p", [0.25, 0.5, 1.0])
def test_log_moment_lower_integral_negative_below_one(p):
    # ln x < 0 on (0, 1), so the [0, zstar] piece is negative for zstar <= 1
    lower, _ = log_moment_integrals(p, 0.9)
    assert lower < 0


def test_log_moment_integrals_additive_in_split_point():
    p, a, b = 0.5, 0.8, 1.4
    lower_a, _ = log_moment_integrals(p, a)
    lower_b, _ = log_moment_integrals(p, b)
    bridge, _ = quad(lambda z: z**p * np.log(z) * pdf(z), a, b)
    np.testing.assert_allclose(lower_a + bridge, lower_b, atol=1e-10)
