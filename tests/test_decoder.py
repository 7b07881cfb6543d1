"""IRLS decoder and its weighted least-squares kernel."""

import numpy as np
import pytest

from lpdecode import (
    DecoderConfig,
    DomainError,
    ErrorSpec,
    SeedSpec,
    SingularityError,
    decode,
    lp_objective,
    make_instance,
    weighted_least_squares,
)


def test_lp_objective_zero_vector():
    assert lp_objective(np.zeros(5), 0.5) == 0.0


def test_lp_objective_arithmetic():
    assert lp_objective(np.array([3.0, 4.0]), 1.0) == pytest.approx(7.0)
    assert lp_objective(np.array([4.0, 9.0]), 0.5) == pytest.approx(5.0)


def test_lp_objective_rejects_bad_p():
    with pytest.raises(DomainError):
        lp_objective(np.ones(3), 0.0)
    with pytest.raises(DomainError):
        lp_objective(np.ones(3), 2.5)


def test_wls_unweighted_mean():
    a = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    x = weighted_least_squares(a, y, np.ones(3))
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_wls_dominant_weight():
    a = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    x = weighted_least_squares(a, y, np.array([1.0, 1.0, 1e6]))
    assert x[0] == pytest.approx(3.0, abs=1e-4)


def test_wls_orthogonality_residual():
    gen = np.random.default_rng(77)
    a = gen.standard_normal((50, 10))
    y = gen.standard_normal(50)
    w = np.exp(gen.standard_normal(50))
    x = weighted_least_squares(a, y, w)
    r = y - a @ x
    scale = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(w * r)
    assert np.max(np.abs(a.T @ (w * r))) <= 1e-8 * max(scale, 1.0)


def test_wls_detects_rank_deficiency():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularityError):
        weighted_least_squares(a, np.ones(3), np.ones(3))


def test_wls_validates_weights_and_shapes():
    a = np.ones((3, 1))
    with pytest.raises(DomainError):
        weighted_least_squares(a, np.ones(3), np.array([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        weighted_least_squares(a, np.ones(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        weighted_least_squares(a, np.ones(4), np.ones(3))


def _scaled_lstsq(a, y, w):
    sw = np.sqrt(w)
    return np.linalg.lstsq(a * sw[:, None], y * sw, rcond=None)[0]


@pytest.mark.parametrize("spread", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("shape", [(200, 20), (1000, 100)])
def test_wls_matches_lstsq_oracle(shape, spread):
    # log-uniform weights over [1, spread]; IRLS reaches spreads near 1e8 at
    # eps_min for small p
    m, n = shape
    gen = np.random.default_rng(int(np.log10(spread)) + m)
    for _ in range(3):
        a = gen.standard_normal((m, n))
        y = gen.standard_normal(m)
        w = spread ** gen.uniform(0.0, 1.0, m)
        x = weighted_least_squares(a, y, w)
        ref = _scaled_lstsq(a, y, w)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(200, 20), (1000, 100)])
def test_wls_nearly_collinear_matches_lstsq_or_raises(shape):
    # the last column is the one before it plus delta times noise; the Gram
    # matrix squares cond(A) ~ 1 / delta, so an accepted solve must still
    # agree with lstsq (to 1e-6, well inside the decoder's 1e-4 success
    # tolerance) and a lost one must raise, never return a wrong x
    m, n = shape
    gen = np.random.default_rng(n)
    outcomes = []
    for delta in (1e-2, 1e-3, 3e-4, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 0.0):
        a = gen.standard_normal((m, n))
        a[:, -1] = a[:, -2] + delta * gen.standard_normal(m)
        y = gen.standard_normal(m)
        w = 1e4 ** gen.uniform(0.0, 1.0, m)
        try:
            x = weighted_least_squares(a, y, w)
        except SingularityError:
            outcomes.append("raised")
            continue
        ref = _scaled_lstsq(a, y, w)
        assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref), delta
        outcomes.append("matched")
    assert outcomes[0] == "matched" and outcomes[-1] == "raised"


@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
def test_decode_noiseless_exact(p):
    inst = make_instance(50, 5, ErrorSpec(rho=0.0), SeedSpec(31, 0))
    res = decode(inst.a, inst.y, DecoderConfig(p=p))
    assert np.max(np.abs(res.x_hat - inst.f)) <= 1e-6
    assert res.converged


def test_decode_one_dim_brute_force():
    # minimize |7 - x|^0.5 + 2 |2 - x|^0.5; x = 2 wins (sqrt 5 < 2 sqrt 5)
    a = np.ones((3, 1))
    y = np.array([7.0, 2.0, 2.0])
    res = decode(a, y, DecoderConfig(p=0.5))
    assert res.x_hat[0] == pytest.approx(2.0, abs=1e-4)

    grid = np.linspace(-1.0, 9.0, 20001)
    objs = np.abs(7 - grid) ** 0.5 + 2 * np.abs(2 - grid) ** 0.5
    assert grid[np.argmin(objs)] == pytest.approx(2.0, abs=1e-3)
    # an x error of eps costs ~2 sqrt(eps) here, so the 1e-4 x tolerance
    # only buys objective agreement to ~3 sqrt(1e-4)
    assert res.objective <= objs.min() + 0.03


def test_decode_recovers_under_sparse_errors():
    hits = 0
    for t in range(10):
        inst = make_instance(100, 10, ErrorSpec(rho=0.2), SeedSpec(600 + t, 0))
        res = decode(inst.a, inst.y, DecoderConfig(p=0.5))
        hits += np.max(np.abs(res.x_hat - inst.f)) <= 1e-4
    assert hits >= 9


def test_decode_objective_consistency():
    inst = make_instance(60, 6, ErrorSpec(rho=0.15), SeedSpec(41, 0))
    res = decode(inst.a, inst.y, DecoderConfig(p=0.6))
    assert res.objective == lp_objective(inst.y - inst.a @ res.x_hat, 0.6)


def test_decode_trace_monotone_within_phases():
    inst = make_instance(80, 8, ErrorSpec(rho=0.2), SeedSpec(51, 0))
    res = decode(inst.a, inst.y, DecoderConfig(p=0.5))
    bounds = res.phase_starts + [len(res.objective_trace)]
    assert res.phase_starts[0] == 0
    for lo, hi in zip(bounds, bounds[1:]):
        seg = res.objective_trace[lo:hi]
        for a, b in zip(seg, seg[1:]):
            assert b <= a * (1 + 1e-12) + 1e-12


def test_decode_scale_equivariance():
    inst = make_instance(60, 6, ErrorSpec(rho=0.2), SeedSpec(61, 0))
    base = decode(inst.a, inst.y, DecoderConfig(p=0.5)).x_hat
    for c in (1e-6, 1e6):
        scaled = decode(inst.a, c * inst.y, DecoderConfig(p=0.5)).x_hat
        np.testing.assert_allclose(scaled, c * base, rtol=1e-6, atol=1e-9 * c)


@pytest.mark.parametrize("c", [1e-170, 1e-100, 1e100, 1e160, 1e300])
def test_decode_scale_equivariance_across_float_range(c):
    # at 1e-170 mean(y*y) underflows and at 1e160 r*r overflows unless the
    # decoder rescales y first
    inst = make_instance(60, 6, ErrorSpec(rho=0.1), SeedSpec(3, 0))
    base = decode(inst.a, inst.y, DecoderConfig(p=0.5))
    res = decode(inst.a, c * inst.y, DecoderConfig(p=0.5))
    assert np.max(np.abs(res.x_hat / c - base.x_hat)) <= 1e-6
    assert res.converged == base.converged
    assert res.objective == pytest.approx(c**0.5 * base.objective, rel=1e-6)
    assert res.objective_trace[-1] == pytest.approx(
        c**0.5 * base.objective_trace[-1], rel=1e-6
    )


@pytest.mark.parametrize("d", [1e-170, 1e160])
def test_decode_matrix_scale_across_float_range(d):
    # the Gram matrix of A squares its scale, so A is rescaled before IRLS
    inst = make_instance(60, 6, ErrorSpec(rho=0.1), SeedSpec(3, 0))
    base = decode(inst.a, inst.y, DecoderConfig(p=0.5)).x_hat
    x_hat = decode(d * inst.a, inst.y, DecoderConfig(p=0.5)).x_hat
    assert np.max(np.abs(x_hat * d - base)) <= 1e-6


def test_decode_zero_measurements():
    a = np.random.default_rng(0).standard_normal((10, 3))
    res = decode(a, np.zeros(10), DecoderConfig(p=0.5))
    np.testing.assert_array_equal(res.x_hat, np.zeros(3))
    assert res.converged
    assert res.objective == 0.0
    assert res.iterations == 0


def test_decode_deterministic_with_restarts():
    inst = make_instance(50, 5, ErrorSpec(rho=0.25), SeedSpec(71, 0))
    cfg = DecoderConfig(p=0.4, restarts=3)
    r1 = decode(inst.a, inst.y, cfg, seed=SeedSpec(5, 0))
    r2 = decode(inst.a, inst.y, cfg, seed=SeedSpec(5, 0))
    np.testing.assert_array_equal(r1.x_hat, r2.x_hat)
    assert r1.objective == r2.objective


def test_decode_restarts_never_worse():
    inst = make_instance(50, 5, ErrorSpec(rho=0.3), SeedSpec(81, 0))
    single = decode(inst.a, inst.y, DecoderConfig(p=0.4))
    multi = decode(inst.a, inst.y, DecoderConfig(p=0.4, restarts=4), seed=SeedSpec(2, 0))
    assert multi.objective <= single.objective + 1e-12


def test_decode_validates_inputs():
    a = np.ones((3, 1))
    with pytest.raises(DomainError):
        decode(np.ones((2, 3)), np.ones(2), DecoderConfig(p=0.5))
    with pytest.raises(DomainError):
        decode(a, np.ones(4), DecoderConfig(p=0.5))
    with pytest.raises(DomainError):
        decode(a, np.array([1.0, np.inf, 0.0]), DecoderConfig(p=0.5))


def test_decoder_config_validation():
    with pytest.raises(DomainError):
        DecoderConfig(p=0.0)
    with pytest.raises(DomainError):
        DecoderConfig(p=1.5)
    with pytest.raises(DomainError):
        DecoderConfig(p=0.5, restarts=0)
