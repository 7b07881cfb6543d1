"""IRLS decoder and its weighted least-squares kernel."""

import dataclasses
import importlib.util
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dposv as scipy_dposv

from lpdecode import (
    DecoderConfig,
    DomainError,
    ErrorSpec,
    NumericError,
    SeedSpec,
    SingularityError,
    SweepPlan,
    apply_decoder_success,
    decode,
    lp_objective,
    make_instance,
    trial_seeds,
)
from lpdecode import decoder
from lpdecode.decoder import _decode_stack
from lpdecode.harness import _build_trial

from certify_oracle import exact_lp_decode, l1_decode


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


def _solve_one(a, y, w):
    """decoder._solve on a one-trial stack: x, or the SingularityError it
    reports for that trial."""
    x, failed = decoder._solve(a[None], w[None], y[None])
    if failed:
        raise failed[0]
    return x[0]


def test_wls_unweighted_mean():
    a = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    x = _solve_one(a, y, np.ones(3))
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_wls_dominant_weight():
    a = np.ones((3, 1))
    y = np.array([1.0, 2.0, 3.0])
    x = _solve_one(a, y, np.array([1.0, 1.0, 1e6]))
    assert x[0] == pytest.approx(3.0, abs=1e-4)


def test_wls_orthogonality_residual():
    gen = np.random.default_rng(77)
    a = gen.standard_normal((50, 10))
    y = gen.standard_normal(50)
    w = np.exp(gen.standard_normal(50))
    x = _solve_one(a, y, w)
    r = y - a @ x
    scale = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(w * r)
    assert np.max(np.abs(a.T @ (w * r))) <= 1e-8 * max(scale, 1.0)


def test_wls_detects_rank_deficiency():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularityError):
        _solve_one(a, np.ones(3), np.ones(3))


def test_dposv_loader_is_cached():
    assert decoder._dposv() is decoder._dposv()


@pytest.mark.parametrize("definite", [True, False])
def test_dposv_is_scipy_lapack_dposv(definite):
    gen = np.random.default_rng(5)
    a = gen.standard_normal((30, 6))
    gram = a.T @ a
    if not definite:
        gram[3, 3] = -1.0  # the leading minor of order 4 is not positive
    b = gen.standard_normal(6)
    ours = decoder._dposv()(gram, b, lower=0)
    ref = scipy_dposv(gram, b, lower=0)
    assert ours[2] == ref[2] and (ours[2] == 0) == definite
    for got, want in zip(ours[:2], ref[:2]):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_dposv_loader_without_scipy_names_it(monkeypatch):
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
    with pytest.raises(ModuleNotFoundError, match="SciPy") as exc:
        decoder._dposv.__wrapped__()  # the loader itself, past its cache
    assert exc.value.name == "scipy"


# shapes on both sides of decoder._SYRK_MIN_N = 48, where the Gram product
# changes from A^T (w A) to B^T B with B = sqrt(w) A; n = 40 and 48 border it
_WLS_SHAPES = [(200, 20), (1000, 100), (400, 40), (480, 48)]


def _scaled_lstsq(a, y, w):
    sw = np.sqrt(w)
    return np.linalg.lstsq(a * sw[:, None], y * sw, rcond=None)[0]


@pytest.mark.parametrize("spread", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("shape", _WLS_SHAPES)
def test_wls_matches_lstsq_oracle(shape, spread):
    # log-uniform weights over [1, spread]; IRLS reaches spreads near 1e8 at
    # eps_min for small p
    m, n = shape
    gen = np.random.default_rng(int(np.log10(spread)) + m)
    for _ in range(3):
        a = gen.standard_normal((m, n))
        y = gen.standard_normal(m)
        w = spread ** gen.uniform(0.0, 1.0, m)
        x = _solve_one(a, y, w)
        ref = _scaled_lstsq(a, y, w)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", _WLS_SHAPES)
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
            x = _solve_one(a, y, w)
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
    _assert_scale_equivariant(60, 6, c)


@pytest.mark.parametrize("c", [1e-300, 1e-170, 1e160, 1e300])
def test_decode_scale_equivariance_across_float_range_with_syrk_gram(c):
    # 480 x 48 takes the B^T B Gram product, with sqrt(w) weights
    _assert_scale_equivariant(480, 48, c)


def _assert_scale_equivariant(m, n, c):
    inst = make_instance(m, n, ErrorSpec(rho=0.1), SeedSpec(3, 0))
    base = decode(inst.a, inst.y, DecoderConfig(p=0.5))
    res = decode(inst.a, c * inst.y, DecoderConfig(p=0.5))
    assert np.max(np.abs(res.x_hat / c - base.x_hat)) <= 1e-6
    assert res.converged == base.converged
    assert res.objective == pytest.approx(c**0.5 * base.objective, rel=1e-6)
    assert res.objective_trace[-1] == pytest.approx(
        c**0.5 * base.objective_trace[-1], rel=1e-6
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(-150, 150),
    p=st.sampled_from([0.3, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_decode_is_scale_equivariant_for_every_power_of_ten(k, p, seed):
    # y -> c y for c = 10^k scales x_hat by c and every objective by c^p
    inst = make_instance(40, 4, ErrorSpec(rho=0.2), SeedSpec(seed, 0))
    c = 10.0**k
    base = decode(inst.a, inst.y, DecoderConfig(p=p))
    res = decode(inst.a, c * inst.y, DecoderConfig(p=p))
    assert np.max(np.abs(res.x_hat / c - base.x_hat)) <= 1e-6
    assert res.converged == base.converged
    assert res.objective == pytest.approx(c**p * base.objective, rel=1e-6)
    assert res.objective_trace[-1] == pytest.approx(c**p * base.objective_trace[-1], rel=1e-6)


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
    # p is the only setting: every decode is one IRLS run
    assert [f.name for f in dataclasses.fields(DecoderConfig)] == ["p"]


def _reference_wls(a, y, w):
    aw = a * w[:, None]
    factor = cho_factor(a.T @ aw, check_finite=False)
    return cho_solve(factor, aw.T @ y, check_finite=False)


def _phase_tol(eps):
    """The decoder's step tolerance in the phase at eps: sqrt(eps) / 1e4
    in an intermediate phase, 1e-10 in the last."""
    return 1e-10 if eps <= 1e-8 else math.sqrt(eps) / 1e4


def _reference_decode(a, y, p, phase_tol=_phase_tol):
    """The unbatched decoder: one IRLS loop, one Cholesky factorisation and
    solve per iteration, and phase_tol(eps) the step tolerance of the phase
    at eps.  With the default, the batched kernel does the same arithmetic,
    so its results must equal these bit for bit."""
    ey = math.frexp(float(np.max(np.abs(y))))[1]
    ea = math.frexp(float(np.max(np.abs(a))))[1]
    ys, as_ = np.ldexp(y, -ey), np.ldexp(a, -ea)
    s2 = float(np.mean(ys * ys))
    x = _reference_wls(as_, ys, np.ones(a.shape[0]))
    trace, starts, eps, converged = [], [], 1.0, False
    r = ys - as_ @ x
    while True:
        starts.append(len(trace))
        settled = False
        for _ in range(100):
            w = (r * r + eps * s2) ** (p / 2 - 1)
            x_new = _reference_wls(as_, ys, w)
            r_new = ys - as_ @ x_new
            trace.append(float(np.sum((r_new * r_new + eps * s2) ** (p / 2))))
            denom = max(np.linalg.norm(x), np.linalg.norm(x_new))
            step = np.linalg.norm(x_new - x) / denom if denom > 0 else 0.0
            x, r = x_new, r_new
            if step <= phase_tol(eps):
                settled = True
                break
        if eps <= 1e-8:
            converged = settled
            break
        if len(starts) >= 12:
            break
        eps = max(eps * 0.1, 1e-8)
    x = np.ldexp(x, ey - ea)
    scale = float(np.exp2(ey * p))
    return (x.tobytes(), lp_objective(y - a @ x, p), [t * scale for t in trace], len(trace),
            converged, starts)


def _key(res):
    if isinstance(res, Exception):
        return (type(res).__name__, str(res))
    return (
        res.x_hat.tobytes(),
        res.objective,
        res.objective_trace,
        res.iterations,
        res.converged,
        res.phase_starts,
    )


def _cell_stack(regime, p, rho, trials, m, n, seed):
    plan = SweepPlan(
        m=m, n=n, p_values=(p,), rho_values=(rho,), trials=trials,
        error_regime=regime, master_seed=seed,
    )
    seeds = [trial_seeds(plan, 0, 0, t) for t in range(trials)]
    a, y, _, _ = zip(*(_build_trial(plan, p, rho, *s) for s in seeds))
    return np.stack(a), np.stack(y)


def test_batched_kernel_matches_single_runs_up_to_the_caps():
    # p = 1 against adversarial errors at 200 x 20: the five trials finish
    # at five different steps, and trial 3, the last to finish, ends
    # non-converged at the inner cap of its last phase; the reference
    # follows the kernel's tolerance in every phase
    a, y = _cell_stack("adversarial", 1.0, 0.2, 5, 200, 20, 1)
    stacked = _decode_stack(a, y, 1.0)
    assert len({r.iterations for r in stacked}) == 5
    assert [r.converged for r in stacked] == [True, True, True, False, True]
    for t, res in enumerate(stacked):
        assert _key(res) == _key(_decode_stack(a[t : t + 1], y[t : t + 1], 1.0)[0])
        assert _key(res) == _reference_decode(a[t], y[t], 1.0)


# Sweep cells, (m, n, seed, regime, p index, p, rho index, rho), and in each
# a trial that IRLS recovers with every phase run to the final 1e-10 step
# and that an earlier phase exit loses: a fixed 1e-3 loses the first,
# sqrt(eps) / 100 each of the others, sqrt(eps) / 1000 the third and the
# sixth, and sqrt(eps) / 3000 the sixth.
_SEPARATING_TRIALS = [
    ((80, 8, 14, "arbitrary", 0, 0.1, 3, 0.6), 2),
    ((40, 4, 12, "adversarial", 0, 0.1, 1, 0.2), 1),
    ((80, 8, 10, "adversarial", 2, 0.5, 1, 0.2), 0),
    ((150, 15, 10, "adversarial", 0, 0.1, 1, 0.2), 1),
    ((150, 15, 10, "fixed_sign", 2, 0.5, 6, 0.7), 1),
    ((150, 15, 13, "fixed_sign", 0, 0.1, 6, 0.7), 0),
    ((30, 3, 40, "arbitrary", 4, 0.9, 5, 0.6), 2),
]


@pytest.mark.parametrize(
    "cell, trial", _SEPARATING_TRIALS,
    ids=[f"{c[0]}x{c[1]}-seed{c[2]}-{c[3]}-p{c[5]}-rho{c[7]}" for c, _ in _SEPARATING_TRIALS],
)
def test_early_phase_exits_lose_no_recovered_trial(cell, trial):
    # every trial of the cell that IRLS recovers with each phase run to the
    # final 1e-10 step, the decoder recovers too
    m, n, seed, regime, i, p, j, rho = cell
    plan = SweepPlan(
        m=m, n=n, p_values=(p,), rho_values=(rho,), trials=3, error_regime=regime,
        master_seed=seed,
    )
    a, y, f, _ = (
        np.stack(v)
        for v in zip(*(_build_trial(plan, p, rho, *trial_seeds(plan, i, j, t)) for t in range(3)))
    )
    decoded = _decode_stack(a, y, p)
    for t in range(3):
        ref = _reference_decode(a[t], y[t], p, phase_tol=lambda eps: 1e-10)
        recovered = apply_decoder_success(np.frombuffer(ref[0]), f[t])
        assert recovered or t != trial
        assert apply_decoder_success(decoded[t].x_hat, f[t]) or not recovered


def test_decode_large_takes_at_most_110_steps():
    # the three 1000 x 100 instances of the decode_large benchmark: each
    # intermediate phase ends at its own step tolerance, so 106 steps in all
    # where running every phase to 1e-10 took 207
    steps = 0
    for i in range(3):
        inst = make_instance(1000, 100, ErrorSpec(rho=0.2), SeedSpec(0, i))
        res = decode(inst.a, inst.y, DecoderConfig(p=0.5))
        assert res.converged and apply_decoder_success(res.x_hat, inst.f)
        steps += res.iterations
    assert steps <= 110, steps


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    trials=st.sampled_from([1, 3, 5]),
    p=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_is_batch_invariant(trials, p, seed):
    _assert_batch_invariant(*_cell_stack("arbitrary", p, 0.25, trials, 40, 4, seed), p)


def test_batched_kernel_is_batch_invariant_with_syrk_gram():
    # from n = 48 on, each trial's Gram matrix is a dsyrk of its own
    _assert_batch_invariant(*_cell_stack("arbitrary", 0.5, 0.3, 3, 480, 48, 2), 0.5)


def _assert_batch_invariant(a, y, p):
    """Each trial of a stack gives the bits it gives on its own."""
    stacked = _decode_stack(a, y, p)
    for t in range(len(a)):
        single = _decode_stack(a[t : t + 1], y[t : t + 1], p)[0]
        assert _key(stacked[t]) == _key(single)
        assert _key(single) == _key(decode(a[t], y[t], DecoderConfig(p=p)))


@pytest.mark.parametrize(
    "regime, p, rho, seed, recovered, converged",
    [
        ("arbitrary", 1.0, 0.4, 1, [False, True, False], [True, True, True]),
        ("adversarial", 0.9, 0.3, 2, [False, False, False], [False, True, True]),
    ],
)
def test_syrk_gram_takes_the_reference_steps(regime, p, rho, seed, recovered, converged):
    # at n >= 48 the Gram matrix is B^T B by dsyrk, which rounds otherwise than
    # the reference's A^T (w A): x_hat may move in its last bits, but each
    # trial takes the reference's steps and phases and ends the same way
    plan = SweepPlan(
        m=480, n=48, p_values=(p,), rho_values=(rho,), trials=3, error_regime=regime,
        master_seed=seed,
    )
    a, y, f, _ = (
        np.stack(v)
        for v in zip(*(_build_trial(plan, p, rho, *trial_seeds(plan, 0, 0, t)) for t in range(3)))
    )
    decoded = _decode_stack(a, y, p)
    for t in range(3):
        x, _, _, iterations, ref_converged, starts = _reference_decode(a[t], y[t], p)
        res = decoded[t]
        assert (res.iterations, res.phase_starts) == (iterations, starts)
        assert res.converged == ref_converged == converged[t]
        np.testing.assert_allclose(res.x_hat, np.frombuffer(x), rtol=0, atol=1e-9)
        assert apply_decoder_success(res.x_hat, f[t]) == recovered[t]
        assert apply_decoder_success(np.frombuffer(x), f[t]) == recovered[t]


def test_singular_trial_fails_alone():
    # trial 2 is singular and trial 1 has y = 0: neither enters the IRLS
    # stack, and every trial gets what decode gives it on its own
    a, y = _cell_stack("arbitrary", 0.5, 0.2, 4, 60, 6, 3)
    a[2, :, 1] = a[2, :, 0]
    y[1] = 0.0
    stacked = _decode_stack(a, y, 0.5)
    assert isinstance(stacked[2], SingularityError)
    assert stacked[1].iterations == 0 and not stacked[1].x_hat.any()
    for t in (0, 1, 3):
        assert _key(stacked[t]) == _key(decode(a[t], y[t], DecoderConfig(p=0.5)))
    with pytest.raises(SingularityError):
        decode(a[2], y[2], DecoderConfig(p=0.5))


def test_small_stacks_stay_small():
    # 728 noiseless 30 x 3 trials fill a 2^16-entry sweep stack; the
    # objective trace holds the steps taken, not 1000 rows per trial
    gen = SeedSpec(0, 0).generator()
    a = gen.standard_normal((728, 30, 3))
    y = (a @ gen.standard_normal((728, 3, 1)))[..., 0]
    _decode_stack(a, y, 0.5)  # loads LAPACK; first-call allocations
    tracemalloc.start()
    try:
        _decode_stack(a, y, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a.nbytes, peak / a.nbytes


def _overflowing_trial():
    """A 20x3 trial whose minimiser lies past the float range: A is 1e-200
    times a Gaussian matrix and y = e has two entries, 3e200 and -2e200."""
    a = 1e-200 * np.random.default_rng(0).standard_normal((20, 3))
    y = np.zeros(20)
    y[2], y[7] = 3e200, -2e200
    return a, y


def test_overflowing_minimiser_raises_numeric_error_without_warnings():
    a, y = _overflowing_trial()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="objective became non-finite"):
            decode(a, y, DecoderConfig(p=0.5))


def test_overflowing_trial_fails_alone():
    a, y = _cell_stack("arbitrary", 0.5, 0.2, 3, 20, 3, 5)
    a[1], y[1] = _overflowing_trial()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _decode_stack(a, y, 0.5)
    assert isinstance(stacked[1], NumericError)
    for t in (0, 2):
        assert _key(stacked[t]) == _key(_decode_stack(a[t : t + 1], y[t : t + 1], 0.5)[0])


def test_finished_trials_leave_the_stack(monkeypatch):
    # trials that finish at different steps, one singular and one with
    # y = 0 (m = 61 puts the rows of the stack at odd offsets): every row
    # _solve receives is a solve some trial needs, so each call holds the
    # start of every trial, then only the trials still running
    a, y = _cell_stack("arbitrary", 0.5, 0.25, 6, 61, 6, 4)
    a[2, :, 1] = a[2, :, 0]
    y[1] = 0.0
    solve = decoder._solve
    rows = []

    def counting(a, w, y):
        rows.append(len(w))
        return solve(a, w, y)

    monkeypatch.setattr(decoder, "_solve", counting)
    stacked = _decode_stack(a, y, 0.5)
    monkeypatch.setattr(decoder, "_solve", solve)

    assert isinstance(stacked[2], SingularityError)
    runs = [stacked[t].iterations for t in (0, 3, 4, 5)]
    assert len(set(runs)) > 1 and stacked[1].iterations == 0
    assert rows == [6] + [sum(k < it for it in runs) for k in range(max(runs))]
    assert sum(rows) == 6 + sum(runs)
    for t in (0, 1, 3, 4, 5):
        assert _key(stacked[t]) == _key(decode(a[t], y[t], DecoderConfig(p=0.5)))


def test_trial_whose_solve_fails_mid_run_fails_alone(monkeypatch):
    # trial 0 has y = 0 and leaves the stack before the first step, so row 0
    # of the second step's solve is trial 1; that solve reports it singular,
    # after IRLS has taken a step, and only trial 1 gets the error
    a, y = _cell_stack("arbitrary", 0.5, 0.2, 4, 60, 6, 3)
    y[0] = 0.0
    clean = _decode_stack(a, y, 0.5)
    solve = decoder._solve
    rows = []

    def failing(a, w, y):
        rows.append(len(w))
        x, failed = solve(a, w, y)
        if len(rows) == 3:
            x[0] = 0.0
            failed[0] = SingularityError("injected at the second step")
        return x, failed

    monkeypatch.setattr(decoder, "_solve", failing)
    stacked = _decode_stack(a, y, 0.5)
    monkeypatch.setattr(decoder, "_solve", solve)

    assert rows[:4] == [4, 3, 3, 2]
    assert isinstance(stacked[1], SingularityError) and "injected" in str(stacked[1])
    assert not isinstance(clean[1], Exception)
    for t in (0, 2, 3):
        assert _key(stacked[t]) == _key(clean[t])


@pytest.mark.parametrize("seed", range(5))
def test_exact_lp_oracle_is_l1_decoding_at_p1(seed):
    # rho 0.5 at 30 x 3: at seed 2 the l1 minimiser is not f
    inst = make_instance(30, 3, ErrorSpec(rho=0.5), SeedSpec(seed, 0))
    x = exact_lp_decode(inst.a, inst.y, 1.0)
    np.testing.assert_allclose(x, l1_decode(inst.a, inst.y), rtol=0, atol=1e-12)


def test_decode_recovers_only_what_lp_decoding_recovers():
    # the exact lp minimiser at 30 x 3 decides which trials lp decoding
    # recovers; IRLS is a local solver, so it may miss some of them, but a
    # trial it recovers must be one lp decoding recovers
    exact, irls = [], []
    for regime in ("arbitrary", "fixed_sign"):
        for p in (0.3, 0.5, 0.9):
            plan = SweepPlan(m=30, n=3, p_values=(p,), rho_values=(0.4, 0.5, 0.6, 0.7),
                             trials=5, error_regime=regime, master_seed=21)
            for r, rho in enumerate(plan.rho_values):
                for t in range(plan.trials):
                    a, y, f, _ = _build_trial(plan, p, rho, *trial_seeds(plan, 0, r, t))
                    x = exact_lp_decode(a, y, p)
                    exact.append(apply_decoder_success(x, f))
                    x = decode(a, y, DecoderConfig(p=p)).x_hat
                    irls.append(apply_decoder_success(x, f))
    assert any(irls) and not all(exact)
    assert all(e for e, i in zip(exact, irls) if i)
