"""IRLS decoder and its weighted least-squares kernel."""

import importlib.util
import math
import tracemalloc

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
    SeedSpec,
    SingularityError,
    SweepPlan,
    decode,
    lp_objective,
    make_instance,
    trial_seeds,
)
from lpdecode import decoder
from lpdecode.decoder import _decode_stack
from lpdecode.harness import _build_instance


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
    x, failed = decoder._solve(a[None], w[None], y[None], decoder._dposv())
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
        x = _solve_one(a, y, w)
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


def _reference_wls(a, y, w):
    aw = a * w[:, None]
    factor = cho_factor(a.T @ aw, check_finite=False)
    return cho_solve(factor, aw.T @ y, check_finite=False)


def _reference_decode(a, y, p, restarts=1, seed=None):
    """The unbatched decoder: each restart runs its own IRLS loop, one
    Cholesky factorisation and solve per iteration.  The batched kernel does
    the same arithmetic, so its results must equal these bit for bit."""
    ey = math.frexp(float(np.max(np.abs(y))))[1]
    ea = math.frexp(float(np.max(np.abs(a))))[1]
    ys, as_ = np.ldexp(y, -ey), np.ldexp(a, -ea)
    s2 = float(np.mean(ys * ys))
    m, n = a.shape
    x0 = _reference_wls(as_, ys, np.ones(m))
    gen = (seed or SeedSpec(0, 0)).generator()
    best = None
    for k in range(restarts):
        x = x0
        if k:
            x = x0 + gen.standard_normal(n) * (0.1 * np.linalg.norm(x0) / math.sqrt(n))
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
                if step <= 1e-10:
                    settled = True
                    break
            if eps <= 1e-8:
                converged = settled
                break
            if len(starts) >= 12:
                break
            eps = max(eps * 0.1, 1e-8)
        x = np.ldexp(x, ey - ea)
        obj = lp_objective(y - a @ x, p)
        if best is None or obj < best[1]:
            scale = float(np.exp2(ey * p))
            best = (x.tobytes(), obj, [t * scale for t in trace], len(trace), converged, starts)
    return best


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
    insts = [
        _build_instance(plan, p, rho, *trial_seeds(plan, 0, 0, t))
        for t in range(trials)
    ]
    return np.stack([i.a for i in insts]), np.stack([i.y for i in insts])


def test_batched_kernel_matches_single_runs_up_to_the_caps():
    # p = 1 against adversarial errors at 200 x 20: the five trials finish
    # at five different steps, and trial 3, the last to finish, ends
    # non-converged at the inner cap of its last phase
    a, y = _cell_stack("adversarial", 1.0, 0.2, 5, 200, 20, 1)
    stacked = _decode_stack(a, y, 1.0)
    assert len({r.iterations for r in stacked}) == 5
    assert [r.converged for r in stacked] == [True, True, True, False, True]
    for t, res in enumerate(stacked):
        assert _key(res) == _key(_decode_stack(a[t : t + 1], y[t : t + 1], 1.0)[0])
        assert _key(res) == _reference_decode(a[t], y[t], 1.0)


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    trials=st.sampled_from([1, 3, 5]),
    p=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_kernel_is_batch_invariant(trials, p, seed):
    # each trial of a stack gives the bits it gives on its own
    a, y = _cell_stack("arbitrary", p, 0.25, trials, 40, 4, seed)
    stacked = _decode_stack(a, y, p)
    for t in range(trials):
        single = _decode_stack(a[t : t + 1], y[t : t + 1], p)[0]
        assert _key(stacked[t]) == _key(single)
        assert _key(single) == _key(decode(a[t], y[t], DecoderConfig(p=p)))


def test_decode_restarts_are_the_best_single_run():
    # the three restarts run as one stack that shares A; the result must be
    # the best of the three run one at a time
    inst = make_instance(50, 5, ErrorSpec(rho=0.3), SeedSpec(81, 0))
    for p in (0.4, 1.0):
        res = decode(inst.a, inst.y, DecoderConfig(p=p, restarts=3), seed=SeedSpec(2, 0))
        ref = _reference_decode(inst.a, inst.y, p, restarts=3, seed=SeedSpec(2, 0))
        assert _key(res) == ref


def test_decode_restarts_in_blocks_are_the_best_single_run(monkeypatch):
    # room for two restarts per block: the five run as blocks of 1, 2 and 2,
    # and the starts are drawn in the same order as for one block
    monkeypatch.setattr(decoder, "_STACK_ENTRIES", 2 * 50 * 5)
    inst = make_instance(50, 5, ErrorSpec(rho=0.3), SeedSpec(81, 0))
    res = decode(inst.a, inst.y, DecoderConfig(p=0.4, restarts=5), seed=SeedSpec(2, 0))
    ref = _reference_decode(inst.a, inst.y, 0.4, restarts=5, seed=SeedSpec(2, 0))
    assert _key(res) == ref


def test_decode_memory_does_not_grow_with_restarts():
    # 16 restarts of a 200x20 A fill one block; 64 run as four such blocks
    inst = make_instance(200, 20, ErrorSpec(rho=0.2), SeedSpec(1, 0))
    decode(inst.a, inst.y, DecoderConfig(p=0.5, restarts=2))  # load LAPACK first
    peaks = {}
    for restarts in (16, 64):
        tracemalloc.start()
        try:
            decode(inst.a, inst.y, DecoderConfig(p=0.5, restarts=restarts))
            peaks[restarts] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.5 * peaks[16], peaks


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

    def counting(a, w, y, dposv):
        rows.append(len(w))
        return solve(a, w, y, dposv)

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
