"""Monte Carlo sweeps, concentration studies, and the checks of public arguments."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdecode import (
    ConditionQuery,
    CurveRequest,
    DecoderConfig,
    DomainError,
    ErrorSpec,
    PhaseCell,
    SeedSpec,
    SweepPlan,
    apply_decoder_success,
    attack_arbitrary,
    attack_fixed_sign,
    brute_force_min_margin,
    concentration_study,
    curve,
    decode,
    floor_count,
    gaussian_matrix,
    lp_objective,
    make_instance,
    mc_threshold_oracle,
    mu,
    run_sweep,
    search_violation,
    signed_margin,
    solve_zstar,
    trial_seeds,
    unsigned_margin,
)
from lpdecode import harness
from lpdecode.cli import _concentration_csv, _phase_csv
from lpdecode.ensemble import draw_support_signs

INTEGER_FIELDS = {
    "m": lambda v: SweepPlan(m=v, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1),
    "n": lambda v: SweepPlan(m=20, n=v, p_values=(0.5,), rho_values=(0.1,), trials=1),
    "trials": lambda v: SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=v),
    "steps": lambda v: CurveRequest(p_min=0.1, p_max=0.5, steps=v),
    "master_seed": lambda v: SweepPlan(
        m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1, master_seed=v
    ),
    # concentration_study needs m >= 10000, so its m is given in units of 10^4
    "concentration_study.m": lambda v: concentration_study(0.6, 0.5, v * 10_000, 1, 0),
    "concentration_study.trials": lambda v: concentration_study(0.6, 0.5, 10_000, v, 0),
    "run_sweep.jobs": lambda v: run_sweep(
        SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1), jobs=v
    ),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("bad", [2.5, float("nan"), "3"])
def test_integer_fields_reject_non_integers(field, bad):
    name = field.rpartition(".")[2]
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        INTEGER_FIELDS[field](bad)
    INTEGER_FIELDS[field](np.int64(3))


# entry point -> call with p set to v
P_ENTRY_POINTS = {
    "DecoderConfig": lambda v: DecoderConfig(p=v),
    "ConditionQuery": lambda v: ConditionQuery(a=np.eye(3), p=v, mode="unsigned", rho=0.2),
    "attack_arbitrary": lambda v: attack_arbitrary(np.eye(3), np.ones(3), v, 0.2, np.ones(3)),
    "SweepPlan": lambda v: SweepPlan(m=20, n=2, p_values=(v,), rho_values=(0.1,), trials=1),
    "concentration_study": lambda v: concentration_study(0.6, v, 10_000, 1, 0),
    "solve_zstar": solve_zstar,
    "mc_threshold_oracle": lambda v: mc_threshold_oracle(v, 10_000, 0),
    "CurveRequest.p_min": lambda v: CurveRequest(p_min=v, p_max=1.0, steps=2),
    "CurveRequest.p_max": lambda v: CurveRequest(p_min=0.5, p_max=v, steps=2),
    "unsigned_margin": lambda v: unsigned_margin(np.eye(3), v, 0.2, np.ones(3)),
    "signed_margin": lambda v: signed_margin(np.eye(3), v, [0], {0: 1}, np.ones(3)),
    # every support entry opposes A z, so the signed margin is negative at every p
    "attack_fixed_sign": lambda v: attack_fixed_sign(
        np.eye(3), np.ones(3), v, [0, 1, 2], {0: -1, 1: -1, 2: -1}, np.ones(3)
    ),
}


@pytest.mark.parametrize("entry", sorted(P_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, "x", float("nan"), 1.5])
def test_entry_points_reject_p_outside_unit_interval(entry, bad):
    with pytest.raises(DomainError, match=r"p must lie in \(0, 1\]"):
        P_ENTRY_POINTS[entry](bad)
    P_ENTRY_POINTS[entry](1.0)


# entry point -> call with rho set to v
RHO_ENTRY_POINTS = {
    "ErrorSpec": lambda v: ErrorSpec(rho=v),
    "draw_support_signs": lambda v: draw_support_signs(20, v, SeedSpec(0, 0)),
    "SweepPlan": lambda v: SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(v,), trials=1),
    "concentration_study": lambda v: concentration_study(v, 0.5, 10_000, 1, 0),
    "ConditionQuery": lambda v: ConditionQuery(a=np.eye(3), p=0.5, mode="unsigned", rho=v),
    "unsigned_margin": lambda v: unsigned_margin(np.eye(3), 0.5, v, np.ones(3)),
    "attack_arbitrary": lambda v: attack_arbitrary(np.eye(3), np.ones(3), 0.5, v, np.ones(3)),
}


@pytest.mark.parametrize("entry", sorted(RHO_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, "x", float("nan"), 1.5])
def test_entry_points_reject_rho_outside_unit_interval(entry, bad):
    with pytest.raises(DomainError, match=r"rho must lie in \[0, 1\]"):
        RHO_ENTRY_POINTS[entry](bad)
    RHO_ENTRY_POINTS[entry](0.5)


# Malformed array and grid inputs, each a replacement for one or two of the
# valid ones in CONTRACT_BASE.  ``vector`` may hold NaN (lp_objective and
# apply_decoder_success pass it through), but it must be numeric.
CONTRACT_BASE = {
    "a": np.eye(3),
    "f": np.ones(3),
    "z": np.ones(3),
    "support": [0, 1, 2],
    "signs": {0: -1, 1: -1, 2: -1},
    "vector": np.ones(3),
    "p_values": (0.5,),
    "rho_values": (0.1,),
}
CONTRACT_CASES = {
    "a_1d": {"a": np.ones(3)},
    "a_text": {"a": [["a"] * 3] * 3},
    "a_ragged": {"a": [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]},
    "a_m_below_n": {"a": np.ones((2, 3))},
    "a_nan": {"a": np.diag([np.nan, 1.0, 1.0])},
    "z_nan": {"z": np.array([1.0, np.nan, 1.0])},
    "f_nan": {"f": np.array([1.0, np.nan, 1.0])},
    "z_wrong_length": {"z": np.ones(2)},
    "f_wrong_length": {"f": np.ones(2)},
    "z_zero": {"z": np.zeros(3)},
    "support_float": {"support": [0.7]},
    "support_2d": {"support": [[0, 1, 2]]},
    "sign_key_float": {"signs": {0.7: -1, 1: -1, 2: -1}},
    "sign_key_str": {"signs": {"a": -1, 1: -1, 2: -1}},
    "signs_not_a_map": {"signs": [-1, -1, -1]},
    "vector_text": {"vector": "abc"},
    "vector_ragged": {"vector": [[1.0], [1.0, 2.0]]},
    "p_values_scalar": {"p_values": 0.5},
    "rho_values_scalar": {"rho_values": 0.1},
}
# entry point -> (the inputs it reads, call)
CONTRACT_ENTRY_POINTS = {
    "ConditionQuery.unsigned": (
        "a z",
        lambda c: ConditionQuery(a=c["a"], p=0.5, mode="unsigned", rho=0.5, z=c["z"]),
    ),
    "ConditionQuery.signed": (
        "a z support signs",
        lambda c: ConditionQuery(
            a=c["a"], p=0.5, mode="signed", support=c["support"], signs=c["signs"], z=c["z"]
        ),
    ),
    "unsigned_margin": ("a z", lambda c: unsigned_margin(c["a"], 0.5, 0.5, c["z"])),
    "signed_margin": (
        "a z support signs",
        lambda c: signed_margin(c["a"], 0.5, c["support"], c["signs"], c["z"]),
    ),
    "attack_arbitrary": ("a f z", lambda c: attack_arbitrary(c["a"], c["f"], 0.5, 0.5, c["z"])),
    "attack_fixed_sign": (
        "a f z support signs",
        lambda c: attack_fixed_sign(c["a"], c["f"], 0.5, c["support"], c["signs"], c["z"]),
    ),
    "make_instance": (
        "signs",
        lambda c: make_instance(3, 1, ErrorSpec(rho=0.1, fixed_signs=c["signs"]), SeedSpec(0, 0)),
    ),
    "decode": ("a", lambda c: decode(c["a"], np.ones(3), DecoderConfig(p=0.5))),
    "lp_objective": ("vector", lambda c: lp_objective(c["vector"], 0.5)),
    "apply_decoder_success": (
        "vector", lambda c: apply_decoder_success(c["vector"], c["vector"])
    ),
    "SweepPlan": (
        "p_values rho_values",
        lambda c: SweepPlan(
            m=20, n=2, p_values=c["p_values"], rho_values=c["rho_values"], trials=1
        ),
    ),
}


@pytest.mark.parametrize(
    "entry, case",
    [
        (entry, case)
        for entry, (reads, _) in CONTRACT_ENTRY_POINTS.items()
        for case, bad in CONTRACT_CASES.items()
        if set(bad) <= set(reads.split())
    ],
)
def test_certify_entry_points_reject_malformed_inputs(entry, case):
    call = CONTRACT_ENTRY_POINTS[entry][1]
    with pytest.raises(DomainError):
        call({**CONTRACT_BASE, **CONTRACT_CASES[case]})


@pytest.mark.parametrize("entry", sorted(CONTRACT_ENTRY_POINTS))
def test_certify_entry_points_accept_the_base_inputs(entry):
    CONTRACT_ENTRY_POINTS[entry][1](CONTRACT_BASE)
    # support indices of another integer dtype pass too
    inputs = {**CONTRACT_BASE, "support": np.array([0, 1, 2], dtype=np.int32)}
    CONTRACT_ENTRY_POINTS[entry][1](inputs)


def test_empty_support_is_accepted():
    # nothing on the support, so the signed margin is the full mass of A z
    assert signed_margin(np.eye(3), 1.0, [], {}, np.ones(3)) == 3.0
    assert ConditionQuery(a=np.eye(3), p=0.5, mode="signed", support=[], signs={}).support.size == 0


# entry point -> call with one number argument set to v
NUMBER_ENTRY_POINTS = {
    "lp_objective.p": lambda v: lp_objective(np.ones(3), v),
    "mu.p": mu,
    "apply_decoder_success.tol": lambda v: apply_decoder_success(np.ones(2), np.ones(2), tol=v),
    "brute_force_min_margin.resolution": lambda v: brute_force_min_margin(
        ConditionQuery(a=np.eye(2), p=0.5, mode="unsigned", rho=0.5), v
    ),
}


@pytest.mark.parametrize("entry", sorted(NUMBER_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, "x", float("nan"), -1.0])
def test_number_arguments_reject_non_numbers(entry, bad):
    name = entry.rpartition(".")[2]
    with pytest.raises(DomainError, match=f"{name} must lie in"):
        NUMBER_ENTRY_POINTS[entry](bad)
    NUMBER_ENTRY_POINTS[entry](0.5)


# entry point -> (call with seed set to v, whether a None seed means SeedSpec(0, 0))
SEED_ENTRY_POINTS = {
    "gaussian_matrix": (lambda v: gaussian_matrix(20, 2, v), False),
    "draw_support_signs": (lambda v: draw_support_signs(20, 0.1, v), False),
    "make_instance": (lambda v: make_instance(20, 2, ErrorSpec(rho=0.1), v), False),
    "search_violation": (
        lambda v: search_violation(
            ConditionQuery(a=np.eye(3), p=0.5, mode="unsigned", rho=0.2), restarts=2, seed=v
        ),
        True,
    ),
}


@pytest.mark.parametrize("entry", sorted(SEED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "bad", [3, np.int64(3), (3, 0), "3", None], ids=["int", "numpy_int", "tuple", "str", "None"]
)
def test_entry_points_reject_seeds_that_are_not_seed_specs(entry, bad):
    call, none_is_default = SEED_ENTRY_POINTS[entry]
    if bad is None and none_is_default:
        call(None)
    else:
        with pytest.raises(DomainError, match="seed must be a SeedSpec"):
            call(bad)
    call(SeedSpec(3, 0))


_QUERY = ConditionQuery(a=np.eye(3), p=0.5, mode="unsigned", rho=0.2)
# entry point -> (call with its spec argument set to v, a valid spec)
SPEC_ENTRY_POINTS = {
    "decode": (lambda v: decode(np.eye(2), np.ones(2), v), DecoderConfig(p=0.5)),
    "run_sweep": (run_sweep, SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1)),
    "curve": (curve, CurveRequest(p_min=0.5, p_max=1.0, steps=2)),
    "search_violation": (lambda v: search_violation(v, restarts=1), _QUERY),
    "brute_force_min_margin": (lambda v: brute_force_min_margin(v, 0.5), _QUERY),
    "make_instance": (lambda v: make_instance(20, 2, v, SeedSpec(0, 0)), ErrorSpec(rho=0.1)),
}


@pytest.mark.parametrize("entry", sorted(SPEC_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, "q", None, np.eye(3)], ids=["float", "str", "None", "array"])
def test_entry_points_reject_specs_of_the_wrong_type(entry, bad):
    call, valid = SPEC_ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"must be an? {type(valid).__name__}, got"):
        call(bad)
    call(valid)


def _slots(name, call, **base):
    """{name.arg: (call, base, arg)} for each argument of a valid call."""
    return {f"{name}.{arg}": (call, base, arg) for arg in base}


_EYE, _ONES = np.eye(3), np.ones(3)
_SIGNED = {"support": [0, 1, 2], "signs": {0: -1, 1: -1, 2: -1}}
# Every number and array that a public input type or entry point takes,
# with a valid call around it; None stands for a field the call may leave
# out.  Output records (Instance, PhaseCell, DecodeResult) are not inputs,
# and CurveRequest.with_derivative is a flag, not a number.
NUMERIC_ARGUMENTS = {
    **_slots(
        "ConditionQuery.unsigned", lambda **kw: ConditionQuery(mode="unsigned", **kw),
        a=_EYE, p=0.5, rho=0.2, z=_ONES, support=None, signs=None,
    ),
    **_slots(
        "ConditionQuery.signed", lambda **kw: ConditionQuery(mode="signed", **kw),
        a=_EYE, p=0.5, z=_ONES, rho=None, **_SIGNED,
    ),
    **_slots("ErrorSpec", ErrorSpec, rho=0.1, fixed_signs={0: 1, 3: -1}),
    **_slots(
        "SweepPlan", SweepPlan,
        m=20, n=2, p_values=(0.5, 1.0), rho_values=(0.1, 0.2), trials=1, master_seed=0,
    ),
    **_slots("DecoderConfig", DecoderConfig, p=0.5),
    **_slots("CurveRequest", CurveRequest, p_min=0.5, p_max=1.0, steps=2),
    **_slots("SeedSpec", SeedSpec, master_seed=0, stream_id=0),
    **_slots("decode", lambda a, y: decode(a, y, DecoderConfig(p=0.5)), a=_EYE, y=_ONES),
    **_slots("unsigned_margin", unsigned_margin, a=_EYE, p=0.5, rho=0.2, z=_ONES),
    **_slots("signed_margin", signed_margin, a=_EYE, p=0.5, z=_ONES, **_SIGNED),
    **_slots("attack_arbitrary", attack_arbitrary, a=_EYE, f=_ONES, p=0.5, rho=0.2, z=_ONES),
    **_slots("attack_fixed_sign", attack_fixed_sign, a=_EYE, f=_ONES, p=0.5, z=_ONES, **_SIGNED),
}


def _place(base, bad, data):
    """``base`` with ``bad`` at a drawn place: the value itself for a number
    (or None), one entry of an array, list or tuple, one key or value of a map."""
    if isinstance(base, dict):
        i, on_key = data.draw(st.integers(0, len(base) - 1)), data.draw(st.booleans())
        items = list(base.items())
        k, v = items[i]
        items[i] = (bad, v) if on_key else (k, bad)
        return dict(items)
    if isinstance(base, (list, tuple)):
        i = data.draw(st.integers(0, len(base) - 1))
        return type(base)(bad if j == i else v for j, v in enumerate(base))
    if isinstance(base, np.ndarray):
        out = base.copy()
        out.flat[data.draw(st.integers(0, out.size - 1))] = bad
        return out
    return bad


@pytest.mark.parametrize("slot", sorted(NUMERIC_ARGUMENTS))
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_public_inputs_refuse_nan_and_inf_anywhere(slot, bad, data):
    call, base, arg = NUMERIC_ARGUMENTS[slot]
    call(**base)
    with pytest.raises(DomainError):
        call(**{**base, arg: _place(base[arg], bad, data)})


def _cells(rates, rhos, p=0.5, trials=100):
    return [
        PhaseCell(
            p=p,
            rho=rho,
            m=100,
            n=10,
            trials=trials,
            successes=int(round(rate * trials)),
            mean_objective_gap=0.0,
            wallclock_ms=5,
        )
        for rate, rho in zip(rates, rhos)
    ]


def test_sweep_plan_validation():
    with pytest.raises(DomainError):
        SweepPlan(m=5, n=10, p_values=(0.5,), rho_values=(0.1,), trials=1)
    with pytest.raises(DomainError):
        SweepPlan(m=20, n=2, p_values=(), rho_values=(0.1,), trials=1)
    with pytest.raises(DomainError):
        SweepPlan(m=20, n=2, p_values=(1.5,), rho_values=(0.1,), trials=1)
    with pytest.raises(DomainError):
        SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(1.0,), trials=1)
    with pytest.raises(DomainError):
        SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=0)
    with pytest.raises(DomainError):
        SweepPlan(
            m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1, error_regime="x"
        )


def test_trial_seeds_distinct():
    plan = SweepPlan(
        m=20, n=2, p_values=(0.3, 0.5), rho_values=(0.1, 0.2), trials=3, master_seed=9
    )
    seen = set()
    for pi in range(2):
        for ri in range(2):
            for t in range(3):
                seen.update(trial_seeds(plan, pi, ri, t))
    assert len(seen) == 2 * 2 * 3 * 2


def test_noiseless_cell_all_succeed():
    plan = SweepPlan(
        m=40, n=5, p_values=(0.5,), rho_values=(0.0,), trials=8, master_seed=4
    )
    (cell,) = run_sweep(plan)
    assert cell.successes == cell.trials == 8
    assert cell.success_rate == 1.0
    # the ~1e-13 residual per entry enters the objective as |r|^p, so the
    # noiseless gap floor is around m * 1e-13^0.5
    assert 0 <= cell.mean_objective_gap <= 1e-5


def test_sweep_deterministic_rerun():
    plan = SweepPlan(
        m=40, n=5, p_values=(0.5,), rho_values=(0.1, 0.3), trials=5, master_seed=7
    )
    first = run_sweep(plan)
    second = run_sweep(plan)
    assert _phase_csv(first) == _phase_csv(second)
    for a, b in zip(first, second):
        assert a.successes == b.successes
        assert a.mean_objective_gap == b.mean_objective_gap


def test_sweep_jobs_do_not_change_results():
    plan = SweepPlan(
        m=30,
        n=4,
        p_values=(0.4, 0.8),
        rho_values=(0.1, 0.25),
        trials=3,
        master_seed=13,
    )
    assert _phase_csv(run_sweep(plan, jobs=1)) == _phase_csv(run_sweep(plan, jobs=2))


def test_sweep_cell_grid_order():
    plan = SweepPlan(
        m=30, n=4, p_values=(0.4, 0.8), rho_values=(0.1, 0.2), trials=2, master_seed=3
    )
    cells = run_sweep(plan)
    assert [(c.p, c.rho) for c in cells] == [
        (0.4, 0.1),
        (0.4, 0.2),
        (0.8, 0.1),
        (0.8, 0.2),
    ]


def test_sweep_fixed_sign_regime_runs():
    plan = SweepPlan(
        m=40,
        n=5,
        p_values=(0.5,),
        rho_values=(0.2,),
        trials=5,
        error_regime="fixed_sign",
        master_seed=21,
    )
    (cell,) = run_sweep(plan)
    assert cell.trials == 5
    assert 0 <= cell.successes <= 5


def test_sweep_adversarial_regime_breaks_recovery():
    # adversarial placement defeats decoding at rho where random errors do not
    common = dict(m=60, n=4, p_values=(0.5,), trials=8, master_seed=31)
    random_plan = SweepPlan(rho_values=(0.42,), error_regime="arbitrary", **common)
    attack_plan = SweepPlan(rho_values=(0.42,), error_regime="adversarial", **common)
    (rand_cell,) = run_sweep(random_plan)
    (attack_cell,) = run_sweep(attack_plan)
    assert attack_cell.success_rate < rand_cell.success_rate


@pytest.mark.parametrize("regime", ["arbitrary", "fixed_sign", "adversarial"])
def test_every_regime_places_floor_rho_m_errors(regime):
    # rho m = 1.5 and 4.5: every regime, the attack included, rounds down
    plan = SweepPlan(
        m=30, n=3, p_values=(0.5,), rho_values=(0.05, 0.15), trials=3, error_regime=regime
    )
    for r, rho in enumerate(plan.rho_values):
        for t in range(plan.trials):
            *_, e = harness._build_trial(plan, 0.5, rho, *trial_seeds(plan, 0, r, t))
            assert np.count_nonzero(e) == floor_count(rho, plan.m)


def test_concentration_ratios_and_determinism():
    rep = concentration_study(0.5, 0.5, 20_000, trials=4, seed=3)
    assert rep.ratio_Tminus == pytest.approx(0.25, abs=0.02)
    assert rep.ratio_Tc == pytest.approx(0.5, abs=0.02)
    rep2 = concentration_study(0.5, 0.5, 20_000, trials=4, seed=3)
    assert rep.ratio_Tminus == rep2.ratio_Tminus
    assert rep.ratio_Tc == rep2.ratio_Tc


def test_concentration_balance_point_at_two_thirds():
    rep = concentration_study(2 / 3, 0.5, 30_000, trials=4, seed=5)
    assert rep.ratio_Tminus == pytest.approx(1 / 3, abs=0.02)
    assert rep.ratio_Tc == pytest.approx(1 / 3, abs=0.02)


def test_concentration_margin_signs():
    pos = concentration_study(0.5, 0.5, 20_000, trials=3, seed=11)
    assert pos.margin_sign == "positive"
    assert pos.positive_trials == 3
    neg = concentration_study(0.85, 0.5, 20_000, trials=3, seed=11)
    assert neg.margin_sign == "negative"
    assert neg.negative_trials == 3


def test_concentration_at_p1_counts_the_agreeing_head():
    # at p = 1 the split is 1 - rho > 0 for every rho < 1, the l1 threshold
    # of 1; without the agreeing head these three rows came out negative
    for rho in (0.7, 0.8, 0.9):
        rep = concentration_study(rho, 1.0, 20_000, trials=5, seed=9)
        assert rep.margin_sign == "positive" and rep.positive_trials == 5
        assert rep.ratio_Tminus == pytest.approx(rho / 2, abs=0.02)
        assert rep.ratio_Tc == pytest.approx(1 - rho, abs=0.02)


def test_concentration_validation():
    with pytest.raises(DomainError):
        concentration_study(0.5, 0.5, 5_000, trials=1, seed=0)
    with pytest.raises(DomainError):
        concentration_study(1.2, 0.5, 20_000, trials=1, seed=0)
    with pytest.raises(DomainError):
        concentration_study(0.5, 1.5, 20_000, trials=1, seed=0)
    with pytest.raises(DomainError):
        concentration_study(0.5, 0.5, 20_000, trials=0, seed=0)


def test_phase_csv_layout():
    cells = _cells([1.0, 0.5], [0.1, 0.2])
    text = _phase_csv(cells)
    lines = text.splitlines()
    assert (
        lines[0]
        == "p,rho,m,n,trials,successes,success_rate,mean_objective_gap,wallclock_ms"
    )
    assert len(lines) == 3
    assert text.endswith("\n")
    # wallclock_ms is written as 0 for byte-stable artifacts
    assert lines[1].split(",")[-1] == "0"
    # in a sweep the cells at one p share a stack, and each keeps a share of
    # its time
    plan = SweepPlan(
        m=40, n=4, p_values=(0.5, 1.0), rho_values=(0.1, 0.3), trials=3, master_seed=1
    )
    cells = run_sweep(plan)
    for cell in cells:
        assert isinstance(cell.wallclock_ms, int) and cell.wallclock_ms >= 0
    assert all(row.endswith(",0") for row in _phase_csv(cells).splitlines()[1:])


def test_phase_csv_nine_significant_digits():
    cells = _cells([1 / 3], [0.123456789123], trials=3)
    row = _phase_csv(cells).splitlines()[1].split(",")
    assert row[1] == "0.123456789"
    assert row[6] == "0.333333333"


def test_concentration_csv_layout():
    rep = concentration_study(0.5, 0.5, 20_000, trials=2, seed=1)
    text = _concentration_csv([rep])
    lines = text.splitlines()
    assert lines[0] == "rho,p,m,trials,ratio_Tminus,ratio_Tc,margin_sign"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "0.5"
    assert fields[2] == "20000"
    assert fields[6] in ("positive", "negative", "indeterminate")


def test_run_sweep_rejects_bad_jobs():
    plan = SweepPlan(m=20, n=2, p_values=(0.5,), rho_values=(0.1,), trials=1)
    with pytest.raises(DomainError):
        run_sweep(plan, jobs=0)


def test_run_sweep_starts_no_more_workers_than_stacks(monkeypatch):
    # a fork pool starts all max_workers processes at its first submit, so
    # jobs past the stack count must not reach it; the fake pool maps serially
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    plan = SweepPlan(
        m=30, n=4, p_values=(0.4, 0.8), rho_values=(0.1,), trials=2, master_seed=3
    )
    assert len(harness._stacks(plan)) == 2
    assert _phase_csv(run_sweep(plan, jobs=5000)) == _phase_csv(run_sweep(plan))
    assert sizes == [2]
    # one stack runs in-process, with no pool at all
    run_sweep(SweepPlan(m=30, n=4, p_values=(0.4,), rho_values=(0.1,), trials=2), jobs=5000)
    assert sizes == [2]


def test_singular_trial_logs_one_warning_and_leaves_the_others(monkeypatch, caplog):
    # trial 2's A gets two equal columns; it fails alone, with one logged
    # solver error, and the other trials of the stack decode as on their own
    plan = SweepPlan(
        m=60, n=6, p_values=(0.5,), rho_values=(0.2,), trials=4, master_seed=3
    )
    build = harness._build_trial
    bad_seed = trial_seeds(plan, 0, 0, 2)[0]

    def build_with_equal_columns(plan, p, rho, inst_seed, aux_seed):
        a, y, f, e = build(plan, p, rho, inst_seed, aux_seed)
        if inst_seed == bad_seed:
            a[:, 1] = a[:, 0]
        return a, y, f, e

    monkeypatch.setattr(harness, "_build_trial", build_with_equal_columns)
    with caplog.at_level(logging.WARNING, logger="lpdecode.harness"):
        (cell,) = run_sweep(plan)
    assert len(caplog.records) == 1
    assert "trial=2" in caplog.records[0].getMessage()
    assert cell.errors == 1

    trials = [build(plan, 0.5, 0.2, *trial_seeds(plan, 0, 0, t)) for t in (0, 1, 3)]
    results = [decode(a, y, DecoderConfig(p=0.5)) for a, y, _, _ in trials]
    assert cell.trials == 4
    assert cell.successes == sum(
        apply_decoder_success(r.x_hat, f) for r, (_, _, f, _) in zip(results, trials)
    )
    gaps = [r.objective - lp_objective(e, 0.5) for r, (_, _, _, e) in zip(results, trials)]
    assert cell.mean_objective_gap == float(np.mean(gaps))


def test_cell_stacks_are_bounded_and_do_not_change_results(monkeypatch):
    # the 14 trials at each p (two rho cells of 7) are decoded in the fewest
    # balanced stacks of at most _STACK_ENTRIES entries of A; a stack may
    # span cells but never mixes p, and its size does not change a digit
    plan = SweepPlan(
        m=40, n=4, p_values=(0.5, 1.0), rho_values=(0.1, 0.3), trials=7,
        error_regime="adversarial", master_seed=2,
    )
    whole = _phase_csv(run_sweep(plan))
    decode_stack = harness._decode_stack
    stacks = []

    def recording(a, y, p):
        stacks.append((len(a), p))
        return decode_stack(a, y, p)

    monkeypatch.setattr(harness, "_decode_stack", recording)
    for entries, per_p in ((1, [1] * 14), (3 * 40 * 4, [2, 3, 3, 3, 3]), (1 << 20, [14])):
        monkeypatch.setattr(harness, "_STACK_ENTRIES", entries)
        stacks.clear()
        assert _phase_csv(run_sweep(plan)) == whole
        assert stacks == [(size, p) for p in (0.5, 1.0) for size in per_p]


@pytest.mark.parametrize(
    "m, n, rho_values, trials, block",
    [(200, 20, (0.1, 0.2, 0.3, 0.4), 5, 10), (300, 100, (0.1,), 2, 2)],
)
def test_sweep_stack_holds_its_a_three_times(m, n, rho_values, trials, block):
    # the stacked A, one scaled copy compacted in place and one weighted copy
    # per step, and little else: no per-trial copy of A outlives its trial's
    # build, and finished trials leave the scaled copy without a gather
    plan = SweepPlan(m=m, n=n, p_values=(0.5,), rho_values=rho_values, trials=trials)
    (_, start, stop), *_ = harness._stacks(plan)
    assert stop - start == block
    harness._run_stack(plan, 0, start, stop)  # loads LAPACK; first-call allocations
    tracemalloc.start()
    try:
        harness._run_stack(plan, 0, start, stop)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * block * m * n * 8, peak / (block * m * n * 8)


def test_solver_errors_are_counted_per_cell(monkeypatch):
    # trial 0 of the second cell is singular; it shares a stack with the
    # first cell's trials, and only its own cell counts it
    plan = SweepPlan(
        m=60, n=6, p_values=(0.5,), rho_values=(0.1, 0.2), trials=3, master_seed=3
    )
    clean = run_sweep(plan)
    build = harness._build_trial
    bad_seed = trial_seeds(plan, 0, 1, 0)[0]

    def build_with_equal_columns(plan, p, rho, inst_seed, aux_seed):
        a, y, f, e = build(plan, p, rho, inst_seed, aux_seed)
        if inst_seed == bad_seed:
            a[:, 1] = a[:, 0]
        return a, y, f, e

    monkeypatch.setattr(harness, "_build_trial", build_with_equal_columns)
    cells = run_sweep(plan)
    assert [c.errors for c in clean] == [0, 0]
    assert [c.errors for c in cells] == [0, 1]
    assert cells[1].successes <= cells[1].trials - cells[1].errors
    assert _phase_csv(cells[:1]) == _phase_csv(clean[:1])
    # the CSV has no errors column, so the default output does not change
    assert _phase_csv(cells).splitlines()[0] == _phase_csv(clean).splitlines()[0]
