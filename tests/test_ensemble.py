"""Instance generation: Gaussian matrices, sparse errors, fixture I/O."""

import json

import numpy as np
import pytest

from lpdecode import (
    DomainError,
    ErrorSpec,
    SeedSpec,
    apply_decoder_success,
    floor_count,
    gaussian_matrix,
    make_instance,
    read_instance,
    write_instance,
)
from lpdecode.ensemble import draw_support_signs

# entry point -> (argument, call with that argument set to v)
INTEGER_ARGS = {
    "gaussian_matrix.m": ("m", lambda v: gaussian_matrix(v, 2, SeedSpec(0, 0))),
    "gaussian_matrix.n": ("n", lambda v: gaussian_matrix(5, v, SeedSpec(0, 0))),
    "make_instance.m": ("m", lambda v: make_instance(v, 2, ErrorSpec(rho=0.2), SeedSpec(0, 0))),
    "make_instance.n": ("n", lambda v: make_instance(5, v, ErrorSpec(rho=0.2), SeedSpec(0, 0))),
    "SeedSpec.master_seed": ("master_seed", lambda v: SeedSpec(v, 0)),
    "SeedSpec.stream_id": ("stream_id", lambda v: SeedSpec(0, v)),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGS))
@pytest.mark.parametrize("bad", [2.5, float("nan"), "3"])
def test_entry_points_reject_non_integers(entry, bad):
    name, call = INTEGER_ARGS[entry]
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        call(bad)
    call(np.int64(3))


def test_floor_count_guards_float_droop():
    # 0.29 * 100 evaluates to 28.999999999999996 in binary floats
    assert floor_count(0.29, 100) == 29
    assert floor_count(0.2, 10) == 2
    assert floor_count(0.25, 10) == 2
    assert floor_count(0.0, 50) == 0


def test_gaussian_matrix_reproducible():
    a = gaussian_matrix(20, 5, SeedSpec(7, 1))
    b = gaussian_matrix(20, 5, SeedSpec(7, 1))
    np.testing.assert_array_equal(a, b)
    c = gaussian_matrix(20, 5, SeedSpec(7, 2))
    assert not np.array_equal(a, c)


def test_gaussian_matrix_moments():
    a = gaussian_matrix(1000, 100, SeedSpec(3, 0))
    assert abs(a.mean()) <= 0.01
    assert abs(a.var() - 1.0) <= 0.02


def test_gaussian_matrix_rejects_wide():
    with pytest.raises(DomainError):
        gaussian_matrix(5, 6, SeedSpec(0, 0))
    with pytest.raises(DomainError):
        gaussian_matrix(5, 0, SeedSpec(0, 0))


def test_make_instance_noiseless():
    inst = make_instance(30, 4, ErrorSpec(rho=0.0), SeedSpec(1, 0))
    assert inst.support.size == 0
    np.testing.assert_array_equal(inst.e, np.zeros(30))
    np.testing.assert_array_equal(inst.y, inst.a @ inst.f)
    inst.validate()


def test_make_instance_support_size_and_sparsity():
    inst = make_instance(100, 10, ErrorSpec(rho=0.3), SeedSpec(2, 0))
    assert inst.support.size == 30
    off = np.setdiff1d(np.arange(100), inst.support)
    assert np.all(inst.e[off] == 0)
    assert np.all(inst.e[inst.support] != 0)
    inst.validate()


def test_make_instance_exact_measurement_identity():
    inst = make_instance(50, 5, ErrorSpec(rho=0.2), SeedSpec(3, 0))
    np.testing.assert_array_equal(inst.y, inst.a @ inst.f + inst.e)


def test_make_instance_deterministic():
    spec = ErrorSpec(rho=0.2)
    a = make_instance(40, 6, spec, SeedSpec(9, 4))
    b = make_instance(40, 6, spec, SeedSpec(9, 4))
    np.testing.assert_array_equal(a.a, b.a)
    np.testing.assert_array_equal(a.f, b.f)
    np.testing.assert_array_equal(a.e, b.e)
    np.testing.assert_array_equal(a.support, b.support)
    assert a.signs == b.signs


def test_make_instance_fixed_signs():
    pattern = {3: 1, 7: -1, 12: 1}
    spec = ErrorSpec(rho=0.2, fixed_signs=pattern)
    inst = make_instance(20, 3, spec, SeedSpec(5, 0))
    np.testing.assert_array_equal(inst.support, [3, 7, 12])
    assert inst.signs == pattern
    for i, s in pattern.items():
        assert np.sign(inst.e[i]) == s
    inst.validate()


def test_error_spec_validation():
    with pytest.raises(DomainError):
        ErrorSpec(rho=1.0)
    with pytest.raises(DomainError):
        ErrorSpec(rho=-0.1)
    with pytest.raises(DomainError):
        ErrorSpec(rho=0.2, fixed_signs={})
    with pytest.raises(DomainError):
        ErrorSpec(rho=0.2, fixed_signs={1: 2})


def test_make_instance_rejects_bad_shapes():
    with pytest.raises(DomainError):
        make_instance(3, 5, ErrorSpec(rho=0.1), SeedSpec(0, 0))


def test_fixed_signs_out_of_range_rejected():
    spec = ErrorSpec(rho=0.2, fixed_signs={25: 1})
    with pytest.raises(DomainError):
        make_instance(20, 3, spec, SeedSpec(0, 0))


def test_draw_support_signs_keeps_frozen_draw_order():
    support, signs = draw_support_signs(40, 0.3, SeedSpec(5, 1))
    gen = SeedSpec(5, 1).generator()
    expected = np.sort(gen.choice(40, size=12, replace=False))
    np.testing.assert_array_equal(support, expected)
    assert signs == {int(i): int(s) for i, s in zip(expected, 2 * gen.integers(0, 2, 12) - 1)}


@pytest.mark.parametrize("rho", [-0.1, 1.5, float("nan")])
def test_draw_support_signs_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(DomainError):
        draw_support_signs(40, rho, SeedSpec(5, 1))


@pytest.mark.parametrize("m", ["x", None, 2.5, -1, 0])
def test_draw_support_signs_rejects_bad_m(m):
    with pytest.raises(DomainError, match="^m must"):
        draw_support_signs(m, 0.5, SeedSpec(5, 1))


def test_seed_spec_rejects_negative_stream():
    with pytest.raises(DomainError):
        SeedSpec(1, -1)


def test_apply_decoder_success():
    f = np.array([1.0, -2.0, 3.0])
    assert apply_decoder_success(f.copy(), f)
    assert apply_decoder_success(f + 0.5e-4, f)
    assert not apply_decoder_success(f + 10 * 1e-4, f)
    with pytest.raises(DomainError):
        apply_decoder_success(np.ones(2), f)


def test_instance_validate_catches_corruption(tmp_path):
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    inst.y = inst.y + 1.0
    with pytest.raises(DomainError):
        inst.validate()
    # mass off the support, with y = a f + e kept
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    off = min(set(range(20)) - set(inst.support.tolist()))
    inst.e[off] = 1.0
    inst.y = inst.a @ inst.f + inst.e
    with pytest.raises(DomainError, match="off its declared support"):
        inst.validate()
    # a support index outside range(m)
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    inst.support = np.append(inst.support, 20)
    with pytest.raises(DomainError):
        inst.validate()
    # a NaN in f made a NaN residual, which passed the residual test
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    inst.f[0] = np.nan
    with pytest.raises(DomainError, match="f must be finite"):
        inst.validate()
    # a vector one entry short broke the residual's product or sum
    for name in ("f", "e", "y"):
        inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
        setattr(inst, name, getattr(inst, name)[:-1])
        with pytest.raises(DomainError, match=f"{name} must have shape"):
            inst.validate()
    # a sign map entry against the sign of e
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    i = int(inst.support[1])
    inst.signs[i] = -inst.signs[i]
    with pytest.raises(DomainError, match=f"sign map disagrees with e at index {i}$"):
        inst.validate()
    # a sign of 5 where e is 0 was written and read back unchanged
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    i = int(inst.support[0])
    inst.e[i] = 0.0
    inst.y = inst.a @ inst.f + inst.e
    inst.signs[i] = 5
    with pytest.raises(DomainError, match=r"\+1 or -1"):
        inst.validate()
    write_instance(inst, tmp_path / "sign5")
    with pytest.raises(DomainError, match=r"\+1 or -1"):
        read_instance(tmp_path / "sign5")


def test_instance_roundtrip(tmp_path):
    inst = make_instance(25, 4, ErrorSpec(rho=0.2), SeedSpec(13, 2))
    prefix = tmp_path / "fixture"
    csv_path, json_path = write_instance(inst, prefix)
    assert csv_path.exists() and json_path.exists()
    back = read_instance(prefix)
    np.testing.assert_array_equal(back.a, inst.a)
    np.testing.assert_array_equal(back.f, inst.f)
    np.testing.assert_array_equal(back.e, inst.e)
    np.testing.assert_array_equal(back.y, inst.y)
    np.testing.assert_array_equal(back.support, inst.support)
    assert back.signs == inst.signs
    assert back.seed == SeedSpec(13, 2)


def test_roundtrip_bytes_stable(tmp_path):
    inst = make_instance(10, 2, ErrorSpec(rho=0.3), SeedSpec(21, 0))
    write_instance(inst, tmp_path / "a")
    write_instance(inst, tmp_path / "b")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("support", [[0.7], [[0]], [10]], ids=["float", "2d", "past_end"])
def test_read_instance_rejects_malformed_support(tmp_path, support):
    # a float index was truncated to 0 and matched the sign map's key "0"
    inst = make_instance(10, 2, ErrorSpec(rho=0.0, fixed_signs={0: 1}), SeedSpec(22, 0))
    write_instance(inst, tmp_path / "bad")
    json_file = tmp_path / "bad.json"
    sidecar = json.loads(json_file.read_text())
    sidecar["support"] = support
    json_file.write_text(json.dumps(sidecar))
    with pytest.raises(DomainError, match="support must"):
        read_instance(tmp_path / "bad")


def test_read_instance_rejects_fractional_signs(tmp_path):
    # a sign of -1.7 was truncated to -1 and accepted
    inst = make_instance(20, 3, ErrorSpec(rho=0.2), SeedSpec(4, 0))
    write_instance(inst, tmp_path / "bad")
    json_file = tmp_path / "bad.json"
    sidecar = json.loads(json_file.read_text())
    sidecar["signs"] = {i: s * 1.7 for i, s in sidecar["signs"].items()}
    json_file.write_text(json.dumps(sidecar))
    with pytest.raises(DomainError, match=r"\+1 or -1"):
        read_instance(tmp_path / "bad")


def test_read_instance_rejects_shape_mismatch(tmp_path):
    inst = make_instance(10, 2, ErrorSpec(rho=0.3), SeedSpec(21, 0))
    write_instance(inst, tmp_path / "bad")
    csv_file = tmp_path / "bad.csv"
    lines = csv_file.read_text().splitlines()
    csv_file.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DomainError):
        read_instance(tmp_path / "bad")
