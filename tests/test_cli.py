"""Command-line interface: flags, exit codes, byte-stable artifacts."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpdecode
from lpdecode import (
    ErrorSpec,
    Instance,
    SeedSpec,
    make_instance,
    read_instance,
    rho_star,
    write_instance,
)
from lpdecode.cli import _parse_grid, _UsageError, main


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_grid_single_value():
    assert _parse_grid("0.5") == (0.5,)


def test_grid_inclusive_endpoint():
    grid = _parse_grid("0.05:0.45:0.05")
    assert len(grid) == 9
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(0.45)


def test_grid_rejects_malformed():
    with pytest.raises(_UsageError):
        _parse_grid("1:2")
    with pytest.raises(_UsageError):
        _parse_grid("0.4:0.2:0.1")
    with pytest.raises(_UsageError):
        _parse_grid("0.1:0.5:0")
    # grids past the point cap are refused before any point is made
    for text in ("0:1:1e-6", "0:0.5:1e-12", "0:1:5e-324", "-1e308:1e308:1"):
        with pytest.raises(_UsageError, match="more than 1000000 points"):
            _parse_grid(text)


def test_no_subcommand_exits_one(capsys):
    rc, _, _ = run(capsys, [])
    assert rc == 1


def test_unknown_flag_exits_one(capsys):
    rc, _, _ = run(capsys, ["threshold", "--p-min", "1", "--p-max", "1", "--bogus"])
    assert rc == 1


def test_help_exits_zero_and_documents_schema(capsys):
    rc, out, _ = run(capsys, ["phase", "--help"])
    assert rc == 0
    assert "Output schema" in out
    assert "success_rate" in out


# One small run of each command (and of each attack mode, whose payloads
# are built apart), to check what --help documents against what is written.
SCHEMA_RUNS = [
    ["threshold", "--p-min", "0.5", "--p-max", "1", "--steps", "2", "--derivative"],
    ["decode", "--p", "0.5", "--m", "20", "--n", "3", "--rho", "0.1", "--seed", "1"],
    ["phase", "--m", "20", "--n", "3", "--p", "0.5", "--rho", "0.1", "--trials", "1",
     "--seed", "1"],
    ["certify", "--mode", "unsigned", "--m", "20", "--n", "3", "--p", "0.5", "--rho", "0.2",
     "--restarts", "1", "--seed", "1"],
    ["attack", "--mode", "arbitrary", "--m", "20", "--n", "3", "--p", "0.5", "--rho", "0.2",
     "--seed", "1"],
    ["attack", "--mode", "fixed_sign", "--m", "20", "--n", "3", "--p", "0.5", "--rho", "0.2",
     "--restarts", "1", "--seed", "1"],
    ["concentration", "--rho", "0.5", "--p", "0.5", "--m", "20000", "--trials", "1",
     "--seed", "1"],
]


@pytest.mark.parametrize(
    "argv", SCHEMA_RUNS, ids=lambda argv: "-".join(argv[:3:2] if argv[1] == "--mode" else argv[:1])
)
def test_help_schema_names_what_the_command_writes(capsys, argv):
    rc, help_text, _ = run(capsys, [argv[0], "--help"])
    assert rc == 0
    kind, names = re.search(
        r"Output schema: (CSV|JSON) with (?:header|keys) ((?:\w+,\s*)*\w+)", help_text
    ).groups()
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    written = out.splitlines()[0].split(",") if kind == "CSV" else list(json.loads(out))
    assert written == re.split(r",\s*", names)


def test_threshold_single_point(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    rc, out, _ = run(
        capsys,
        [
            "threshold",
            "--p-min",
            "1.0",
            "--p-max",
            "1.0",
            "--steps",
            "1",
            "--out",
            str(out_file),
        ],
    )
    assert rc == 0
    assert out == ""
    lines = out_file.read_text().splitlines()
    assert lines[0] == "p,z_star,rho_star,drho_dp"
    assert len(lines) == 2
    assert float(lines[1].split(",")[2]) == pytest.approx(0.239, abs=1e-3)


def test_threshold_full_curve_last_row(capsys):
    rc, out, _ = run(
        capsys,
        ["threshold", "--p-min", "0.05", "--p-max", "1.0", "--steps", "20"],
    )
    assert rc == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 20
    assert float(rows[-1].split(",")[2]) == pytest.approx(0.239, abs=1e-3)
    rhos = [float(r.split(",")[2]) for r in rows]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


def test_threshold_at_tiny_p_exits_zero(capsys):
    # rho* rounds to 1/2 below p ~ 1e-16, which is still a valid p
    rc, out, err = run(capsys, ["threshold", "--p-min", "1e-16", "--p-max", "1", "--steps", "3"])
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "1e-16,0.67448975,0.5,"


def test_threshold_derivative_column(capsys):
    rc, out, _ = run(
        capsys,
        [
            "threshold",
            "--p-min",
            "0.5",
            "--p-max",
            "1.0",
            "--steps",
            "2",
            "--derivative",
        ],
    )
    assert rc == 0
    for row in out.splitlines()[1:]:
        assert float(row.split(",")[3]) < 0


def test_decode_generated_instance(capsys):
    rc, out, _ = run(
        capsys,
        [
            "decode",
            "--p",
            "0.5",
            "--m",
            "60",
            "--n",
            "6",
            "--rho",
            "0.15",
            "--seed",
            "3",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert payload["converged"] is True
    assert payload["max_abs_error"] <= 1e-4
    assert len(payload["x_hat"]) == 6


def test_decode_needs_seed_or_sizes(capsys):
    rc, _, err = run(capsys, ["decode", "--p", "0.5", "--m", "60", "--n", "6"])
    assert rc == 1
    assert "usage error" in err
    rc, _, err = run(
        capsys, ["decode", "--p", "0.5", "--m", "60", "--n", "6", "--rho", "0.1"]
    )
    assert rc == 1
    assert "--seed" in err


def test_decode_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("LPDECODE_SEED", "3")
    rc, out, _ = run(
        capsys,
        ["decode", "--p", "0.5", "--m", "60", "--n", "6", "--rho", "0.15"],
    )
    assert rc == 0
    assert json.loads(out)["success"] is True


def test_decode_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("LPDECODE_SEED", "not-an-int")
    rc, _, err = run(
        capsys, ["decode", "--p", "0.5", "--m", "60", "--n", "6", "--rho", "0.15"]
    )
    assert rc == 1
    assert "LPDECODE_SEED" in err


def test_decode_from_fixture(capsys, tmp_path):
    inst = make_instance(40, 4, ErrorSpec(rho=0.2), SeedSpec(17, 0))
    write_instance(inst, tmp_path / "inst")
    rc, out, _ = run(
        capsys, ["decode", "--p", "0.5", "--instance", str(tmp_path / "inst")]
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["success"] is True
    assert payload["m"] == 40
    assert payload["rho"] == pytest.approx(0.2)


def test_fixture_prefixes_that_differ_after_a_dot_stay_apart(capsys, tmp_path):
    # the suffix is appended to the prefix, not put in place of what
    # follows its last dot
    insts = {rho: make_instance(20, 3, ErrorSpec(rho=float(rho)), SeedSpec(5, 0))
             for rho in ("0.1", "0.2")}
    for rho, inst in insts.items():
        write_instance(inst, tmp_path / f"case_rho{rho}")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"case_rho{rho}.{ext}" for rho in insts for ext in ("csv", "json")
    ]
    for rho, inst in insts.items():
        prefix = tmp_path / f"case_rho{rho}"
        np.testing.assert_array_equal(read_instance(prefix).y, inst.y)
        rc, out, _ = run(capsys, ["decode", "--p", "0.5", "--instance", str(prefix)])
        assert rc == 0
        assert json.loads(out)["rho"] == float(rho)


def test_decode_from_fixture_ignores_seed(capsys, tmp_path):
    # --seed only seeds a generated instance; a fixture's decode reads none
    write_instance(make_instance(40, 4, ErrorSpec(rho=0.3), SeedSpec(17, 0)), tmp_path / "inst")
    argv = ["decode", "--p", "0.5", "--instance", str(tmp_path / "inst")]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert run(capsys, argv + ["--seed", "5"]) == (0, out, "")


def test_decode_domain_error_exits_two(capsys):
    rc, _, err = run(
        capsys,
        ["decode", "--p", "0.5", "--m", "4", "--n", "8", "--rho", "0.1", "--seed", "1"],
    )
    assert rc == 2
    assert "error" in err


def test_phase_byte_identical_and_jobs_independent(capsys, tmp_path):
    argv = [
        "phase",
        "--regime",
        "arbitrary",
        "--m",
        "40",
        "--n",
        "5",
        "--p",
        "0.5",
        "--rho",
        "0.1:0.3:0.1",
        "--trials",
        "4",
        "--seed",
        "42",
    ]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert run(capsys, argv + ["--out", str(paths[0])])[0] == 0
    assert run(capsys, argv + ["--out", str(paths[1])])[0] == 0
    assert run(capsys, argv + ["--jobs", "2", "--out", str(paths[2])])[0] == 0
    data = [p.read_bytes() for p in paths]
    assert data[0] == data[1] == data[2]
    lines = data[0].decode().splitlines()
    assert len(lines) == 4  # header + three rho grid points
    assert lines[0].startswith("p,rho,m,n,trials")


def test_phase_requires_seed(capsys):
    rc, _, err = run(
        capsys,
        [
            "phase",
            "--m",
            "40",
            "--n",
            "5",
            "--p",
            "0.5",
            "--rho",
            "0.1",
            "--trials",
            "2",
        ],
    )
    assert rc == 1
    assert "--seed" in err


def test_certify_unsigned_report(capsys):
    rc, out, _ = run(
        capsys,
        [
            "certify",
            "--mode",
            "unsigned",
            "--p",
            "0.5",
            "--m",
            "40",
            "--n",
            "3",
            "--rho",
            "0.6",
            "--restarts",
            "2",
            "--seed",
            "9",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "unsigned"
    assert payload["violated"] is True  # far above threshold
    assert len(payload["witness"]) == 3


def test_certify_signed_generated_support(capsys):
    rc, out, _ = run(
        capsys,
        [
            "certify",
            "--mode",
            "signed",
            "--p",
            "0.5",
            "--m",
            "40",
            "--n",
            "3",
            "--rho",
            "0.3",
            "--restarts",
            "2",
            "--seed",
            "9",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "signed"
    assert payload["rho"] == pytest.approx(12 / 40)


def test_certify_signed_reads_support_from_instance(capsys, tmp_path):
    inst = make_instance(40, 3, ErrorSpec(rho=0.0, fixed_signs={2: 1, 5: -1, 9: -1}),
                         SeedSpec(4, 0))
    write_instance(inst, tmp_path / "inst")
    rc, out, _ = run(
        capsys,
        ["certify", "--mode", "signed", "--p", "0.5", "--instance", str(tmp_path / "inst"),
         "--restarts", "2", "--seed", "9"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "signed"
    assert payload["rho"] == 3 / 40


def test_certify_unsigned_needs_rho(capsys):
    rc, _, err = run(
        capsys,
        ["certify", "--mode", "unsigned", "--p", "0.5", "--m", "40", "--n", "3",
         "--seed", "9"],
    )
    assert rc == 1
    assert "rho" in err


def test_attack_arbitrary_reference_invocation(capsys):
    # above threshold (rho_star(0.5) ~ 0.341) the alternative codeword wins
    assert 0.45 > rho_star(0.5) + 0.10
    rc, out, _ = run(
        capsys,
        [
            "attack",
            "--mode",
            "arbitrary",
            "--m",
            "400",
            "--n",
            "20",
            "--p",
            "0.5",
            "--rho",
            "0.45",
            "--seed",
            "7",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["succeeded"] is True
    assert payload["objective_x_alt"] <= payload["objective_f"]
    assert payload["margin"] < 0


def test_attack_fixed_sign_above_two_thirds(capsys):
    rc, out, _ = run(
        capsys,
        [
            "attack",
            "--mode",
            "fixed_sign",
            "--m",
            "60",
            "--n",
            "4",
            "--p",
            "0.5",
            "--rho",
            "0.8",
            "--seed",
            "5",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["margin"] < 0
    assert payload["succeeded"] is True
    assert payload["objective_x_alt"] <= payload["objective_f"]


def test_attack_fixed_sign_at_p1(capsys):
    # p = 1 is accepted: the margin counts T+, so the head needs no escalation
    rc, out, _ = run(
        capsys,
        [
            "attack",
            "--mode",
            "fixed_sign",
            "--m",
            "60",
            "--n",
            "4",
            "--p",
            "1.0",
            "--rho",
            "0.8",
            "--seed",
            "5",
        ],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["margin"] < 0
    assert payload["succeeded"] is True
    assert payload["objective_f"] - payload["objective_x_alt"] == pytest.approx(
        -payload["margin"], rel=1e-9
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "arbitrary", "--m", "400", "--n", "20", "--p", "0.5", "--rho", "0.45",
         "--seed", "7"],
        ["--mode", "fixed_sign", "--m", "60", "--n", "4", "--p", "0.5", "--rho", "0.8",
         "--seed", "5"],
        # both objectives print as 4.9288543359451616e+17, where one ulp is 64,
        # so comparing them says nothing about the margin of -0.36
        ["--mode", "fixed_sign", "--m", "60", "--n", "6", "--p", "0.9", "--rho", "0.55",
         "--restarts", "2", "--seed", "27"],
        ["--mode", "arbitrary", "--m", "400", "--n", "20", "--p", "0.5", "--rho", "0.1",
         "--seed", "7"],
    ],
    ids=["arbitrary-readme", "fixed_sign-readme", "fixed_sign-rounded", "arbitrary-below"],
)
def test_attack_succeeds_exactly_when_the_margin_is_negative(capsys, argv):
    rc, out, _ = run(capsys, ["attack", *argv])
    assert rc == 0
    payload = json.loads(out)
    assert payload["succeeded"] is (payload["margin"] < 0)


def test_attack_deterministic(capsys):
    argv = [
        "attack",
        "--mode",
        "arbitrary",
        "--m",
        "100",
        "--n",
        "8",
        "--p",
        "0.5",
        "--rho",
        "0.45",
        "--seed",
        "11",
    ]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_concentration_csv_output(capsys, tmp_path):
    out_file = tmp_path / "conc.csv"
    argv = [
        "concentration",
        "--rho",
        "0.5:0.7:0.2",
        "--p",
        "0.5",
        "--m",
        "20000",
        "--trials",
        "2",
        "--seed",
        "6",
        "--out",
        str(out_file),
    ]
    assert run(capsys, argv)[0] == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "rho,p,m,trials,ratio_Tminus,ratio_Tc,margin_sign"
    assert len(lines) == 3
    first = out_file.read_bytes()
    assert run(capsys, argv)[0] == 0
    assert out_file.read_bytes() == first


def test_concentration_domain_error_exits_two(capsys):
    rc, _, err = run(
        capsys,
        [
            "concentration",
            "--rho",
            "0.5",
            "--p",
            "0.5",
            "--m",
            "100",
            "--trials",
            "2",
            "--seed",
            "6",
        ],
    )
    assert rc == 2
    assert "error" in err


_PHASE = ["phase", "--m", "40", "--n", "5", "--trials", "1", "--seed", "1"]


@pytest.mark.parametrize(
    "argv,code",
    [
        (_PHASE + ["--p", "0.5", "--rho", "nan:1:0.1"], 1),
        (_PHASE + ["--p", "0:inf:0.1", "--rho", "0.1"], 1),
        (_PHASE + ["--p", "0.5", "--rho", "abc"], 1),
        (_PHASE + ["--p", "0.5", "--rho", "0:1:1e-6"], 1),
        (["decode", "--p", "0.5", "--instance", "{tmp}/missing"], 1),
        (["threshold", "--p-min", "1", "--p-max", "1", "--steps", "1", "--out", "{tmp}"], 1),
        (["certify", "--mode", "signed", "--p", "0.5", "--m", "40", "--n", "3",
          "--rho", "1.5", "--seed", "9"], 2),
        (["certify", "--mode", "unsigned", "--p", "0.5", "--rho", "0.2", "--seed", "9"], 1),
        (["certify", "--mode", "signed", "--p", "0.5", "--m", "40", "--n", "3",
          "--seed", "9"], 1),
        (["attack", "--mode", "fixed_sign", "--m", "60", "--n", "4", "--p", "0.5",
          "--rho", "1.5", "--seed", "5"], 2),
    ],
    ids=[
        "nan_grid",
        "inf_grid",
        "text_grid",
        "over_cap_grid",
        "missing_instance",
        "unwritable_out",
        "certify_rho_above_one",
        "certify_without_matrix",
        "certify_signed_without_support",
        "attack_rho_above_one",
    ],
)
def test_bad_input_exits_with_one_line(capsys, tmp_path, argv, code):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    rc, out, err = run(capsys, argv)
    assert rc == code
    assert out == ""
    assert len(err.splitlines()) == 1


def _drop_f(sidecar):
    data = json.loads(sidecar.read_text())
    del data["f"]
    sidecar.write_text(json.dumps(data))


@pytest.mark.parametrize(
    "corrupt",
    [_drop_f, lambda sidecar: sidecar.write_text("{not json")],
    ids=["missing_key", "not_json"],
)
def test_malformed_fixture_exits_with_one_line(capsys, tmp_path, corrupt):
    write_instance(make_instance(20, 3, ErrorSpec(rho=0.1), SeedSpec(4, 0)), tmp_path / "inst")
    corrupt(tmp_path / "inst.json")
    rc, out, err = run(capsys, ["decode", "--p", "0.5", "--instance", str(tmp_path / "inst")])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "malformed fixture" in err


_DECODE = ["decode", "--p", "0.5"]
_CERTIFY = ["certify", "--mode", "signed", "--p", "0.5", "--seed", "0"]


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (_DECODE, "f", [float("nan"), 0.0, 0.0]),
        (_DECODE, "f", [0.0, 0.0]),
        (_CERTIFY, "y", [0.0] * 19),
    ],
    ids=["decode_f_nan", "decode_f_short", "certify_y_short"],
)
def test_corrupt_fixture_vector_exits_two_with_one_line(capsys, tmp_path, argv, key, value):
    # a NaN f was decoded and printed as invalid JSON; a short f or y ended
    # in a ValueError traceback
    write_instance(make_instance(20, 3, ErrorSpec(rho=0.1), SeedSpec(4, 0)), tmp_path / "inst")
    sidecar = tmp_path / "inst.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), key: value}))
    rc, out, err = run(capsys, argv + ["--instance", str(tmp_path / "inst")])
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "must" in err


_SEEDS = ["0", "7"]
_M, _N = ["12", "40"], ["1", "4"]
# subcommand -> {flag: small valid values}
CLI_VALUES = {
    "threshold": {"--p-min": ["0.25", "1"], "--p-max": ["0.5", "1"], "--steps": ["1", "5"]},
    "decode": {"--p": ["0.5", "1"], "--m": _M, "--n": _N, "--rho": ["0.1", "0.3"],
               "--seed": _SEEDS},
    "phase": {"--m": _M, "--n": _N, "--p": ["0.5", "0.5:1:0.5"], "--rho": ["0.1", "0:0.2:0.1"],
              "--trials": ["1", "2"], "--regime": ["arbitrary", "fixed_sign", "adversarial"],
              "--jobs": ["1"], "--seed": _SEEDS},
    "certify": {"--mode": ["unsigned", "signed"], "--p": ["0.5", "1"], "--m": _M, "--n": _N,
                "--rho": ["0.1", "0.4"], "--restarts": ["1", "2"], "--seed": _SEEDS},
    "attack": {"--mode": ["arbitrary", "fixed_sign"], "--m": _M, "--n": _N,
               "--p": ["0.5", "1"], "--rho": ["0.2", "0.45"], "--restarts": ["1", "2"],
               "--seed": _SEEDS},
    "concentration": {"--rho": ["0.5", "0.5:0.8:0.15"], "--p": ["0.5", "1"],
                      "--m": ["10000"], "--trials": ["1", "2"], "--seed": _SEEDS},
}
# non-numbers, non-finite and out-of-range values, a zero grid step and a
# grid past the point cap
BAD_TOKENS = ["nan", "inf", "-1", "0", "1e308", "x", "", "0:1:0", "0:1:1e-6"]


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(CLI_VALUES)))
    flags = CLI_VALUES[command]
    bad = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, valid in flags.items():
        argv += [f"{flag}={draw(st.sampled_from(BAD_TOKENS if flag in bad else valid))}"]
    return argv


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(argv=_cli_argv())
def test_every_run_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 0:
        assert out.getvalue()
    if rc == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1


# Flags that were removed, with a run that passes one; argparse must refuse it.
REMOVED_FLAGS = {
    # z* is computed in closed form, so there is no search tolerance to set
    "threshold-tol": (
        "--tol", ["threshold", "--p-min", "1", "--p-max", "1", "--steps", "1", "--tol", "1e-3"]
    ),
    # decode reports success at the one tolerance every caller used, 1e-4
    "decode-success-tol": (
        "--success-tol",
        ["decode", "--p", "0.5", "--m", "20", "--n", "2", "--rho", "0.1", "--seed", "0",
         "--success-tol", "1e-3"],
    ),
    # every decode is one IRLS run: restarts from perturbed starts changed
    # no recovery
    "decode-restarts": (
        "--restarts",
        ["decode", "--p", "0.5", "--m", "20", "--n", "2", "--rho", "0.1", "--seed", "0",
         "--restarts", "2"],
    ),
}


@pytest.mark.parametrize("name", sorted(REMOVED_FLAGS))
def test_removed_flag_is_refused(capsys, name):
    flag, argv = REMOVED_FLAGS[name]
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert flag in err


def _src_env():
    """The environment for a fresh interpreter that imports this lpdecode."""
    src = str(Path(lpdecode.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_python_m_runs_cli(tmp_path):
    argv = ["decode", "--p", "0.5", "--instance", str(tmp_path / "missing")]
    for module in ("lpdecode", "lpdecode.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=_src_env(), timeout=120,
        )
        assert proc.returncode == 1, module
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "missing" in proc.stderr


def test_overflowing_decode_exits_with_one_line(tmp_path):
    # the minimiser of this fixture lies past the float range; in a fresh
    # interpreter every warning would print, so stderr shows all there is
    a = 1e-200 * np.random.default_rng(0).standard_normal((20, 3))
    e = np.zeros(20)
    e[2], e[7] = 3e200, -2e200
    inst = Instance(a=a, f=np.zeros(3), e=e, y=e.copy(), support=np.array([2, 7]),
                    signs={2: 1, 7: -1})
    write_instance(inst, tmp_path / "inst")
    proc = subprocess.run(
        [sys.executable, "-m", "lpdecode", "decode", "--p", "0.5",
         "--instance", str(tmp_path / "inst")],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: objective became non-finite"]


def test_overflowing_certify_exits_with_one_line(tmp_path):
    # a finite A whose products A z overflow: no margin of the search is
    # finite, and in a fresh interpreter every warning would print
    a = 5e307 * lpdecode.gaussian_matrix(30, 3, SeedSpec(0, 0))
    inst = Instance(a=a, f=np.zeros(3), e=np.zeros(30), y=np.zeros(30),
                    support=np.array([], dtype=np.int64))
    write_instance(inst, tmp_path / "inst")
    proc = subprocess.run(
        [sys.executable, "-m", "lpdecode", "certify", "--instance", str(tmp_path / "inst"),
         "--mode", "unsigned", "--p", "0.5", "--rho", "0.3", "--seed", "1"],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "A z overflowed" in proc.stderr


# Run in a fresh interpreter: the last stdout line is the exit code and the
# loaded scipy, multiprocessing and numpy.ma modules, as JSON.
_MODULES_AFTER = (
    "import json, sys\n"
    "import lpdecode, lpdecode.cli\n"
    "rc = lpdecode.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else None\n"
    "sys.stdout.flush()\n"
    "print(json.dumps([rc, sorted(m for m in sys.modules\n"
    "                          if m.split('.')[0] in ('scipy', 'multiprocessing')\n"
    "                          or m.split('.')[:2] == ['numpy', 'ma'])]))\n"
)


def _fresh_run(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, *argv],
        capture_output=True, text=True, env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy_and_no_multiprocessing():
    assert _fresh_run([]) == [None, []]


def _loaded(modules, name):
    return any(m == name or m.startswith(name + ".") for m in modules)


SMALL = ["--m", "40", "--n", "4", "--p", "0.5", "--seed", "0"]
PHASE_SMALL = ["--m", "40", "--n", "4", "--p", "0.5:1:0.5", "--rho", "0.1", "--trials", "2",
               "--seed", "0"]
# stands for the prefix of a fixture the test writes to tmp_path
FIXTURE = "<fixture>"
# No command loads numpy.ma, which np.unique and np.setdiff1d import.
NEVER = ["scipy", "numpy.ma"]


# (argv, exit code, modules it must not load, modules it must load)
COMMAND_IMPORTS = {
    "certify": (["certify", "--mode", "unsigned", *SMALL, "--rho", "0.2", "--restarts", "2"], 0,
                NEVER, []),
    "certify-signed": (["certify", "--mode", "signed", *SMALL, "--rho", "0.2", "--restarts", "2"],
                       0, NEVER, []),
    "attack-arbitrary": (["attack", "--mode", "arbitrary", *SMALL, "--rho", "0.45"], 0,
                         NEVER, []),
    "attack-fixed-sign": (["attack", "--mode", "fixed_sign", *SMALL, "--rho", "0.45",
                           "--restarts", "2"], 0, NEVER, []),
    "concentration": (["concentration", "--rho", "0.5", "--p", "0.5", "--m", "10000",
                       "--trials", "2", "--seed", "0"], 0, NEVER, []),
    "help": (["--help"], 0, NEVER, []),
    "usage-error": (["decode", "--p", "0.5"], 1, NEVER, []),
    "domain-error": (["decode", "--p", "2", "--m", "40", "--n", "4", "--rho", "0.1",
                      "--seed", "0"], 2,
                     NEVER, []),
    # the decoder loads SciPy's compiled LAPACK module alone, no scipy package
    "decode": (["decode", *SMALL, "--rho", "0.1"], 0, [*NEVER, "multiprocessing"], []),
    # read_instance validates the fixture
    "decode-instance": (["decode", "--p", "0.5", "--instance", FIXTURE], 0,
                        [*NEVER, "multiprocessing"], []),
    # two p values make two stacks, so --jobs 2 forks
    "phase-jobs1": (["phase", *PHASE_SMALL, "--jobs", "1"], 0, [*NEVER, "multiprocessing"], []),
    "phase-jobs2": (["phase", *PHASE_SMALL, "--jobs", "2"], 0, NEVER, ["multiprocessing"]),
    "threshold": (["threshold", "--p-min", "0.5", "--p-max", "1", "--steps", "3",
                   "--derivative"], 0, [*NEVER, "multiprocessing"], []),
}


@pytest.mark.parametrize("name", sorted(COMMAND_IMPORTS))
def test_command_loads_only_what_it_uses(name, tmp_path):
    argv, code, absent, present = COMMAND_IMPORTS[name]
    if FIXTURE in argv:
        write_instance(make_instance(40, 4, ErrorSpec(rho=0.2), SeedSpec(17, 0)), tmp_path / "inst")
        argv = [str(tmp_path / "inst") if arg == FIXTURE else arg for arg in argv]
    rc, modules = _fresh_run(argv)
    assert rc == code
    for mod in absent:
        assert not _loaded(modules, mod), mod
    for mod in present:
        assert _loaded(modules, mod), mod


def test_repeated_calls_share_no_parser_state(capsys):
    # main builds its parser once per process: a failed parse must leave
    # nothing behind for the calls after it
    argv = ["certify", "--mode", "signed", *SMALL, "--rho", "0.2", "--restarts", "2"]
    calls = [run(capsys, args) for args in (argv[:-1] + ["x"], argv, argv)]
    assert [rc for rc, _, _ in calls] == [1, 0, 0]
    assert calls[1][1] == calls[2][1] != ""
    assert calls[1][2] == calls[2][2] == ""
