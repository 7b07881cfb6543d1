"""Command-line front end.

Six subcommands: threshold, decode, phase, certify, attack, concentration.
Single-object results are JSON, sweeps are CSV; everything stochastic takes
--seed (or the LPDECODE_SEED environment variable) and a rerun with the
same flags and seed produces byte-identical output.  Exit codes: 0 success,
1 usage error or a file that cannot be read or written, 2 numeric or domain
failure, or a size too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .certify import (
    ConditionQuery,
    attack_arbitrary,
    attack_fixed_sign,
    search_violation,
    unsigned_margin,
)
from .decoder import DecoderConfig, decode, lp_objective
from .ensemble import (
    ErrorSpec,
    SeedSpec,
    apply_decoder_success,
    draw_support_signs,
    gaussian_matrix,
    make_instance,
    mix64,
    read_instance,
)
from .errors import _MAX_POINTS, LpdecodeError
from .harness import _REGIMES, SweepPlan, concentration_study, run_sweep
from .threshold import CurveRequest, curve

_ENV_SEED = "LPDECODE_SEED"


class _UsageError(Exception):
    """Bad flag combination detected after argparse; exits 1."""


def _parse_grid(text: str) -> tuple[float, ...]:
    """A finite float, or an inclusive start:stop:step grid of them.

    Endpoint test uses stop + step/2 so accumulated float error cannot drop
    the last point of grids like 0.05:0.45:0.05.
    """
    try:
        values = [float(v) for v in text.split(":")]
    except ValueError:
        raise _UsageError(f"grid values must be numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise _UsageError(f"grid values must be finite, got {text!r}")
    if len(values) == 1:
        return (values[0],)
    if len(values) != 3:
        raise _UsageError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0:
        raise _UsageError(f"grid step must be positive, got {step}")
    if stop < start:
        raise _UsageError(f"grid stop {stop} is below start {start}")
    count = (stop - start + step / 2) // step + 1
    # refuses a mistyped step such as 1e-12
    if not count <= _MAX_POINTS:
        raise _UsageError(f"grid {text!r} has more than {_MAX_POINTS} points")
    return tuple(start + i * step for i in range(int(count)))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get(_ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise _UsageError(f"{_ENV_SEED} must be an integer, got {env!r}") from None
    raise _UsageError(f"--seed is required (or set {_ENV_SEED})")


# -- writers: every output schema is in the parser epilogs below --


def _json_report(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _g(x: float | None) -> str:
    """A float as CSV writes it: 9 significant digits, or empty for None."""
    return "" if x is None else f"{x:.9g}"


def _csv(header: str, rows) -> str:
    """The header line, then one line per row of fields (ints, or strings
    already formatted), each line ending in a newline."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def _curve_csv(points) -> str:
    return _csv(
        "p,z_star,rho_star,drho_dp",
        ((_g(pt.p), _g(pt.z_star), _g(pt.rho_star), _g(pt.drho_dp)) for pt in points),
    )


def _phase_csv(cells) -> str:
    """wallclock_ms is written as 0, so reruns of a plan are byte-identical;
    the measured value stays on each PhaseCell."""
    return _csv(
        "p,rho,m,n,trials,successes,success_rate,mean_objective_gap,wallclock_ms",
        ((_g(c.p), _g(c.rho), c.m, c.n, c.trials, c.successes, _g(c.success_rate),
          _g(c.mean_objective_gap), 0) for c in cells),
    )


def _concentration_csv(reports) -> str:
    return _csv(
        "rho,p,m,trials,ratio_Tminus,ratio_Tc,margin_sign",
        ((_g(r.rho), _g(r.p), r.m, r.trials, _g(r.ratio_Tminus), _g(r.ratio_Tc), r.margin_sign)
         for r in reports),
    )


# -- subcommand handlers (each returns the output text) --


def _cmd_threshold(args) -> str:
    req = CurveRequest(
        p_min=args.p_min,
        p_max=args.p_max,
        steps=args.steps,
        with_derivative=args.derivative,
    )
    return _curve_csv(curve(req))


def _refuse_with_instance(args, *flags: str) -> None:
    """A usage error for any of ``flags`` given with --instance, whose fixture fixes them."""
    given = [f"--{f}" for f in flags if getattr(args, f) is not None]
    if args.instance is not None and given:
        raise _UsageError(f"{'/'.join(given)} cannot be given with --instance")


def _cmd_decode(args) -> str:
    _refuse_with_instance(args, "m", "n", "rho")
    if args.instance is not None:
        inst = read_instance(args.instance)
    else:
        if args.m is None or args.n is None or args.rho is None:
            raise _UsageError("decode needs either --instance or all of --m/--n/--rho")
        seed = _resolve_seed(args)
        inst = make_instance(args.m, args.n, ErrorSpec(rho=args.rho), SeedSpec(seed, 0))
    result = decode(inst.a, inst.y, DecoderConfig(p=args.p))
    return _json_report(
        {
            "p": args.p,
            "m": inst.m,
            "n": inst.n,
            "rho": len(inst.support) / inst.m,
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
            "success": apply_decoder_success(result.x_hat, inst.f),
            "max_abs_error": float(np.max(np.abs(result.x_hat - inst.f))),
            "x_hat": [float(v) for v in result.x_hat],
        }
    )


def _cmd_phase(args) -> str:
    seed = _resolve_seed(args)
    plan = SweepPlan(
        m=args.m,
        n=args.n,
        p_values=_parse_grid(args.p),
        rho_values=_parse_grid(args.rho),
        trials=args.trials,
        error_regime=args.regime,
        master_seed=seed,
    )
    return _phase_csv(run_sweep(plan, jobs=args.jobs))


def _cmd_certify(args) -> str:
    # unsigned certification takes its rho from --rho, a fixture or not
    _refuse_with_instance(args, *(("m", "n", "rho") if args.mode == "signed" else ("m", "n")))
    seed = _resolve_seed(args)
    if args.instance is not None:
        inst = read_instance(args.instance)
        a, support, signs = inst.a, inst.support, inst.signs
    else:
        if args.m is None or args.n is None:
            raise _UsageError("certify needs either --instance or --m/--n")
        a = gaussian_matrix(args.m, args.n, SeedSpec(seed, 0))
        support = signs = None
    if args.mode == "unsigned":
        if args.rho is None:
            raise _UsageError("unsigned certification needs --rho")
        query = ConditionQuery(a=a, p=args.p, mode="unsigned", rho=args.rho)
    else:
        if support is None:
            if args.rho is None:
                raise _UsageError("signed certification needs --rho or --instance")
            support, signs = draw_support_signs(a.shape[0], args.rho, SeedSpec(seed, 1))
        query = ConditionQuery(a=a, p=args.p, mode="signed", support=support, signs=signs)
    report = search_violation(query, restarts=args.restarts, seed=SeedSpec(seed, 2))
    return _json_report(
        {
            "min_margin": report.min_margin,
            "violated": report.violated,
            "witness": [float(v) for v in report.witness],
            "restarts_used": args.restarts,
            "mode": args.mode,
            "p": args.p,
            "rho": args.rho if args.mode == "unsigned" else len(support) / len(a),
        }
    )


def _cmd_attack(args) -> str:
    seed = _resolve_seed(args)
    a = gaussian_matrix(args.m, args.n, SeedSpec(seed, 0))
    f = SeedSpec(seed, 1).generator().standard_normal(args.n)
    pattern = None  # (e, x_alt), absent when the fixed-sign search finds no violation
    if args.mode == "arbitrary":
        z = SeedSpec(seed, 2).generator().standard_normal(args.n)
        margin = unsigned_margin(a, args.p, args.rho, z)
        pattern = attack_arbitrary(a, f, args.p, args.rho, z)
    else:
        support, signs = draw_support_signs(args.m, args.rho, SeedSpec(seed, 3))
        query = ConditionQuery(a=a, p=args.p, mode="signed", support=support, signs=signs)
        found = search_violation(query, restarts=args.restarts, seed=SeedSpec(seed, 2))
        margin = found.min_margin
        if found.violated:
            pattern = attack_fixed_sign(a, f, args.p, support, signs, found.witness)
    obj_f = obj_alt = None
    if pattern is not None:
        e, x_alt = pattern
        y = a @ f + e
        obj_f = lp_objective(y - a @ f, args.p)
        obj_alt = lp_objective(y - a @ x_alt, args.p)
    return _json_report(
        {
            "mode": args.mode,
            "p": args.p,
            "rho": args.rho,
            "m": args.m,
            "n": args.n,
            "margin": margin,
            "objective_f": obj_f,
            "objective_x_alt": obj_alt,
            # each attack builds its pattern to win whenever the margin is
            # negative; the two objectives round apart at large magnitudes
            "succeeded": pattern is not None and bool(margin < 0),
        }
    )


def _cmd_concentration(args) -> str:
    seed = _resolve_seed(args)
    reports = [
        concentration_study(rho, args.p, args.m, args.trials, seed=mix64(seed, i))
        for i, rho in enumerate(_parse_grid(args.rho))
    ]
    return _concentration_csv(reports)


# Built once per process: each add_argument asks the terminal for its size,
# so a rebuild cost 1-2 ms per in-process call of main.  Parsing keeps no
# state in the parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpdecode",
        description="lp-minimization decoding: thresholds, decoding, "
        "certification, attacks, and Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    raw = argparse.RawDescriptionHelpFormatter

    def add(name, help_text, epilog):
        p = sub.add_parser(name, help=help_text, epilog=epilog, formatter_class=raw)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add(
        "threshold",
        "recovery threshold curve rho*(p)",
        "Output schema: CSV with header p,z_star,rho_star,drho_dp;\n"
        "one row per p, drho_dp empty unless --derivative is given.",
    )
    p.add_argument("--p-min", type=float, required=True)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help=f"grid points, at most {_MAX_POINTS}")
    p.add_argument("--derivative", action="store_true", help="include drho*/dp")
    p.set_defaults(handler=_cmd_threshold)

    p = add(
        "decode",
        "decode one instance (generated or loaded)",
        "Output schema: JSON with keys p,m,n,rho,objective,iterations,\n"
        "converged,success,max_abs_error,x_hat.",
    )
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--instance", help="fixture prefix (reads <prefix>.csv/.json); fixes m, n, rho")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--seed", type=int, help="seeds the generated instance")
    p.set_defaults(handler=_cmd_decode)

    p = add(
        "phase",
        "Monte Carlo success-rate sweep over (p, rho)",
        "Output schema: CSV with header p,rho,m,n,trials,successes,\n"
        "success_rate,mean_objective_gap,wallclock_ms (wallclock_ms is\n"
        "written as 0 so reruns are byte-identical).",
    )
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True, help="value or start:stop:step grid")
    p.add_argument("--rho", required=True, help="value or start:stop:step grid")
    p.add_argument("--trials", type=int, required=True,
                   help=f"trials per (p, rho) cell; cells x trials is at most {_MAX_POINTS}")
    p.add_argument(
        "--regime",
        choices=_REGIMES,
        default="arbitrary",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_phase)

    p = add(
        "certify",
        "search for a null-space condition violation",
        "Output schema: JSON with keys min_margin,violated,witness,\n"
        "restarts_used,mode,p,rho.",
    )
    p.add_argument("--mode", choices=("unsigned", "signed"), required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--instance", help="fixture prefix for A; fixes m, n (and support/signs)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_certify)

    p = add(
        "attack",
        "construct an adversarial error pattern",
        "Output schema: JSON with keys mode,p,rho,m,n,margin,objective_f,\n"
        "objective_x_alt,succeeded (objectives null when no fixed-sign\n"
        "violation was found; succeeded is margin < 0, where the\n"
        "attack's x_alt beats f).",
    )
    p.add_argument("--mode", choices=("arbitrary", "fixed_sign"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--restarts", type=int, default=8, help="violation search restarts")
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_attack)

    p = add(
        "concentration",
        "mass-split study behind the 2/3 fixed-sign threshold",
        "Output schema: CSV with header rho,p,m,trials,ratio_Tminus,\n"
        "ratio_Tc,margin_sign.",
    )
    p.add_argument("--rho", required=True, help="value or start:stop:step grid")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_concentration)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        text = args.handler(args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LpdecodeError, MemoryError) as exc:
        # NumPy names the allocation it could not make; a bare MemoryError says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
