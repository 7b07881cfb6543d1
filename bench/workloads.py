"""The benchmark workloads.

Each workload turns a seed into inputs (``make_inputs``), runs one fixed
pass of work through lpdecode's public API and CLI (``run_pass``), and
checks the outputs of a pass in which no operation failed for invariants
that must hold at every seed (``check``).  A pass returns one comparable
value per operation, so a rerun at the same seed can be checked for
identical output.  ``ops`` is the number of operations (trials, decodes,
searches) one pass attempts.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import lpdecode as lp
from lpdecode import cli

RHO_STAR_1 = 0.2390318915132864


class OpError(Exception):
    """An operation that did not produce a result."""


def run_cli(argv: list[str]) -> str:
    """stdout of ``lpdecode <argv>`` run in-process; nonzero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpError(f"lpdecode {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_ops(ops) -> tuple[list, int]:
    """Run zero-argument callables; (outputs, failures).  A failed op's
    output is its error text, so it also fails the rerun comparison."""
    outputs, failures = [], 0
    for op in ops:
        try:
            outputs.append(op())
        except (lp.LpdecodeError, OpError) as exc:
            outputs.append(f"error: {exc}")
            failures += 1
    return outputs, failures


def _csv_rows(text: str) -> list[dict]:
    header, *rows = text.strip().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows]


class Sweep:
    """``lpdecode phase`` over a (p, rho) grid, one CLI call per regime."""

    name = "sweep_random"
    regimes = ("arbitrary", "fixed_sign")
    # Per cell; at 5, the IRLS work of a pass varies by 2% between seeds.
    trials = 5

    def make_inputs(self, seed: int, smoke: bool):
        # Two p values times the rho grid: 2 x 2 cells in smoke mode, else 2 x 4.
        if smoke:
            m, n, rho, cells, trials = "40", "4", "0.1:0.2:0.1", 4, 1
        else:
            m, n, rho, cells, trials = "200", "20", "0.1:0.4:0.1", 8, self.trials
        argvs = [
            ["phase", "--m", m, "--n", n, "--p", "0.5:1.0:0.5", "--rho", rho,
             "--trials", str(trials), "--regime", regime, "--jobs", "1",
             "--seed", str(seed)]
            for regime in self.regimes
        ]
        return {"argvs": argvs, "ops": cells * trials * len(self.regimes)}

    def run_pass(self, inputs):
        return run_ops([lambda argv=argv: run_cli(argv) for argv in inputs["argvs"]])

    def columns(self, outputs) -> dict:
        """Integer trials/successes per cell, keyed by regime."""
        return {
            regime: [[int(r["trials"]), int(r["successes"])] for r in _csv_rows(text)]
            for regime, text in zip(self.regimes, outputs)
        }

    def check(self, inputs, outputs, expected) -> list[str]:
        problems = []
        for regime, cols in self.columns(outputs).items():
            if sum(t for t, _ in cols) * len(self.regimes) != inputs["ops"]:
                problems.append(f"{regime}: trial total {cols} does not match the plan")
            if any(not 0 <= s <= t for t, s in cols):
                problems.append(f"{regime}: successes outside [0, trials]: {cols}")
            if expected is not None and cols != expected[regime]:
                problems.append(f"{regime}: trials/successes {cols} != recorded {expected[regime]}")
        return problems


class DecodeLarge:
    """``decode`` on tall instances below threshold; BLAS-bound."""

    name = "decode_large"
    success_tol = 1e-4

    def make_inputs(self, seed: int, smoke: bool):
        m, n, count = (100, 10, 1) if smoke else (1000, 100, 3)
        instances = [
            lp.make_instance(m, n, lp.ErrorSpec(rho=0.2), lp.SeedSpec(seed, i))
            for i in range(count)
        ]
        return {"instances": instances, "cfg": lp.DecoderConfig(p=0.5), "ops": count}

    def run_pass(self, inputs):
        def op(inst):
            r = lp.decode(inst.a, inst.y, inputs["cfg"])
            return r.x_hat.tobytes(), r.iterations, r.converged, r.objective

        return run_ops([lambda inst=inst: op(inst) for inst in inputs["instances"]])

    def check(self, inputs, outputs, expected) -> list[str]:
        problems = []
        for i, (inst, out) in enumerate(zip(inputs["instances"], outputs)):
            x_hat = np.frombuffer(out[0])
            if not lp.apply_decoder_success(x_hat, inst.f, self.success_tol):
                err = float(np.max(np.abs(x_hat - inst.f)))
                problems.append(f"instance {i} below threshold not recovered (max error {err:.3g})")
        return problems


class CertifyThreshold:
    """Threshold curve, violation searches, brute-force oracle and attacks;
    no decoder at all."""

    name = "certify_threshold"
    p = 0.5

    def make_inputs(self, seed: int, smoke: bool):
        if smoke:
            steps, m, n, restarts, res, am, an = "10", 40, 4, 2, 0.2, "40", "4"
        else:
            steps, m, n, restarts, res, am, an = "200", 400, 40, 8, 0.05, "200", "20"
        a = lp.gaussian_matrix(m, n, lp.SeedSpec(seed, 0))
        gen = lp.SeedSpec(seed, 1).generator()
        k = m // 2
        support = np.sort(gen.choice(m, size=k, replace=False))
        signs = {int(i): int(s) for i, s in zip(support, 2 * gen.integers(0, 2, k) - 1)}
        attack = ["--m", am, "--n", an, "--p", str(self.p), "--seed", str(seed)]
        return {
            "threshold": ["threshold", "--p-min", "0.005", "--p-max", "1",
                          "--steps", steps, "--derivative"],
            "unsigned": lp.ConditionQuery(a=a, p=self.p, mode="unsigned", rho=0.35),
            "signed": lp.ConditionQuery(a=a, p=self.p, mode="signed", support=support, signs=signs),
            "restarts": restarts,
            "search_seed": lp.SeedSpec(seed, 2),
            "brute": lp.ConditionQuery(
                a=lp.gaussian_matrix(30, 3, lp.SeedSpec(seed, 3)), p=self.p, mode="unsigned", rho=0.2
            ),
            "resolution": res,
            "attacks": [
                ["attack", "--mode", "arbitrary", "--rho", "0.45", *attack],
                ["attack", "--mode", "fixed_sign", "--rho", "0.8", *attack],
            ],
            "ops": 6,
        }

    def run_pass(self, inputs):
        def search(q):
            r = lp.search_violation(q, restarts=inputs["restarts"], seed=inputs["search_seed"])
            return r.min_margin, r.witness.tobytes(), r.violated

        def brute():
            margin, z = lp.brute_force_min_margin(inputs["brute"], resolution=inputs["resolution"])
            return margin, z.tobytes()

        return run_ops(
            [
                lambda: run_cli(inputs["threshold"]),
                lambda: search(inputs["unsigned"]),
                lambda: search(inputs["signed"]),
                brute,
                *[lambda argv=argv: run_cli(argv) for argv in inputs["attacks"]],
            ]
        )

    def check(self, inputs, outputs, expected) -> list[str]:
        problems = []
        rho1 = lp.rho_star(1.0)
        if abs(rho1 - RHO_STAR_1) > 1e-9:
            problems.append(f"rho_star(1.0) = {rho1!r}, expected {RHO_STAR_1!r}")
        curve_csv, unsigned, signed, brute, *attacks = outputs
        rows = _csv_rows(curve_csv)
        rhos = [float(r["rho_star"]) for r in rows]
        if any(b >= a for a, b in zip(rhos, rhos[1:])):
            problems.append("threshold curve is not strictly decreasing")
        if any(not float(r["drho_dp"]) < 0 for r in rows):
            problems.append("threshold curve has drho_dp >= 0")
        q_unsigned, q_signed, q_brute = inputs["unsigned"], inputs["signed"], inputs["brute"]
        margins = [
            (unsigned, lambda z: lp.unsigned_margin(q_unsigned.a, self.p, q_unsigned.rho, z)),
            (signed, lambda z: lp.signed_margin(
                q_signed.a, self.p, q_signed.support, q_signed.signs, z)),
            (brute, lambda z: lp.unsigned_margin(q_brute.a, self.p, q_brute.rho, z)),
        ]
        for out, margin_at in margins:
            recomputed = margin_at(np.frombuffer(out[1]))
            if not math.isclose(recomputed, out[0], rel_tol=1e-9, abs_tol=1e-9):
                problems.append(f"witness margin {recomputed!r} != reported {out[0]!r}")
        for text in attacks:
            rep = json.loads(text)
            obj_f, obj_alt = rep["objective_f"], rep["objective_x_alt"]
            if rep["margin"] < 0 and obj_f is not None and not obj_alt <= obj_f:
                problems.append(f"{rep['mode']} attack: objective_x_alt {obj_alt} > objective_f {obj_f}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(),
        DecodeLarge(),
        CertifyThreshold(),
    )
}
