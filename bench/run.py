"""Benchmark for lpdecode; see bench/README.md.

    python3 bench/run.py --workload sweep_random --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One run sets up (timed in fresh child processes), runs one untimed warm-up
pass of the workload, checks its outputs, then repeats the same pass until
``--seconds`` have elapsed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds diagnostics (environment, pass-time quartiles,
``host.calib_s``, ``error_frac``).  Exit status is 0 only when every check
passed and no operation failed.
"""

import os

# Pinned before NumPy loads, and inherited by the set-up child processes:
# on a small shared host, BLAS threads compete with each other for cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
CALIB_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _get(name):
    return lambda v: v.get(name, 0)


def _ratio(num, den):
    return lambda v: v.get(num, 0) / v[den] if v.get(den) else 0.0


# Per-layer metrics of one traced pass, from the merged (times, counts) of
# Tracer.pass_profile.  Units "count" must repeat exactly between passes.
PER_LAYER = {
    "cli.main.calls": ("count", _get("cli.main.calls")),
    "cli.main.s": ("s", _get("cli.main.s")),
    "cli.self_s": ("s", _get("cli.self_s")),
    "harness.run_sweep.s": ("s", _get("harness.run_sweep.s")),
    "harness.self_s": ("s", _get("harness.self_s")),
    "harness.trials": ("count", _get("harness.trials")),
    "harness.successes": ("count", _get("harness.successes")),
    "harness.success_rate": ("frac", _ratio("harness.successes", "harness.trials")),
    "harness.solver_errors": ("count", _get("harness.solver_errors")),
    "ensemble.make_instance.calls": ("count", _get("ensemble.make_instance.calls")),
    "ensemble.make_instance.s": ("s", _get("ensemble.make_instance.s")),
    "decoder.decode.calls": ("count", _get("decoder.decode.calls")),
    "decoder.decode.s": ("s", _get("decoder.decode.s")),
    "decoder.decode.self_s": ("s", _get("decoder.decode.self_s")),
    "decoder.wls.calls": ("count", _get("decoder.weighted_least_squares.calls")),
    "decoder.wls.s": ("s", _get("decoder.weighted_least_squares.s")),
    "decoder.wls_share": ("frac", _ratio("decoder.weighted_least_squares.s", "decoder.decode.s")),
    "decoder.iterations": ("count", _get("decoder.iterations")),
    "decoder.iterations_per_decode": (
        "count", _ratio("decoder.iterations", "decoder.decode.calls")
    ),
    "decoder.nonconverged": ("count", _get("decoder.nonconverged")),
    "certify.search_violation.calls": ("count", _get("certify.search_violation.calls")),
    "certify.search_violation.s": ("s", _get("certify.search_violation.s")),
    "certify.violations_found": ("count", _get("certify.violations_found")),
    "certify.brute_force.calls": ("count", _get("certify.brute_force_min_margin.calls")),
    "certify.brute_force.s": ("s", _get("certify.brute_force_min_margin.s")),
    "certify.attack_arbitrary.calls": ("count", _get("certify.attack_arbitrary.calls")),
    "certify.attack_arbitrary.s": ("s", _get("certify.attack_arbitrary.s")),
    "certify.attack_fixed_sign.calls": ("count", _get("certify.attack_fixed_sign.calls")),
    "certify.attack_fixed_sign.s": ("s", _get("certify.attack_fixed_sign.s")),
    "threshold.curve.s": ("s", _get("threshold.curve.s")),
    "threshold.solve_zstar.calls": ("count", _get("threshold.solve_zstar.calls")),
    "threshold.solve_zstar.s": ("s", _get("threshold.solve_zstar.s")),
    "halfnormal.tail_moment.calls": ("count", _get("halfnormal.tail_moment.calls")),
    "halfnormal.tail_moment.s": ("s", _get("halfnormal.tail_moment.s")),
    "halfnormal.log_moment_integrals.calls": (
        "count", _get("halfnormal.log_moment_integrals.calls")
    ),
    "halfnormal.log_moment_integrals.s": ("s", _get("halfnormal.log_moment_integrals.s")),
    "halfnormal.cdf.calls": ("count", _get("halfnormal.cdf.calls")),
    "halfnormal.cdf.s": ("s", _get("halfnormal.cdf.s")),
}
# Whole-run diagnostics reported next to the per-layer metrics.
RUN_UNITS = {"trace.overhead_frac": "frac", "host.calib_s": "s", "error_frac": "frac"}


def load_workloads():
    """Import lpdecode from this checkout's src/ (never an installed copy)."""
    if not (SRC / "lpdecode" / "__init__.py").is_file():
        sys.exit(f"bench: no lpdecode sources at {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads.WORKLOADS


def setup_probe(args) -> None:
    """Child side of set-up timing: import, make inputs, print the clock."""
    load_workloads()[args.workload].make_inputs(args.seed, args.smoke)
    print(repr(time.monotonic()))


def measure_setup(args, repeats: int) -> float:
    """Median seconds from spawning a fresh interpreter to inputs in hand.

    One extra untimed probe first writes bytecode caches and warms the page
    cache.  CLOCK_MONOTONIC is shared between processes on Linux.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for i in range(repeats + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{done.stderr}")
        if i:
            samples.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(samples)


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus small-BLAS loop: a host-drift
    marker, reported next to the metrics and never used to scale them."""
    import numpy as np

    x = np.full((48, 48), 0.01)
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i % 7
    for _ in range(2000):
        x = np.tanh(x @ x)
    return time.perf_counter() - start


class ErrorLog(logging.Handler):
    """Counts the warnings lpdecode.harness logs for swallowed solver errors."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3,
            "min": min(values), "max": max(values)}


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Warm-up, checks and timed passes of one workload in this process."""
    from tracer import Tracer

    expected = None
    if seed == DEFAULT_SEED and not smoke:
        expected = json.loads((BENCH / "expected_seed0.json").read_text()).get(wl.name)
    inputs = wl.make_inputs(seed, smoke)
    errors = ErrorLog()
    logging.getLogger("lpdecode.harness").addHandler(errors)
    tracer = Tracer() if trace else None

    reference, failed = wl.run_pass(inputs)
    problems = wl.check(inputs, reference, expected) if not failed else []
    passes = 1
    calib = [calibrate() for _ in range(CALIB_REPEATS)]

    def timed_pass(traced: bool) -> float:
        nonlocal failed, passes
        gc.collect()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs, op_failures = wl.run_pass(inputs)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        failed += op_failures
        passes += 1
        if outputs != reference:
            problems.append("a rerun at the same seed gave different output")
        return elapsed

    plain, traced, profiles = [], [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(timed_pass(False))
        if trace:
            mark, errors_before = tracer.mark(), errors.count
            traced.append(timed_pass(True))
            times, counts = tracer.pass_profile(mark)
            counts["harness.solver_errors"] = errors.count - errors_before
            values = {**times, **counts}
            profiles.append({k: fn(values) for k, (_, fn) in PER_LAYER.items()})
    calib += [calibrate() for _ in range(CALIB_REPEATS)]
    logging.getLogger("lpdecode.harness").removeHandler(errors)

    result = {"pass_s": quartiles(plain), "host.calib_s": statistics.median(calib)}
    if trace:
        layer = {}
        for name, (unit, _) in PER_LAYER.items():
            values = [p[name] for p in profiles]
            if unit != "count":
                layer[name] = statistics.median(values)
            elif len(set(values)) == 1:
                layer[name] = values[0]
            else:
                problems.append(f"{name} differs between traced passes: {values}")
                layer[name] = values[0]
        layer["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        layer["host.calib_s"] = result["host.calib_s"]
        result["per_layer"] = layer
        result["traced_pass_s"] = quartiles(traced)
        tracer.write(OUT / f"spans-{wl.name}-{seed}{'-smoke' if smoke else ''}.json")

    attempted = passes * inputs["ops"]
    failed = min(failed + errors.count + len(problems), attempted)
    result.update(problems=problems, attempted=attempted, failed=failed,
                  error_frac=failed / attempted)
    if trace:
        result["per_layer"]["error_frac"] = result["error_frac"]
    # The upper quartile of the passes, not the median: the host's slow
    # phases last minutes and its quiet dips seconds, so the upper quartile
    # depends least on whether a run happened to meet a dip (bench/README.md).
    result["wall_s"] = result["pass_s"].get("q3", plain[0])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return result


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def layer_units() -> dict:
    return {**{k: unit for k, (unit, _) in PER_LAYER.items()}, **RUN_UNITS}


def report(run: dict, metrics: dict) -> bool:
    correct = not run["problems"] and run["failed"] == 0
    for problem in run["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    diagnostics = {k: v for k, v in run.items() if k not in ("per_layer",)}
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, one timed and one traced pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0
    # Fail before timing anything when the sources are missing.
    workloads = load_workloads()
    if args.smoke:
        ok = True
        for name, wl in workloads.items():
            args.workload = name
            setup_s = measure_setup(args, repeats=1)
            run = run_workload(wl, args.seed, 0.0, trace=True, smoke=True)
            run["setup_s"] = setup_s
            print(json.dumps({"workload": name, "environment": environment()}))
            ok &= report(run, {**metric_block(run, END_TO_END_UNITS),
                               **metric_block(run["per_layer"], layer_units())})
        return 0 if ok else 1
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")

    setup_s = measure_setup(args, SETUP_REPEATS) if not args.trace else None
    run = run_workload(workloads[args.workload], args.seed, args.seconds,
                       bool(args.trace), smoke=False)
    run.update(workload=args.workload, seed=args.seed, environment=environment())
    if args.trace:
        metrics = metric_block(run["per_layer"], layer_units())
    else:
        run["setup_s"] = setup_s
        metrics = metric_block(run, END_TO_END_UNITS)
    return 0 if report(run, metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
