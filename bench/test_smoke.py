"""Smoke test for the benchmark, kept out of the library's test suite.

    python3 -m pytest bench/test_smoke.py

Runs every workload at tiny sizes with its correctness checks and one traced
pass, so the benchmark cannot rot silently when the library changes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def test_smoke_checks_every_workload_and_reports_every_metric():
    done = _run(["--smoke"], ROOT)
    assert done.returncode == 0, done.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = [json.loads(line) for line in done.stdout.splitlines() if '"correct"' in line]
    assert len(results) == len(spec["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == names


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "decode_large", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
