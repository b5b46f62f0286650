"""Tests of the benchmark itself (not collected by the library's test suite).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_prints_every_metric():
    proc = _run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(ROOT / "BENCHMARK.json") as fh:
        timed = {w["name"] for w in json.load(fh)["workloads"]}
    assert timed <= set(WORKLOADS)
    for name in WORKLOADS:
        for trace in (0, 1):
            assert f"smoke {name} trace={trace}: ok" in proc.stdout


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "poly2d", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
