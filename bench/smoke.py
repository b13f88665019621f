#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on the reduced instance set.

    python3 bench/smoke.py

Checks, in about a minute, that on every workload:

* a clean run exits 0, reports no failure and emits exactly the metric
  names and units that BENCHMARK.json lists (end-to-end with ``--trace 0``,
  per-layer with ``--trace 1``);
* a corrupted partition and a corrupted golden digest each give
  ``failed > 0`` and a non-zero exit;

and that a directory holding only BENCHMARK.json and bench/ (no program
sources) makes the benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "small"]
        for trace in (0, 1):
            code, result = run(base + ["--trace", str(trace)])
            what = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                problems.append(f"{what}: exit {code}, result {result}")
                continue
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{what}: metrics {sorted(units)} differ from BENCHMARK.json")
            missing = [name for name, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if missing:
                problems.append(f"{what}: no value for {missing}")
        for fault in ("partition", "digest"):
            code, result = run(base + ["--trace", "0", "--inject", fault])
            if code == 0 or result is None or result["failed"] == 0 or result["correct"]:
                problems.append(f"{workload} --inject {fault}: not detected (exit {code}, result {result})")

    bare = Path(tempfile.mkdtemp(prefix=".bench-work-smoke-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(["--workload", "deep-s", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"without program sources: exit {code}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
