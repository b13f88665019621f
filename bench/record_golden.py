#!/usr/bin/env python3
"""Record bench/golden.json from the current checkout's outputs.

    python3 bench/record_golden.py

The digests pin the CLI JSON and scan CSV bytes, the traces and the exact
per-step counts. They were recorded at the commit that introduced the
benchmark; re-record only when a change is meant to alter outputs, and say
so, since every later run is checked against this file.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

from run import (
    GOLDEN,
    ROOT,
    WORKLOADS,
    Equipart,
    build_instances,
    check_partition,
    file_sha256,
    key_of,
    run_cli,
    step_counts,
)


def cli_output(args: list[str], path: Path, work: Path) -> None:
    _, code, _ = run_cli(args, path, work)
    if code != 0:
        raise SystemExit(f"equipart {' '.join(args)} exited {code}")


def record(eq: Equipart, workload: str, size: str, work: Path) -> dict:
    pkg, scan = eq.pkg, eq.scan
    solve, sweep = build_instances(eq, workload, size)
    entries = {}
    for inst in solve:
        result = pkg.solve_detailed(inst, record_steps=True)
        if check_partition(inst.n, inst.k, inst.t, result.partition.sets) is not None:
            raise SystemExit(f"{key_of(inst)}: solver output is not a partition")
        out = work / "solve.json"
        cli_output(["solve", "--n", str(inst.n), "--k", str(inst.k), "--format", "json"], out, work)
        entries[key_of(inst)] = {
            "trace": pkg.render_trace(result.trace),
            "counts": step_counts(result.trace, inst.n, inst.k),
            "json_sha256": file_sha256(out),
        }
    golden = {"instances": entries}
    if sweep:
        digest = hashlib.sha256()
        totals: Counter[str] = Counter()
        for inst in sweep:
            result = pkg.solve_detailed(inst, record_steps=True)
            if check_partition(inst.n, inst.k, inst.t, result.partition.sets) is not None:
                raise SystemExit(f"{key_of(inst)}: solver output is not a partition")
            digest.update(f"{inst.n} {inst.k} {inst.t} {pkg.render_trace(result.trace)}\n".encode())
            totals.update(step_counts(result.trace, inst.n, inst.k))
        n_max = WORKLOADS[workload][size]["scan_n_max"]
        out = work / "scan.csv"
        cli_output(["scan", "--n-max", str(n_max), "--out", str(out)], work / "scan.txt", work)
        buffer = io.StringIO()
        scan.write_csv(scan.run_scan(n_max, 1).records, buffer)
        if hashlib.sha256(buffer.getvalue().encode()).hexdigest() != file_sha256(out):
            raise SystemExit("in-process scan CSV differs from the CLI's")
        golden["range"] = {
            "instances": len(sweep),
            "csv_sha256": file_sha256(out),
            "sweep_sha256": digest.hexdigest(),
            "counts": dict(totals),
        }
    return golden


def main() -> int:
    eq = Equipart()
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        golden = {
            workload: {size: record(eq, workload, size, work) for size in sizes}
            for workload, sizes in WORKLOADS.items()
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
