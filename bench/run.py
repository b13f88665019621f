#!/usr/bin/env python3
"""Benchmark of the equipart solver, its scan harness and its CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload deep-s --seed 1 --seconds 30 --trace 0

One workload runs as a closed loop from this single process, one operation
at a time: library solves, scan-harness calls and ``python -m equipart``
child processes, never two at once. ``--seed`` only shuffles the order of
the operations; the instances are fixed per workload. Every output is
checked outside the timed regions, against an independent element/sum
check, the golden traces, step counts and sha256 digests in
``bench/golden.json``. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
if any operation failed. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same operations with spans around the calls into
each module and reports the per-layer metrics instead. ``bench/README.md``
defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict, deque
from contextlib import contextmanager, redirect_stdout
from itertools import chain
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

# Fresh-process set-ups per run; setup_s is their median.
SETUP_REPS = 11

# "solve": instances solved through the library, the scan harness and the
# CLI. "scan_n_max": scan-range sweeps every valid instance with n up to
# this, and its CLI solves only the small "solve" instances. "small" is the
# reduced size used by bench/smoke.py.
WORKLOADS: dict[str, dict[str, dict[str, Any]]] = {
    "deep-s": {
        "full": {"solve": [(999999, 3), (1000000, 101)]},
        "small": {"solve": [(9999, 3), (10000, 73)]},
    },
    "wide-k": {
        "full": {"solve": [(1000000, 500000), (1000000, 252500)]},
        "small": {"solve": [(10000, 5000), (10000, 3650)]},
    },
    "scan-range": {
        "full": {"scan_n_max": 1000, "solve": [(1000, 7), (1000, 44), (1000, 275), (1000, 500)]},
        "small": {"scan_n_max": 60, "solve": [(60, 6), (60, 30)]},
    },
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verified_solve_s": "s",
    "cli_solve_s": "s",
    "cli_verify_s": "s",
    "cli_scan_s": "s",
    "scan_instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "solver.solve_self_s": "s",
    "solver.materialise_s": "s",
    "solver.steps": "count",
    "solver.steps_s": "count",
    "solver.steps_ge": "count",
    "solver.steps_go": "count",
    "solver.s_runs": "count",
    "solver.elems_reduced": "count",
    "solver.sets": "count",
    "meander.fill_s": "s",
    "meander.calls": "count",
    "meander.elems": "count",
    "meander.sets": "count",
    "core.verify_s": "s",
    "core.verify_elems": "count",
    "core.enumerate_s": "s",
    "core.enumerate_calls": "count",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "trace.render_s": "s",
    "trace.check_s": "s",
    "trace.parse_s": "s",
    "trace.symbols": "count",
    "scan.self_s": "s",
    "scan.instances": "count",
    "scan.violations": "count",
    "scan.csv_s": "s",
    "scan.csv_bytes": "B",
    "cli.solve_self_s": "s",
    "cli.json_bytes": "B",
    "cli.verify_self_s": "s",
    "trace_overhead_s": "s",
}

# metric name prefix -> (span, patched call sites). The metrics are reported
# absent (null) when a call site was removed from the program and the span
# recorded no call.
SPAN_SOURCES = {
    "meander.": ("meander.fill", ("equipart.solver.meander_even", "equipart.solver.meander_odd")),
    "core.enumerate_": ("core.enumerate", ("equipart.scan.enumerate_instances",)),
    "core.validate_": ("core.validate", ("equipart.scan.validate_instance",)),
    "trace.check_s": ("trace.check", ("equipart.scan.check_trace_properties",)),
    "trace.symbols": ("trace.check", ("equipart.scan.check_trace_properties",)),
}


class Equipart:
    """The modules under test, imported from this checkout's ``src/``."""

    def __init__(self) -> None:
        if not (SRC / "equipart" / "__init__.py").is_file():
            raise SystemExit(f"error: equipart sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        self.pkg = importlib.import_module("equipart")
        if Path(self.pkg.__file__).resolve().parent != (SRC / "equipart").resolve():
            raise SystemExit(f"error: imported equipart from {self.pkg.__file__}, not {SRC}")
        self.cli = importlib.import_module("equipart.cli")
        self.scan = importlib.import_module("equipart.scan")
        self.solver = importlib.import_module("equipart.solver")


def direct(_name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def build_instances(eq: Equipart, workload: str, size: str, call: Callable = direct) -> tuple[list, list]:
    """Validated instances: (solved one by one, swept by scan-range).

    Each solved (n, k) must also be one that ``enumerate_instances(n)`` lists.
    ``call(span name, fn, *args)`` lets the traced run put spans around the
    calls into ``core``.
    """
    spec = WORKLOADS[workload][size]
    pkg = eq.pkg
    solve = []
    for n, k in spec["solve"]:
        t = pkg.triangular(n) // k
        if (k, t) not in call("core.enumerate", pkg.enumerate_instances, n):
            raise SystemExit(f"error: ({n}, {k}) is not a valid instance")
        solve.append(call("core.validate", pkg.validate_instance, n, k, t))
    sweep = [
        call("core.validate", pkg.validate_instance, n, k, t)
        for n in range(1, spec.get("scan_n_max", 0) + 1)
        for k, t in call("core.enumerate", pkg.enumerate_instances, n)
    ]
    return solve, sweep


def key_of(inst: Any) -> str:
    return f"{inst.n} {inst.k}"


def read_sets(sets: Any) -> None:
    """Touch every element of every set, so lazily built sets are paid for."""
    deque(chain.from_iterable(sets), maxlen=0)


def check_partition(n: int, k: int, t: int, sets: Any) -> str | None:
    """Element/sum check that shares no code with ``verify_partition``."""
    if len(sets) != k:
        return f"{len(sets)} sets, expected {k}"
    for index, members in enumerate(sets):
        if sum(members) != t:
            return f"set {index} sums to {sum(members)}, expected {t}"
    if sorted(chain.from_iterable(sets)) != list(range(1, n + 1)):
        return f"elements are not exactly 1..{n}"
    return None


def step_counts(trace: Any, n: int, k: int) -> dict[str, int]:
    """Exact per-case counts derived from ``trace.per_step``.

    The elements a step places are its n minus the next step's n; the final
    meander places all of its n. They must add up to the instance's n.
    """
    symbols = [symbol.value for symbol in trace.symbols]
    sizes = [inst.n for inst in trace.per_step] + [0]
    placed: Counter[str] = Counter()
    for index, symbol in enumerate(symbols):
        placed[symbol] += sizes[index] - sizes[index + 1]
    if sum(placed.values()) != n:
        raise AssertionError(f"per-case placements sum to {sum(placed.values())}, not n={n}")
    s_runs = sum(1 for i, sym in enumerate(symbols) if sym == "s" and (i == 0 or symbols[i - 1] != "s"))
    return {
        "steps": len(symbols),
        "steps_s": symbols.count("s"),
        "steps_ge": symbols.count("ge"),
        "steps_go": symbols.count("go"),
        "s_runs": s_runs,
        "elems_s": placed["s"],
        "elems_ge": placed["ge"],
        "elems_go": placed["go"],
        "elems_m": placed["m"],
        "sets": k,
    }


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def corrupt(sets: Any) -> list:
    """Repeat the first element of the first set: breaks its sum and disjointness."""
    first = list(sets[0])
    return [first[:1] + first, *sets[1:]]


def run_cli(args: list[str], stdout_path: Path, work: Path) -> tuple[float, int, int]:
    """Run one ``python -m equipart`` child to completion.

    Returns its wall time in seconds, exit code and peak RSS in KiB.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "equipart", *args], stdout=out, stderr=err, env=env, cwd=work
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def _count_verify(counts: Counter, args: tuple, _result: Any) -> None:
    counts["core.verify_elems"] += args[0].n


def _count_symbols(counts: Counter, args: tuple, _result: Any) -> None:
    counts["trace.symbols"] += len(args[0].symbols)


def _count_meander(counts: Counter, _args: tuple, result: Any) -> None:
    counts["meander.sets"] += len(result.sets)
    counts["meander.elems"] += sum(map(len, result.sets))


def patch_targets(eq: Equipart) -> list:
    """Cross-module call sites wrapped in spans during traced operations."""
    return [
        (eq.cli, "solve", "solver.solve", None),
        (eq.cli, "verify_partition", "core.verify", _count_verify),
        (eq.cli, "render_trace", "trace.render", None),
        (eq.scan, "solve_detailed", "solver.solve", None),
        (eq.scan, "verify_partition", "core.verify", _count_verify),
        (eq.scan, "check_trace_properties", "trace.check", _count_symbols),
        (eq.scan, "enumerate_instances", "core.enumerate", None),
        (eq.scan, "validate_instance", "core.validate", None),
        (eq.scan, "render_trace", "trace.render", None),
        (eq.solver, "meander_even", "meander.fill", _count_meander),
        (eq.solver, "meander_odd", "meander.fill", _count_meander),
    ]


class Bench:
    """Operations of one workload, their checks and their samples."""

    def __init__(
        self,
        eq: Equipart,
        workload: str,
        size: str,
        work: Path,
        inject: str | None,
        tracer: Tracer | None,
    ) -> None:
        self.eq = eq
        self.workload = workload
        self.size = size
        self.work = work
        self.inject = inject
        self.tracer = tracer
        self.tracing = False
        self.golden = json.loads(GOLDEN.read_text())[workload][size]
        self.solve_instances, self.sweep = build_instances(eq, workload, size)
        self.n_max = WORKLOADS[workload][size].get("scan_n_max")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # op key -> one dict of timings per execution
        self.samples: dict[tuple, list[dict[str, float]]] = defaultdict(list)
        self.peak_rss_kb = 0
        # exact counts and byte sizes of the current pass (traced runs)
        self.counts: Counter[str] = Counter()

    # ---- bookkeeping -------------------------------------------------

    def outcome(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{what}: {error}")

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        if self.tracing:
            return self.tracer.call(name, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    @contextmanager
    def traced(self, on: bool) -> Iterator[None]:
        if not on:
            yield
            return
        with self.tracer.patch(patch_targets(self.eq)):
            self.tracing = True
            try:
                yield
            finally:
                self.tracing = False

    def expected_digest(self, entry: dict, field: str) -> str:
        digest = entry[field]
        if self.inject == "digest":
            digest = ("0" if digest[0] != "0" else "1") + digest[1:]
        return digest

    # ---- checks ------------------------------------------------------

    def check_solution(self, inst: Any, sets: Any, trace: Any) -> tuple[str | None, dict, str]:
        """Independent partition check, golden-free trace round trip, counts."""
        error = check_partition(inst.n, inst.k, inst.t, sets)
        text = self.call("trace.render", self.eq.pkg.render_trace, trace)
        parsed = self.call("trace.parse", self.eq.pkg.parse_trace, text)
        if error is None and parsed.symbols != trace.symbols:
            error = f"trace {text!r} does not parse back to the solver's symbols"
        try:
            counts = step_counts(trace, inst.n, inst.k)
        except AssertionError as exc:
            counts = {}
            error = error or str(exc)
        return error, counts, text

    def validate_children(self, trace: Any) -> bool:
        """Re-validate every recursion child against the input contract."""
        validate = self.eq.pkg.validate_instance
        try:
            for child in trace.per_step[1:]:
                self.call("core.validate", validate, child.n, child.k, child.t)
        except self.eq.pkg.InstanceError:
            return False
        return True

    def run_op(self, op: Callable[[], None]) -> None:
        """Run one operation; an exception counts as one failed operation."""
        try:
            op()
        except Exception as exc:  # the loop must go on to report every failure
            self.outcome("operation", f"raised {exc!r}")

    def add_counts(self, counts: dict) -> None:
        for name, value in counts.items():
            self.counts["solver." + name] += value

    # ---- operations --------------------------------------------------

    def solve_verify(self, inst: Any) -> tuple[Any, Any, Any, float, float]:
        """Timed solve (until every set has been read) and verify.

        Returns the solve result, the sets that were verified, the report and
        both times. ``--inject partition`` corrupts the sets before verifying.
        """
        pkg = self.eq.pkg
        start = perf_counter()
        result = self.call("solver.solve", pkg.solve_detailed, inst, record_steps=True)
        self.call("solver.materialise", read_sets, result.partition.sets)
        solved = perf_counter()
        # verify the Partition itself, not its sets, so a faster path for it counts
        candidate = corrupt(result.partition.sets) if self.inject == "partition" else result.partition
        report = self.call("core.verify", pkg.verify_partition, inst, candidate)
        verified = perf_counter()
        if self.tracing:
            self.tracer.counts["core.verify_elems"] += inst.n
        sets = candidate if self.inject == "partition" else result.partition.sets
        return result, sets, report, solved - start, verified - solved

    def op_library(self, inst: Any, traced: bool) -> None:
        """solve_detailed, read every set, verify_partition, then the scan's checks.

        The scan's per-instance checks beyond solve and verify are the trace
        properties and the re-validation of every recursion child; they are
        timed here from the same public calls ``scan_instance`` makes, so the
        large instances are solved once per operation, not twice.
        """
        gc.collect()
        with self.traced(traced):
            result, sets, report, solve_time, verify_time = self.solve_verify(inst)
            start = perf_counter()
            properties = self.call("trace.check", self.eq.pkg.check_trace_properties, result.trace, inst)
            children_ok = self.validate_children(result.trace)
            scan_time = perf_counter() - start
            if self.tracing:
                self.tracer.counts["trace.symbols"] += len(result.trace.symbols)
            error, counts, text = self.check_solution(inst, sets, result.trace)
        golden = self.golden["instances"][key_of(inst)]
        if error is None and text != golden["trace"]:
            error = f"trace {text!r}, golden {golden['trace']!r}"
        if error is None and counts != golden["counts"]:
            error = f"step counts {counts} differ from golden {golden['counts']}"
        self.outcome(f"solve {key_of(inst)}", error)
        self.outcome(f"verify {key_of(inst)}", None if report.ok else report.first_violation or "not ok")
        scan_ok = properties.ok and children_ok
        self.outcome(f"scan checks {key_of(inst)}", None if scan_ok else "trace property or child failed")
        tag = "traced" if traced else "plain"
        self.samples[("lib", tag, key_of(inst))].append(
            {"solve": solve_time, "verify": verify_time, "scan": verify_time + scan_time}
        )
        if traced:
            self.add_counts(counts)

    def op_sweep(self, traced: bool) -> None:
        """Solve and verify every instance of the scan range through the library."""
        gc.collect()
        solve_time = verify_time = 0.0
        digest = hashlib.sha256()
        totals: Counter[str] = Counter()
        with self.traced(traced):
            for inst in self.sweep:
                result, sets, report, solve_once, verify_once = self.solve_verify(inst)
                solve_time += solve_once
                verify_time += verify_once
                error, counts, text = self.check_solution(inst, sets, result.trace)
                self.outcome(f"solve {key_of(inst)}", error)
                self.outcome(f"verify {key_of(inst)}", None if report.ok else report.first_violation or "not ok")
                digest.update(f"{inst.n} {inst.k} {inst.t} {text}\n".encode())
                totals.update(counts)
        golden = self.golden["range"]
        if digest.hexdigest() != golden["sweep_sha256"]:
            self.outcome("sweep traces", "digest of the traces differs from golden")
        if dict(totals) != golden["counts"]:
            self.outcome("sweep counts", f"step counts {dict(totals)} differ from golden {golden['counts']}")
        tag = "traced" if traced else "plain"
        self.samples[("lib", tag, "range")].append({"solve": solve_time, "verify": verify_time})
        if traced:
            self.add_counts(totals)

    def op_scan(self, traced: bool) -> None:
        """run_scan over the whole range, then its CSV."""
        gc.collect()
        with self.traced(traced):
            start = perf_counter()
            result = self.call("scan.scan", self.eq.scan.run_scan, self.n_max, 1)
            elapsed = perf_counter() - start
            data = self.scan_csv(result.records, result.violations)
        golden = self.golden["range"]
        error = None
        if result.violations:
            error = f"{len(result.violations)} violations, first {result.violations[0]}"
        elif len(result.records) != golden["instances"]:
            error = f"{len(result.records)} records, golden {golden['instances']}"
        elif hashlib.sha256(data).hexdigest() != self.expected_digest(golden, "csv_sha256"):
            error = "CSV digest differs from golden"
        self.outcome("scan range", error)
        self.samples[("scan",)].append({"scan": elapsed})

    def op_scan_instances(self) -> None:
        """Traced ``scan_instance`` on each instance of deep-s or wide-k.

        Only the traced run does this, for the scan layer's spans; the timed
        run gets the scan's per-instance cost from :meth:`op_library`.
        """
        gc.collect()
        records, violations = [], []
        with self.traced(True):
            for inst in self.solve_instances:
                record, found = self.call("scan.scan", self.eq.scan.scan_instance, inst.n, inst.k, inst.t)
                golden = self.golden["instances"][key_of(inst)]
                error = f"violations {found}" if found else None
                if error is None and record.trace_compact != golden["trace"]:
                    error = f"trace {record.trace_compact!r}, golden {golden['trace']!r}"
                self.outcome(f"scan {key_of(inst)}", error)
                records += [record] if record is not None else []
                violations += found
            self.scan_csv(records, violations)

    def scan_csv(self, records: Any, violations: Any) -> bytes:
        """The scan's CSV bytes; counts the scan layer's output."""
        buffer = io.StringIO()
        self.call("scan.csv", self.eq.scan.write_csv, records, buffer)
        data = buffer.getvalue().encode()
        self.counts["scan.instances"] += len(records)
        self.counts["scan.violations"] += len(violations)
        self.counts["scan.csv_bytes"] += len(data)
        return data

    def op_setup(self) -> None:
        """Traced in-process build of the workload's instances (set-up's core calls)."""
        with self.traced(True):
            build_instances(self.eq, self.workload, self.size, self.call)

    def spawn(self, args: list[str], stdout_path: Path) -> tuple[float, int]:
        elapsed, code, rss_kb = run_cli(args, stdout_path, self.work)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        return elapsed, code

    def op_cli(self, inst: Any) -> None:
        """``solve --format json`` to a file, then ``verify`` that file."""
        golden = self.golden["instances"][key_of(inst)]
        out = self.work / "solve.json"
        gc.collect()
        solve_s, code = self.spawn(
            ["solve", "--n", str(inst.n), "--k", str(inst.k), "--format", "json"], out
        )
        error = f"exit code {code}" if code != 0 else None
        if error is None and file_sha256(out) != self.expected_digest(golden, "json_sha256"):
            error = "JSON digest differs from golden"
        self.outcome(f"cli solve {key_of(inst)}", error)
        verify_out = self.work / "verify.txt"
        verify_s, code = self.spawn(["verify", str(out)], verify_out)
        ok = code == 0 and verify_out.read_text().startswith("ok:")
        self.outcome(f"cli verify {key_of(inst)}", None if ok else f"exit code {code}")
        out.unlink()
        self.samples[("cli", key_of(inst))].append({"cli_solve": solve_s, "cli_verify": verify_s})

    def op_cli_scan(self) -> None:
        out = self.work / "scan.csv"
        gc.collect()
        elapsed, code = self.spawn(["scan", "--n-max", str(self.n_max), "--out", str(out)], self.work / "scan.txt")
        error = f"exit code {code}" if code != 0 else None
        if error is None and file_sha256(out) != self.expected_digest(self.golden["range"], "csv_sha256"):
            error = "CSV digest differs from golden"
        self.outcome("cli scan", error)
        out.unlink(missing_ok=True)
        self.samples[("cli-scan",)].append({"cli_scan": elapsed})

    def op_cli_inprocess(self, inst: Any) -> None:
        """``cli.main`` solve and verify in this process, for the CLI's self time."""
        golden = self.golden["instances"][key_of(inst)]
        out = self.work / "solve.json"
        gc.collect()
        with self.traced(True):
            with open(out, "w", encoding="utf-8") as handle, redirect_stdout(handle):
                code = self.call(
                    "cli.solve",
                    self.eq.cli.main,
                    ["solve", "--n", str(inst.n), "--k", str(inst.k), "--format", "json"],
                )
            error = f"exit code {code}" if code != 0 else None
            if error is None and file_sha256(out) != self.expected_digest(golden, "json_sha256"):
                error = "JSON digest differs from golden"
            self.outcome(f"cli.main solve {key_of(inst)}", error)
            self.counts["cli.json_bytes"] += out.stat().st_size
            with redirect_stdout(io.StringIO()) as printed:
                code = self.call("cli.verify", self.eq.cli.main, ["verify", str(out)])
        ok = code == 0 and printed.getvalue().startswith("ok:")
        self.outcome(f"cli.main verify {key_of(inst)}", None if ok else f"exit code {code}")
        out.unlink()

    # ---- schedules ---------------------------------------------------

    def plain_ops(self) -> list[Callable[[], None]]:
        if self.sweep:
            ops = [lambda: self.op_sweep(False), lambda: self.op_scan(False), self.op_cli_scan]
        else:
            ops = [lambda i=inst: self.op_library(i, False) for inst in self.solve_instances]
        ops += [lambda i=inst: self.op_cli(i) for inst in self.solve_instances]
        return ops

    def traced_ops(self) -> list[Callable[[], None]]:
        """One traced pass, plus the untraced library solves for the overhead."""
        if self.sweep:
            ops = [
                lambda: self.op_sweep(True),
                lambda: self.op_sweep(False),
                lambda: self.op_scan(True),
            ]
        else:
            ops = [lambda i=inst: self.op_library(i, True) for inst in self.solve_instances]
            ops += [lambda i=inst: self.op_library(i, False) for inst in self.solve_instances]
            ops.append(self.op_scan_instances)
        ops += [lambda i=inst: self.op_cli_inprocess(i) for inst in self.solve_instances]
        ops.append(self.op_setup)
        return ops


def median_sum(samples: dict[tuple, list[dict[str, float]]], kind: str, parts: tuple[str, ...]) -> float:
    """Sum over op keys of ``kind`` of the median of the summed parts."""
    return sum(
        statistics.median(sum(sample[part] for part in parts) for sample in runs)
        for key, runs in samples.items()
        if key[0] == kind
    )


def end_to_end(bench: Bench, setup_times: list[float]) -> dict[str, float]:
    samples = bench.samples
    if bench.sweep:
        scanned, scan_time = len(bench.sweep), median_sum(samples, "scan", ("scan",))
        cli_scan = median_sum(samples, "cli-scan", ("cli_scan",))
    else:
        # no scan over a range: the scan's checks composed in op_library,
        # and the CLI's solve plus verify
        scanned = len(bench.solve_instances)
        scan_time = median_sum(samples, "lib", ("solve", "scan"))
        cli_scan = median_sum(samples, "cli", ("cli_solve", "cli_verify"))
    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": median_sum(samples, "lib", ("solve",)),
        "verified_solve_s": median_sum(samples, "lib", ("solve", "verify")),
        "cli_solve_s": median_sum(samples, "cli", ("cli_solve",)),
        "cli_verify_s": median_sum(samples, "cli", ("cli_verify",)),
        "cli_scan_s": cli_scan,
        "scan_instances_per_s": scanned / scan_time if scan_time else 0.0,
        "peak_rss_mb": bench.peak_rss_kb / 1024,
    }


def layer_metrics(bench: Bench) -> dict[str, float | None]:
    """Per-layer values of the pass just finished."""
    tracer, counts = bench.tracer, bench.counts
    traced = sum(run[-1]["solve"] for key, run in bench.samples.items() if key[:2] == ("lib", "traced"))
    plain = sum(run[-1]["solve"] for key, run in bench.samples.items() if key[:2] == ("lib", "plain"))
    values: dict[str, float | None] = {
        "solver.solve_self_s": tracer.self_time["solver.solve"],
        "solver.materialise_s": tracer.total["solver.materialise"],
        "solver.elems_reduced": counts["solver.elems_s"] + counts["solver.elems_ge"] + counts["solver.elems_go"],
        "meander.fill_s": tracer.total["meander.fill"],
        "meander.calls": tracer.calls["meander.fill"],
        "meander.elems": tracer.counts["meander.elems"],
        "meander.sets": tracer.counts["meander.sets"],
        "core.verify_s": tracer.total["core.verify"],
        "core.verify_elems": tracer.counts["core.verify_elems"],
        "core.enumerate_s": tracer.total["core.enumerate"],
        "core.enumerate_calls": tracer.calls["core.enumerate"],
        "core.validate_s": tracer.total["core.validate"],
        "core.validate_calls": tracer.calls["core.validate"],
        "trace.render_s": tracer.total["trace.render"],
        "trace.check_s": tracer.total["trace.check"],
        "trace.parse_s": tracer.total["trace.parse"],
        "trace.symbols": tracer.counts["trace.symbols"],
        "scan.self_s": tracer.self_time["scan.scan"],
        "scan.csv_s": tracer.total["scan.csv"],
        "cli.solve_self_s": tracer.self_time["cli.solve"],
        "cli.verify_self_s": tracer.self_time["cli.verify"],
        "trace_overhead_s": traced - plain,
    }
    for name in ("steps", "steps_s", "steps_ge", "steps_go", "s_runs", "sets"):
        values["solver." + name] = counts["solver." + name]
    for name in ("scan.instances", "scan.violations", "scan.csv_bytes", "cli.json_bytes"):
        values[name] = counts[name]
    for prefix, (span, sources) in SPAN_SOURCES.items():
        if not tracer.calls[span] and any(source in tracer.absent for source in sources):
            for name in values:
                if name.startswith(prefix):
                    values[name] = None
    return values


def measure_setup(workload: str, size: str) -> list[float]:
    """Import equipart and build the instances in fresh processes."""
    command = [sys.executable, str(BENCH / "run.py"), "--setup-child", "--workload", workload, "--size", size]
    times = []
    for rep in range(SETUP_REPS + 1):
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, check=True)
        if rep:  # the first one fills the bytecode cache
            times.append(float(done.stdout.split()[-1]))
    return times


def run_plain(bench: Bench, rng: random.Random, seconds: float) -> int:
    """Closed loop of shuffled rounds over the workload's operations.

    The first round always completes; after it, an operation starts only if
    its previous duration still fits before ``seconds`` have passed.
    """
    ops = bench.plain_ops()
    durations = [0.0] * len(ops)
    deadline = perf_counter() + seconds
    rounds = 0
    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        ran = False
        for index in order:
            start = perf_counter()
            if rounds and start + durations[index] > deadline:
                continue
            bench.run_op(ops[index])
            durations[index] = perf_counter() - start
            ran = True
        if not ran:
            return rounds
        rounds += 1


def run_traced(bench: Bench, rng: random.Random, seconds: float) -> tuple[int, dict]:
    """Whole traced passes while the next one is expected to end in time."""
    start = perf_counter()
    passes: list[dict] = []
    while True:
        pass_start = perf_counter()
        bench.tracer.reset()
        bench.counts.clear()
        order = bench.traced_ops()
        rng.shuffle(order)
        for op in order:
            bench.run_op(op)
        passes.append(layer_metrics(bench))
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    for name, unit in PER_LAYER.items():
        if unit != "s" and len({p[name] for p in passes}) > 1:
            bench.outcome(f"count {name}", f"differs between passes: {[p[name] for p in passes]}")
    # counts and sizes repeat exactly (checked above); times are medians
    values = {
        name: passes[0][name]
        if passes[0][name] is None or unit != "s"
        else statistics.median(p[name] for p in passes)
        for name, unit in PER_LAYER.items()
    }
    return len(passes), values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="orders the operations within a run")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to keep starting operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full", help="small: reduced instances")
    parser.add_argument("--inject", choices=("partition", "digest"), default=None, help="fault for the smoke test")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        start = perf_counter()
        build_instances(Equipart(), args.workload, args.size)
        print(perf_counter() - start)
        return 0

    eq = Equipart()
    rng = random.Random(args.seed)
    work = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        bench = Bench(eq, args.workload, args.size, work, args.inject, Tracer() if args.trace else None)
        setup_times = [] if args.trace else measure_setup(args.workload, args.size)
        started = perf_counter()
        if args.trace:
            rounds, values = run_traced(bench, rng, args.seconds)
            units = PER_LAYER
        else:
            rounds = run_plain(bench, rng, args.seconds)
            values, units = end_to_end(bench, setup_times), END_TO_END
        elapsed = perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"workload {args.workload} ({args.size}), seed {args.seed}, trace {args.trace}: "
        f"{rounds} rounds in {elapsed:.1f} s, single process, closed loop, one operation at a time"
    )
    if setup_times:
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for key, runs in bench.samples.items():
        parts = ", ".join(f"{part}=[{' '.join(f'{r[part]:.4f}' for r in runs)}]" for part in runs[0])
        print(f"samples {' '.join(key)}: {parts}")
    print(f"failed_frac {bench.failed / bench.attempted:.6f} ({bench.failed} of {bench.attempted} operations)")
    for error in bench.errors[:20]:
        print(f"FAILED {error}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:24} {shown} {units[name]}")
    if bench.tracer is not None:
        if bench.tracer.absent:
            print(f"absent call sites: {', '.join(sorted(bench.tracer.absent))}")
        print(f"tracing overhead (traced minus untraced solve_s): {values['trace_overhead_s']:.4f} s")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
