"""Exhaustive scan harness: solve, verify and property-check whole ranges.

For every n in range and every valid (k, t) the harness solves the
instance, verifies the partition, evaluates the trace properties, checks
the placement count and the recursion depth limit, and emits one CSV row.
Rows are generated in ascending (n, k) order, so output is byte-for-byte
deterministic.
"""

from __future__ import annotations

import math
from typing import NamedTuple, TextIO

from .core import (
    N_MAX,
    InstanceError,
    InvariantError,
    WidthOverflowError,
    enumerate_instances,
    validate_instance,
    verify_partition,
)
from .solver import solve_detailed
from .trace import TraceSymbol, _step_counts, check_trace_properties, render_trace

CSV_COLUMNS = (
    "n",
    "k",
    "t",
    "depth",
    "count_s",
    "count_ge",
    "count_go",
    "insertions",
    "depth_bound",
    "trace",
)


def depth_bound(n: int, k: int) -> float:
    """Reference depth scale n/2k + log2(n(n+1)/2k); reported in the CSV."""
    return n / (2 * k) + math.log2(n * (n + 1) / (2 * k))


def depth_limit(n: int, k: int) -> float:
    """Enforced engineering bound n/2k + 2*log2(n(n+1)/2k) + 2.

    Wider than :func:`depth_bound` by a factor of 2 on the log term plus a
    constant; the scan flags any instance whose trace is longer than this.
    """
    return n / (2 * k) + 2 * math.log2(n * (n + 1) / (2 * k)) + 2


class ScanRecord(NamedTuple):
    """Per-instance statistics for one CSV row."""

    n: int
    k: int
    t: int
    trace_compact: str
    depth: int
    count_s: int
    count_ge: int
    count_go: int
    insertions: int
    depth_bound: float
    verified: bool


class ScanViolation(NamedTuple):
    n: int
    k: int
    t: int
    kind: str  # "solve" | "verify" | "trace-property" | "feasibility" | "insertions" | "depth"
    message: str


class ScanResult(NamedTuple):
    records: tuple[ScanRecord, ...]
    violations: tuple[ScanViolation, ...]
    max_depth_ratio: float

    @property
    def ok(self) -> bool:
        return not self.violations


def scan_instance(n: int, k: int, t: int) -> tuple[ScanRecord | None, list[ScanViolation]]:
    """Run every check on one instance, re-validating the instance of every step."""
    instance = validate_instance(n, k, t)
    try:
        result = solve_detailed(instance)
    except InvariantError as exc:
        return None, [ScanViolation(n, k, t, "solve", str(exc))]

    violations: list[ScanViolation] = []
    report = verify_partition(instance, result.partition)
    if not report.ok:
        violations.append(ScanViolation(n, k, t, "verify", report.first_violation or "failed"))
    properties = check_trace_properties(result.trace, instance)
    for failure in properties.failures:
        violations.append(
            ScanViolation(n, k, t, "trace-property", f"{failure.name}: {failure.detail}")
        )
    # each step after the first is a recursion child; re-validate it against the full
    # input contract, independently of the recurrence that derives an s-run's steps
    for child in result.trace.per_step[1:]:
        try:
            validate_instance(*child)
        except InstanceError as exc:
            violations.append(ScanViolation(n, k, t, "feasibility", f"child {tuple(child)}: {exc}"))
    if result.insertions != n:
        violations.append(
            ScanViolation(n, k, t, "insertions", f"{result.insertions} placements for n={n}")
        )
    count = _step_counts(result.trace.runs)
    depth = sum(count.values())
    limit = depth_limit(n, k)
    if depth > limit:
        violations.append(
            ScanViolation(n, k, t, "depth", f"depth {depth} exceeds limit {limit:.4f}")
        )

    record = ScanRecord(
        n=n,
        k=k,
        t=t,
        trace_compact=render_trace(result.trace),
        depth=depth,
        count_s=count[TraceSymbol.SMALLER],
        count_ge=count[TraceSymbol.GREATER_EVEN],
        count_go=count[TraceSymbol.GREATER_ODD],
        insertions=result.insertions,
        depth_bound=depth_bound(n, k),
        verified=not violations,
    )
    return record, violations


def run_scan(n_max: int, n_min: int = 1) -> ScanResult:
    """Scan every valid instance with n_min <= n <= n_max."""
    if n_min < 1 or n_max < n_min:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_max > N_MAX:  # up front: triangular rejects only N_MAX + 1, after every smaller n
        raise WidthOverflowError(f"n_max={n_max} exceeds supported maximum {N_MAX}")
    records: list[ScanRecord] = []
    violations: list[ScanViolation] = []
    max_ratio = 0.0
    for n in range(n_min, n_max + 1):
        for k, t in enumerate_instances(n):
            record, errors = scan_instance(n, k, t)
            violations.extend(errors)
            if record is not None:
                records.append(record)
                max_ratio = max(max_ratio, record.depth / depth_limit(n, k))
    return ScanResult(tuple(records), tuple(violations), max_ratio)


def write_csv(records: tuple[ScanRecord, ...] | list[ScanRecord], stream: TextIO) -> None:
    """Write scan records as CSV text under a fixed header. No field needs quoting:
    each is an int, a 4-decimal depth bound or a trace of ``m s ge go ^``, digits, spaces."""
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        stream.write(
            f"{r.n},{r.k},{r.t},{r.depth},{r.count_s},{r.count_ge},{r.count_go},"
            f"{r.insertions},{r.depth_bound:.4f},{r.trace_compact}\n"
        )
