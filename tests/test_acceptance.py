"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Criteria 3, 4, 5 and 8 and the scan CSV pin share one scan of
every valid instance with n <= 2000 (module-scoped fixture).
"""

import hashlib
import io
import time

import pytest

from equipart import solver
from equipart.cli import main as cli_main
from equipart.core import (
    enumerate_instances,
    triangular,
    validate_instance,
    verify_partition,
)
from equipart.oracle import brute_force_partition
from equipart.scan import run_scan, write_csv
from equipart.solver import solve, solve_detailed
from equipart.trace import render_trace

GOLDEN_1337 = {
    3: "m",
    7: "s^94 go m",
    21: "s^30 go s ge m",
    191: "s^2 go m",
    223: "m",
    573: "go m",
    669: "m",
}

GOLDEN_9999 = {
    4444: "ge s^3 ge^4 go m",
    4040: "go s^4 go s^4 go s ge m",
    3960: "go s^3 ge go s^8 go m",
    3333: "ge^3 go m",
    12: "s^415 go s ge^2 m",
}

SCAN_LIMIT = 2000


def _conclude(number, title, problems, detail=""):
    status = "FAIL" if problems else "PASS"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number:2d} {title}: {status}{suffix}")
    assert not problems, f"criterion {number} failed: {problems[:5]}"


@pytest.fixture(scope="module")
def exhaustive_scan():
    started = time.perf_counter()
    result = run_scan(SCAN_LIMIT)
    return result, time.perf_counter() - started


def test_criterion_01_golden_traces_1337():
    problems = []
    started = time.perf_counter()
    for k, expected in GOLDEN_1337.items():
        instance = validate_instance(1337, k, triangular(1337) // k)
        _, trace = solve(instance)
        got = render_trace(trace)
        if got != expected:
            problems.append(f"k={k}: got {got!r}, expected {expected!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, limit 1s")
    _conclude(1, "golden traces n=1337", problems, f"{elapsed:.3f}s, 7 traces exact")


def test_criterion_02_golden_traces_9999():
    problems = []
    started = time.perf_counter()
    for k, expected in GOLDEN_9999.items():
        instance = validate_instance(9999, k, triangular(9999) // k)
        _, trace = solve(instance)
        got = render_trace(trace)
        if got != expected:
            problems.append(f"k={k}: got {got!r}, expected {expected!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 2.0:
        problems.append(f"took {elapsed:.2f}s, limit 2s")
    _conclude(2, "golden traces n=9999", problems, f"{elapsed:.3f}s, 5 traces exact")


def test_criterion_03_exhaustive_soundness(exhaustive_scan):
    result, elapsed = exhaustive_scan
    problems = [
        f"n={v.n} k={v.k} t={v.t}: {v.message}"
        for v in result.violations
        if v.kind in ("verify", "solve")
    ]
    if elapsed >= 60.0:
        problems.append(f"scan took {elapsed:.1f}s, target 60s")
    _conclude(
        3,
        f"exhaustive soundness n<={SCAN_LIMIT}",
        problems,
        f"{len(result.records)} instances verified in {elapsed:.1f}s",
    )


def test_criterion_04_trace_property_suite(exhaustive_scan):
    result, _ = exhaustive_scan
    problems = [
        f"n={v.n} k={v.k} t={v.t}: {v.message}"
        for v in result.violations
        if v.kind == "trace-property"
    ]
    _conclude(
        4,
        "trace properties P1-P6 over the scan",
        problems,
        f"6 properties x {len(result.records)} instances",
    )


def test_criterion_05_depth_bound(exhaustive_scan):
    result, _ = exhaustive_scan
    problems = [
        f"n={v.n} k={v.k} t={v.t}: {v.message}"
        for v in result.violations
        if v.kind == "depth"
    ]
    _conclude(
        5,
        "depth <= n/2k + 2*log2(n(n+1)/2k) + 2",
        problems,
        f"max depth/limit ratio {result.max_depth_ratio:.4f}",
    )


def _divisors(m):
    found = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            found.append(d)
            if d != m // d:
                found.append(m // d)
        d += 1
    return sorted(found)


def test_criterion_06_linear_meander_work():
    problems = []
    checked = 0
    for n in range(1, 5001):
        odd = n % 2  # the odd case's columns also hold the bookkeeping 0
        for k in _divisors((n + odd) // 2):  # 2k | n, or 2k | n + 1
            columns = list(solver.meander_columns(1 - odd, n, k, 0, k))
            count = sum(map(len, columns))
            if len(columns) != k or count != n + odd:
                problems.append(f"n={n} k={k}: meander_columns made {len(columns)} columns of {count} values")
            insertions = solve_detailed(validate_instance(n, k, triangular(n) // k)).insertions
            if insertions != n:
                problems.append(f"n={n} k={k}: solve reports {insertions} insertions")
            checked += 1
    _conclude(6, "meander insertion counters n<=5000", problems, f"{checked} instances")


def test_criterion_07_oracle_equivalence():
    problems = []
    checked = 0
    started = time.perf_counter()
    for n in range(1, 17):
        for k, t in enumerate_instances(n):
            instance = validate_instance(n, k, t)
            fast, _ = solve(instance)
            slow = brute_force_partition(instance)
            if not verify_partition(instance, fast).ok:
                problems.append(f"solver failed on ({n}, {k}, {t})")
            if slow is None or not verify_partition(instance, slow).ok:
                problems.append(f"oracle failed on ({n}, {k}, {t})")
            checked += 1
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, limit 10s")
    _conclude(7, "oracle equivalence n<=16", problems, f"{checked} instances, {elapsed:.2f}s")


def test_criterion_08_child_feasibility(exhaustive_scan):
    result, _ = exhaustive_scan
    problems = [
        f"n={v.n} k={v.k} t={v.t}: {v.message}"
        for v in result.violations
        if v.kind in ("feasibility", "solve")
    ]
    _conclude(
        8,
        "every recursion child satisfies the input contract",
        problems,
        f"all chains re-validated across {len(result.records)} instances",
    )


# sha256 of the scan CSV for n <= 2000 (28,689 rows, 1,195,401 bytes)
SCAN_CSV_SHA256 = "05a2aa39e030f18bb03fef0c6d19ce31b3a180f1b9139fa52a79de6b3389cc79"


def test_scan_csv_bytes_are_pinned(exhaustive_scan):
    result, _ = exhaustive_scan
    buffer = io.StringIO()
    write_csv(result.records, buffer)
    data = buffer.getvalue().encode()
    assert len(result.records) == 28689 and len(data) == 1195401
    assert hashlib.sha256(data).hexdigest() == SCAN_CSV_SHA256


def _meander_columns_line_one_off(low, high, k, a, b):
    # line I one element too low: 2ki - j instead of 2ki - (j-1) in the even
    # case, so no set gets the last value of a block and the last set gets
    # its middle value twice
    two_k = 2 * k
    return [
        tuple(sorted([*range(low + j, high + 1, two_k), *range(low + two_k - 2 - j, high + 1, two_k)]))
        for j in range(a, b)
    ]


def test_criterion_09_mutation_sensitivity(monkeypatch, capsys, tmp_path):
    problems = []
    out = str(tmp_path / "scan.csv")

    if cli_main(["scan", "--n-max", "100", "--out", out]) != 0:
        problems.append("baseline scan not clean")

    real_smaller = solver.smaller_run
    real_greater = solver.greater

    def smaller_wrong_child_target(*args):
        steps, child_n, child_k, child_t = real_smaller(*args)
        return steps, child_n, child_k, child_t + 1

    def greater_even_pairing_shifted(sets, n, t, a, b, pairs):
        # t even: the pivot's set and the next one both take child set 0;
        # the last child set is left out
        if t % 2 == 0 and len(sets) >= 3:
            sets = sets[:1] + sets[:-1]
        return real_greater(sets, n, t, a, b, pairs)

    def greater_quadruples_shifted(sets, n, t, a, b, pairs):
        # the sets built from the child's finished pairs c and c+1,
        # (L+c, L+c+1, H-c-1, H-c), take pairs c+1 and c+2 instead: the same
        # sums, but one child element twice and another never
        composed = real_greater(sets, n, t, a, b, pairs)
        low, high = n + 1 - t // 2, t - n - 1
        return [
            (s[0] + 1, s[1] + 1, s[2] - 1, s[3] - 1)
            if pairs and len(s) == 4 and s[0] + s[3] == low + high and s[1] == s[0] + 1 and s[3] == s[2] + 1
            else s
            for s in composed
        ]

    mutations = [
        ("meander line I off by one", "meander_columns", _meander_columns_line_one_off),
        ("s-run wrong child t'", "smaller_run", smaller_wrong_child_target),
        ("case-III child pairing shifted", "greater", greater_even_pairing_shifted),
        ("case-III closed-form quadruples shifted", "greater", greater_quadruples_shifted),
    ]
    for title, attribute, mutant in mutations:
        with monkeypatch.context() as patch:
            patch.setattr(solver, attribute, mutant)
            code = cli_main(["scan", "--n-max", "100", "--out", out])
        if code != 3:
            problems.append(f"{title}: scan exited {code}, expected 3")
    capsys.readouterr()  # drop the mutated scans' violation listings
    _conclude(9, "mutation sensitivity", problems, "4 seeded bugs all detected")


def test_criterion_10_scale_one_million():
    problems = []
    n = 10**6
    delta = triangular(n)
    started = time.perf_counter()
    for k in (101, 9901, 250000):
        instance = validate_instance(n, k, delta // k)
        result = solve_detailed(instance)
        if result.insertions != n:
            problems.append(f"k={k}: {result.insertions} insertions")
        if not verify_partition(instance, result.partition).ok:
            problems.append(f"k={k}: verification failed")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    _conclude(10, "n = 10^6 solves in seconds", problems, f"3 solves in {elapsed:.1f}s")
