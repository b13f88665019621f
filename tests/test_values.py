"""The value types: immutable, hashable named tuples, off the dataclasses import path.

The ten result and record types are ``typing.NamedTuple`` classes. These
tests pin what callers may rely on: the field names, immutability,
hashing, equality, the repr text, and that importing the CLI loads none of
``dataclasses``, ``inspect``, ``csv`` and ``json``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart.core import (
    Partition,
    ProblemInstance,
    VerificationReport,
    enumerate_instances,
    validate_instance,
    verify_partition,
)
from equipart.scan import ScanRecord, ScanResult, ScanViolation, run_scan
from equipart.solver import SolveResult, plan, solve_detailed
from equipart.trace import PropertyCheck, Trace, TracePropertyReport, check_trace_properties

SRC = Path(__file__).resolve().parents[1] / "src"


def samples():
    """One value of each of the ten types, with its field names."""
    instance = validate_instance(9, 3, 15)
    result = solve_detailed(instance)
    properties = check_trace_properties(result.trace, instance)
    scan = run_scan(9)
    violation = ScanViolation(9, 3, 15, "verify", "set 1: sum 14 != 15")
    return [
        (instance, ("n", "k", "t")),
        (result.partition, ("instance", "sets")),
        (verify_partition(instance, result.partition), ("disjoint", "covers", "sums_ok", "first_violation")),
        (result, ("partition", "trace", "insertions")),
        (result.trace, ("runs", "openings")),
        (properties.checks[0], ("name", "passed", "detail")),
        (properties, ("checks",)),
        (scan.records[-1], (
            "n", "k", "t", "trace_compact", "depth", "count_s", "count_ge", "count_go",
            "insertions", "depth_bound", "verified",
        )),
        (violation, ("n", "k", "t", "kind", "message")),
        (ScanResult(scan.records, (violation,), scan.max_depth_ratio), ("records", "violations", "max_depth_ratio")),
    ]


def test_ten_value_types_are_sampled():
    types = {type(value) for value, _ in samples()}
    assert types == {
        ProblemInstance, Partition, VerificationReport, SolveResult, Trace,
        PropertyCheck, TracePropertyReport, ScanRecord, ScanViolation, ScanResult,
    }


@pytest.mark.parametrize("index", range(10))
def test_value_type_is_immutable_hashable_and_equal_to_a_copy(index):
    value, fields = samples()[index]
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    copy = type(value)(**{name: getattr(value, name) for name in fields})
    assert copy == value and copy is not value
    assert hash(copy) == hash(value)
    assert type(value)(*(getattr(value, name) for name in fields)) == value


def test_instance_repr_unpacks_and_equals_its_plain_tuple():
    instance = ProblemInstance(9, 3, 15)
    assert repr(instance) == "ProblemInstance(n=9, k=3, t=15)"
    n, k, t = instance
    assert (n, k, t) == instance == (9, 3, 15)
    assert instance.total == 45
    assert type(validate_instance(9, 3, 15)) is ProblemInstance


def test_defaults_and_properties_are_kept():
    assert VerificationReport(True, True, True) == (True, True, True, None)
    assert VerificationReport(True, True, True).ok and not VerificationReport(True, False, True).ok
    assert PropertyCheck("P1", True).detail == ""


def test_trace_replace_keeps_the_trace_checks():
    trace = plan(validate_instance(9, 3, 15))
    assert trace._replace(openings=None) == Trace(trace.runs)
    with pytest.raises(ValueError):
        trace._replace(runs=())
    with pytest.raises(ValueError):
        trace._replace(openings=trace.openings[:1])


def test_verify_reads_a_partition_by_isinstance_not_as_two_sets():
    # a Partition is a 2-tuple; read as a candidate of sets it would be
    # (instance, sets), which must never happen
    instance = validate_instance(3, 2, 3)
    sets = ((1, 2), (3,))
    assert verify_partition(instance, Partition(instance, sets)) == (True, True, True, None)
    wrong = ((1, 3), (2,))
    assert verify_partition(instance, Partition(instance, wrong)) == verify_partition(instance, wrong)
    assert not verify_partition(instance, Partition(instance, wrong)).ok


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = "import sys, equipart.cli; print(sorted({'csv', 'dataclasses', 'inspect', 'json'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert done.stdout.strip() == "[]"


# --- per_step against the stepwise loop it replaced ------------------------


def stepwise_per_step(trace):
    """Frozen copy of the stepwise ``Trace.per_step`` loop: every s step
    follows from the one before by t' = t - 2(n - k) - 1."""
    if trace.openings is None:
        return None
    steps = []
    for (_, count), opening in zip(trace.runs, trace.openings):
        steps.append(opening)
        n, k, t = opening.n, opening.k, opening.t
        for _ in range(count - 1):
            n, t = n - 2 * k, t - 2 * (n - k) - 1
            steps.append(ProblemInstance(n, k, t))
    return tuple(steps)


def assert_per_step_as_stepwise(n, k, t):
    trace = plan(validate_instance(n, k, t))
    per_step = trace.per_step
    assert per_step == stepwise_per_step(trace), (n, k, t)
    assert all(type(step) is ProblemInstance for step in per_step), (n, k, t)
    assert len(per_step) == len(trace.symbols)


@pytest.mark.parametrize("n,k", [(999999, 3), (10**6, 101)])
def test_per_step_as_stepwise_on_deep_runs(n, k):
    assert_per_step_as_stepwise(n, k, n * (n + 1) // (2 * k))


def test_per_step_is_none_for_a_parsed_trace():
    assert Trace(plan(validate_instance(1337, 7, 127779)).runs).per_step is None


instances = st.integers(min_value=1, max_value=10**6).flatmap(
    lambda n: st.sampled_from([(n, k, t) for k, t in enumerate_instances(n) if n // (2 * k) <= 10**4])
)


@settings(max_examples=200, deadline=None)
@given(instances)
def test_per_step_as_stepwise_on_sampled_instances(triple):
    assert_per_step_as_stepwise(*triple)
