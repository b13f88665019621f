import io
import math

import pytest

from equipart import cli, scan, solver
from equipart.core import SumMismatchError
from equipart.scan import ScanViolation, depth_bound, depth_limit, run_scan, scan_instance, write_csv
from equipart.trace import PropertyCheck, TracePropertyReport


def test_depth_bounds_formulas():
    assert depth_bound(8, 2) == 8 / 4 + math.log2(8 * 9 / 4)
    assert depth_limit(8, 2) == 8 / 4 + 2 * math.log2(8 * 9 / 4) + 2
    assert depth_limit(8, 2) > depth_bound(8, 2)


def test_scan_instance_record_fields():
    record, violations = scan_instance(9, 3, 15)
    assert violations == []
    assert record.trace_compact == "go m"
    assert record.depth == 2
    assert (record.count_s, record.count_ge, record.count_go) == (0, 0, 1)
    assert record.insertions == 9
    assert record.verified


def test_scan_depth_row_for_deep_chain():
    record, violations = scan_instance(1337, 7, 127779)
    assert violations == []
    assert record.depth == 96
    assert record.trace_compact == "s^94 go m"
    assert record.insertions == 1337


def test_run_scan_small_range_is_clean_and_sorted():
    result = run_scan(30)
    assert result.ok
    assert all(record.verified for record in result.records)
    keys = [(record.n, record.k) for record in result.records]
    assert keys == sorted(keys)
    assert 0.0 < result.max_depth_ratio <= 1.0


def test_run_scan_honors_lower_bound():
    result = run_scan(10, 9)
    assert {record.n for record in result.records} == {9, 10}
    with pytest.raises(ValueError):
        run_scan(5, 6)
    with pytest.raises(ValueError):
        run_scan(5, 0)


def test_write_csv_exact_bytes():
    result = run_scan(3)
    stream = io.StringIO()
    write_csv(result.records, stream)
    assert stream.getvalue() == (
        "n,k,t,depth,count_s,count_ge,count_go,insertions,depth_bound,trace\n"
        f"1,1,1,1,0,0,0,1,{depth_bound(1, 1):.4f},m\n"
        f"2,1,3,1,0,0,0,2,{depth_bound(2, 1):.4f},m\n"
        f"3,1,6,1,0,0,0,3,{depth_bound(3, 1):.4f},m\n"
        f"3,2,3,1,0,0,0,3,{depth_bound(3, 2):.4f},m\n"
    )


def _rotate_meander_columns(monkeypatch):
    real = solver.meander_columns

    def rotated_columns(low, high, k, a, b):
        # every value goes to the set meant for its successor
        return [
            tuple(sorted(high if x == low else x - 1 for x in column))
            for column in real(low, high, k, a, b)
        ]

    monkeypatch.setattr(solver, "meander_columns", rotated_columns)


def _fail_a_trace_property(monkeypatch):
    failed = TracePropertyReport((PropertyCheck("P1", True), PropertyCheck("P2", False, "seeded")))
    monkeypatch.setattr(scan, "check_trace_properties", lambda trace, instance: failed)


def _reject_every_child(monkeypatch):
    real, calls = scan.validate_instance, []

    def rejecting(n, k, t):  # the first call validates the instance itself
        calls.append((n, k, t))
        if len(calls) > 1:
            raise SumMismatchError("seeded")
        return real(n, k, t)

    monkeypatch.setattr(scan, "validate_instance", rejecting)


def _drop_an_insertion(monkeypatch):
    real = scan.solve_detailed
    monkeypatch.setattr(scan, "solve_detailed", lambda instance: real(instance)._replace(insertions=instance.n - 1))


def _lower_the_depth_limit(monkeypatch):
    monkeypatch.setattr(scan, "depth_limit", lambda n, k: 0.5)  # not 0: run_scan divides by it


# one seeded fault per violation kind, on (15, 3, 40), traced s go m: its
# children are (9, 3, 15) and (5, 1, 15)
SEEDED = {
    "verify": (_rotate_meander_columns, ["set 1: sum 44 != 40"]),
    "trace-property": (_fail_a_trace_property, ["P2: seeded"]),
    "feasibility": (_reject_every_child, ["child (9, 3, 15): seeded", "child (5, 1, 15): seeded"]),
    "insertions": (_drop_an_insertion, ["14 placements for n=15"]),
    "depth": (_lower_the_depth_limit, ["depth 3 exceeds limit 0.5000"]),
}


@pytest.mark.parametrize("kind", list(SEEDED))
def test_scan_instance_detects_seeded_bug(monkeypatch, kind):
    seed, messages = SEEDED[kind]
    seed(monkeypatch)
    record, violations = scan_instance(15, 3, 40)
    assert violations == [ScanViolation(15, 3, 40, kind, message) for message in messages]
    assert record is not None and record.verified is False


def test_scan_cli_reports_a_seeded_violation_and_exits_3(capsys, monkeypatch):
    _drop_an_insertion(monkeypatch)
    code = cli.main(["scan", "--n-min", "15", "--n-max", "15"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INVARIANT == 3
    assert "violation: n=15 k=3 t=40 [insertions] 14 placements for n=15\n" in err
