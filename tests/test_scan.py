import io
import math

import pytest

from equipart import solver
from equipart.scan import depth_bound, depth_limit, run_scan, scan_instance, write_csv


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


def test_scan_instance_detects_seeded_bug(monkeypatch):
    real = solver.meander_fill

    def rotated_fill(owner, slot, low, high):
        # every element takes the label meant for its successor
        written = real(owner, slot, low, high)
        owner[low : high + 1] = owner[low + 1 : high + 1] + owner[low : low + 1]
        return written

    monkeypatch.setattr(solver, "meander_fill", rotated_fill)
    record, violations = scan_instance(8, 2, 18)
    assert record is not None and not record.verified
    assert any(v.kind == "verify" for v in violations)
