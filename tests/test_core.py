import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart.core import (
    N_MAX,
    NonPositiveError,
    Partition,
    ProblemInstance,
    SumMismatchError,
    TargetTooSmallError,
    WidthOverflowError,
    WrongArityError,
    enumerate_instances,
    triangular,
    validate_instance,
    verify_partition,
)


# --- triangular -----------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (4, 10), (2, 3), (10, 55)])
def test_triangular_small(n, expected):
    assert triangular(n) == expected


def test_triangular_1337_matches_summation_loop():
    acc = 0
    for x in range(1, 1338):
        acc += x
    assert acc == 894453
    assert triangular(1337) == acc


def test_triangular_rejects_nonpositive():
    with pytest.raises(NonPositiveError):
        triangular(0)
    with pytest.raises(NonPositiveError):
        triangular(-3)


def test_triangular_width_contract():
    assert triangular(N_MAX) == N_MAX * (N_MAX + 1) // 2
    with pytest.raises(WidthOverflowError):
        triangular(N_MAX + 1)


# --- validate_instance ----------------------------------------------------


def test_validate_accepts_single_set():
    inst = validate_instance(4, 1, 10)
    assert (inst.n, inst.k, inst.t) == (4, 1, 10)
    assert inst.total == 10


def test_validate_accepts_large_instance():
    assert validate_instance(1337, 7, 127779) == ProblemInstance(1337, 7, 127779)


def test_validate_sum_mismatch():
    with pytest.raises(SumMismatchError):
        validate_instance(5, 2, 7)


def test_validate_target_too_small_takes_precedence():
    # (9, 3, 5) violates both t >= n and k*t = 45; the size check wins
    with pytest.raises(TargetTooSmallError):
        validate_instance(9, 3, 5)


@pytest.mark.parametrize("triple", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 1, 1)])
def test_validate_nonpositive(triple):
    with pytest.raises(NonPositiveError):
        validate_instance(*triple)


def test_validate_overflow():
    with pytest.raises(WidthOverflowError):
        validate_instance(N_MAX + 1, 1, 1)


# --- verify_partition -----------------------------------------------------


def test_verify_single_set_passes():
    inst = validate_instance(4, 1, 10)
    report = verify_partition(inst, [[1, 2, 3, 4]])
    assert report.ok
    assert report.first_violation is None


def test_verify_three_set_example_passes():
    inst = validate_instance(9, 3, 15)
    report = verify_partition(inst, [[6, 9], [7, 8], [1, 2, 3, 4, 5]])
    assert report.ok


def test_verify_accepts_partition_object():
    inst = validate_instance(9, 3, 15)
    part = Partition(inst, ((6, 9), (7, 8), (1, 2, 3, 4, 5)))
    assert verify_partition(inst, part).ok


def test_verify_bad_sum_reports_first_set():
    inst = validate_instance(4, 2, 5)
    report = verify_partition(inst, [[1, 2], [3, 4]])
    assert not report.ok
    assert report.sums_ok is False
    assert report.disjoint and report.covers
    assert report.first_violation == "set 1: sum 3 != 5"


def test_verify_duplicate_element():
    inst = validate_instance(4, 2, 5)
    report = verify_partition(inst, [[1, 4], [1, 4]])
    assert not report.disjoint
    assert "more than once" in report.first_violation


def test_verify_out_of_range_element():
    inst = validate_instance(4, 1, 10)
    report = verify_partition(inst, [[1, 2, 3, 4, 5]])
    assert not report.covers
    assert "outside" in report.first_violation


def test_verify_missing_element():
    inst = validate_instance(4, 2, 5)
    report = verify_partition(inst, [[1, 4], [3, 2]])
    assert report.ok  # control: this one is fine
    report = verify_partition(inst, [[1, 4], [2]])
    assert not report.covers


def test_verify_wrong_arity():
    inst = validate_instance(4, 2, 5)
    with pytest.raises(WrongArityError):
        verify_partition(inst, [[1, 2, 3, 4]])


@pytest.mark.parametrize("sets", [[[True, 2], [3]], [[1.0, 2], [3]], [[1, 2], ["3"]]])
def test_verify_rejects_non_int_elements(sets):
    # True == 1 and 1.0 == 1 would otherwise pass as the element 1
    with pytest.raises(TypeError, match="must be int"):
        verify_partition(validate_instance(3, 2, 3), sets)


def test_verify_checks_element_types_before_arity():
    with pytest.raises(TypeError):
        verify_partition(validate_instance(3, 2, 3), [[True, 2, 3]])


def test_verify_metamorphic_move_breaks_partition():
    # moving any single element between two subsets must break a sum
    from equipart.solver import solve

    for n in range(3, 40):
        for k, t in enumerate_instances(n):
            if k < 2:
                continue
            partition, _ = solve(validate_instance(n, k, t))
            sets = [list(s) for s in partition.sets]
            moved = sets[0].pop(0)
            sets[1].append(moved)
            report = verify_partition(partition.instance, sets)
            assert not report.ok, (n, k, t, moved)
            assert not report.sums_ok


# --- enumerate_instances --------------------------------------------------


def test_enumerate_small():
    assert enumerate_instances(4) == [(1, 10), (2, 5)]
    assert enumerate_instances(3) == [(1, 6), (2, 3)]
    assert enumerate_instances(1) == [(1, 1)]


def test_enumerate_1337_full_table():
    pairs = enumerate_instances(1337)
    assert pairs == [
        (1, 894453),
        (3, 298151),
        (7, 127779),
        (21, 42593),
        (191, 4683),
        (223, 4011),
        (573, 1561),
        (669, 1337),
    ]


def _naive_pairs(n):
    delta = triangular(n)
    return [(k, delta // k) for k in range(1, delta + 1) if delta % k == 0 and delta // k >= n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12, 36, 49, 100, 175])
def test_enumerate_matches_naive_divisor_loop(n):
    assert enumerate_instances(n) == _naive_pairs(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=900))
def test_enumerate_matches_naive_divisor_loop_random(n):
    assert enumerate_instances(n) == _naive_pairs(n)


def test_enumerate_pairs_all_validate():
    for n in range(1, 400):
        delta = triangular(n)
        for k, t in enumerate_instances(n):
            inst = validate_instance(n, k, t)
            assert inst.k * inst.t == delta
