from itertools import groupby
from typing import Iterator, NamedTuple

import pytest

from equipart.core import PreconditionError, validate_instance, verify_partition
from equipart.solver import meander_columns, meander_even, meander_odd

# --- spec oracle: the construction's lines I and II, one element at a time --


class MeanderAssignment(NamedTuple):
    """One generated element: set index j, block i (both 1-based), line label."""

    set_index: int
    block: int
    label: str  # "I" or "II"
    value: int


def even_assignments(n: int, k: int) -> Iterator[MeanderAssignment]:
    """Yield the even-case assignments in nested loop order (j outer, i inner)."""
    two_k = 2 * k
    blocks = n // two_k
    for j in range(1, k + 1):
        for i in range(1, blocks + 1):
            yield MeanderAssignment(j, i, "I", two_k * i - (j - 1))
            yield MeanderAssignment(j, i, "II", two_k * (i - 1) + j)


def odd_assignments(n: int, k: int) -> Iterator[MeanderAssignment]:
    """Yield the odd-case assignments, including the bookkeeping 0."""
    two_k = 2 * k
    blocks = (n + 1) // two_k
    for j in range(1, k + 1):
        for i in range(1, blocks + 1):
            yield MeanderAssignment(j, i, "I", two_k * i - j)
            yield MeanderAssignment(j, i, "II", two_k * (i - 1) + (j - 1))


def even_case_ks(n):
    """All k giving a valid even-case instance: divisors of n/2."""
    half = n // 2
    return [k for k in range(1, half + 1) if half % k == 0]


def odd_case_ks(n):
    half = (n + 1) // 2
    return [k for k in range(1, half + 1) if half % k == 0]


# --- construction goldens -------------------------------------------------


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((4, 1, 10), ((1, 2, 3, 4),)),
        ((8, 2, 18), ((1, 4, 5, 8), (2, 3, 6, 7))),
        ((12, 3, 26), ((1, 6, 7, 12), (2, 5, 8, 11), (3, 4, 9, 10))),
    ],
)
def test_meander_even_golden(triple, expected):
    inst = validate_instance(*triple)
    partition = meander_even(inst)
    assert partition.sets == expected
    assert verify_partition(inst, partition).ok


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((3, 1, 6), ((1, 2, 3),)),
        ((7, 2, 14), ((3, 4, 7), (1, 2, 5, 6))),
        ((11, 3, 22), ((5, 6, 11), (1, 4, 7, 10), (2, 3, 8, 9))),
    ],
)
def test_meander_odd_golden(triple, expected):
    inst = validate_instance(*triple)
    partition = meander_odd(inst)
    assert partition.sets == expected
    assert verify_partition(inst, partition).ok


# --- preconditions --------------------------------------------------------


def test_meander_even_rejects_wrong_case():
    with pytest.raises(PreconditionError):
        meander_even(validate_instance(3, 1, 6))  # n odd
    with pytest.raises(PreconditionError):
        meander_even(validate_instance(9, 3, 15))  # 6 does not divide 9


def test_meander_odd_rejects_wrong_case():
    with pytest.raises(PreconditionError):
        meander_odd(validate_instance(4, 1, 10))  # n even
    with pytest.raises(PreconditionError):
        meander_odd(validate_instance(9, 3, 15))  # 6 does not divide 10


# --- assignment streams vs the solver's meander ---------------------------


def _sets_from_stream(assignments, k, drop_zero):
    sets = [[] for _ in range(k)]
    count = 0
    for a in assignments:
        count += 1
        if drop_zero and a.value == 0:
            continue
        sets[a.set_index - 1].append(a.value)
    return [sorted(s) for s in sets], count


def _solved(n, k, meander):
    """The meander's sets as lists, and the values meander_columns yields."""
    sets = [list(s) for s in meander(validate_instance(n, k, n * (n + 1) // (2 * k))).sets]
    # the odd case starts at the bookkeeping 0
    return sets, sum(map(len, meander_columns(1 - n % 2, n, k, 0, k)))


@pytest.mark.parametrize("n", [2, 4, 8, 30, 60, 120, 252, 400])
def test_even_builder_matches_stream(n):
    for k in even_case_ks(n):
        sets, count = _solved(n, k, meander_even)
        stream_sets, stream_count = _sets_from_stream(even_assignments(n, k), k, False)
        assert sets == stream_sets  # already ascending
        assert count == stream_count == n


@pytest.mark.parametrize("n", [1, 3, 7, 29, 59, 119, 251, 399])
def test_odd_builder_matches_stream(n):
    for k in odd_case_ks(n):
        sets, count = _solved(n, k, meander_odd)
        stream_sets, stream_count = _sets_from_stream(odd_assignments(n, k), k, True)
        assert sets == stream_sets
        assert count == stream_count == n + 1


# --- formula and range invariants ----------------------------------------


@pytest.mark.parametrize("n,k", [(8, 2), (24, 4), (60, 5), (126, 9)])
def test_even_assignment_formulas_and_ranges(n, k):
    for a in even_assignments(n, k):
        if a.label == "I":
            assert a.value == 2 * k * a.block - (a.set_index - 1)
            assert k + 1 <= a.value <= n
        else:
            assert a.value == 2 * k * (a.block - 1) + a.set_index
            assert 1 <= a.value <= n - k


@pytest.mark.parametrize("n,k", [(7, 2), (23, 4), (59, 5), (125, 9)])
def test_odd_assignment_formulas_and_ranges(n, k):
    for a in odd_assignments(n, k):
        if a.label == "I":
            assert a.value == 2 * k * a.block - a.set_index
            assert k <= a.value <= n
        else:
            assert a.value == 2 * k * (a.block - 1) + (a.set_index - 1)
            assert 0 <= a.value <= n - k


# --- coverage and sums across a sample up to 5000 -------------------------


def _sample_ns(parity, limit=5000):
    dense = [n for n in range(1, 301) if n % 2 == parity % 2]
    sparse = [n for n in range(301, limit + 1, 97) if n % 2 == parity % 2]
    extra = [n for n in (1024, 2048, 2047, 4095, 4096, 4999, 5000) if n % 2 == parity % 2]
    return sorted(set(dense + sparse + extra))


def test_even_case_covers_and_sums():
    for n in _sample_ns(0):
        for k in even_case_ks(n):
            sets, count = _solved(n, k, meander_even)
            assert count == n
            values = sorted(x for s in sets for x in s)
            assert values == list(range(1, n + 1))
            t = n * (n + 1) // (2 * k)
            assert all(sum(s) == t for s in sets)


def test_odd_case_covers_and_sums():
    for n in _sample_ns(1):
        for k in odd_case_ks(n):
            sets, count = _solved(n, k, meander_odd)
            assert count == n + 1
            values = sorted(x for s in sets for x in s)
            assert values == list(range(1, n + 1))  # 0 already dropped
            t = n * (n + 1) // (2 * k)
            assert all(sum(s) == t for s in sets)


def test_stream_generates_each_value_once():
    # even: {1..n}; odd: {0..n}
    values = sorted(a.value for a in even_assignments(24, 3))
    assert values == list(range(1, 25))
    values = sorted(a.value for a in odd_assignments(23, 3))
    assert values == list(range(0, 24))
    # no duplicates anywhere
    assert all(len(list(g)) == 1 for _, g in groupby(values))
