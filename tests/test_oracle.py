import subprocess
import sys

import pytest

import reference_oracle
from equipart.core import ProblemInstance, enumerate_instances, validate_instance, verify_partition
from equipart.oracle import CapExceededError, brute_force_partition


def test_brute_force_small_instances_verify():
    for triple in [(4, 2, 5), (9, 3, 15), (16, 4, 34)]:
        inst = validate_instance(*triple)
        partition = brute_force_partition(inst)
        assert partition is not None
        assert verify_partition(inst, partition).ok


def test_brute_force_unique_partition_is_found_exactly():
    inst = validate_instance(3, 2, 3)
    partition = brute_force_partition(inst)
    assert sorted(partition.sets) == [(1, 2), (3,)]


def test_exists_partition_on_valid_instances():
    assert brute_force_partition(validate_instance(4, 2, 5)) is not None
    assert brute_force_partition(validate_instance(9, 3, 15)) is not None


def test_no_partition_is_none():
    # k * t = 8 < 10: the search runs out of choices for element 1
    assert brute_force_partition(ProblemInstance(4, 2, 4)) is None


def test_cap_is_enforced_and_overridable():
    inst = validate_instance(31, 16, 31)
    with pytest.raises(CapExceededError):
        brute_force_partition(inst)
    partition = brute_force_partition(inst, cap=31)
    assert partition is not None
    assert verify_partition(inst, partition).ok


def test_every_small_instance_has_a_partition():
    # existence is guaranteed for every valid instance; the search must
    # never come back empty on its domain
    for n in range(1, 17):
        for k, t in enumerate_instances(n):
            inst = validate_instance(n, k, t)
            partition = brute_force_partition(inst)
            assert partition is not None, (n, k, t)
            assert verify_partition(inst, partition).ok


def test_same_partitions_as_the_recursive_search():
    # the iterative search keeps the recursive one's order of tries exactly
    for n in range(1, 31):
        for k, t in enumerate_instances(n):
            inst = validate_instance(n, k, t)
            assert brute_force_partition(inst) == reference_oracle.brute_force_partition(inst), (n, k, t)


class LineBudgetExceeded(Exception):
    pass


def lines_run(limit, func, *args):
    """Call func, counting the lines it runs; raise LineBudgetExceeded past limit.

    A count, not a clock, so the bound holds on any machine and stops a
    search that would run for hours at once."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > limit:
                raise LineBudgetExceeded(f"{func.__name__} ran more than {limit} lines")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is func.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        return func(*args), count
    finally:
        sys.settrace(previous)


@pytest.mark.parametrize("triple", [(16, 8, 16), (20, 10, 20)])
def test_equal_rooms_are_tried_once(triple):
    # k sets of t = n cannot hold 1..n (k * t < n(n+1)/2), so the search is
    # exhaustive; it stays small only if each room is tried once per element.
    # Trying every set of an equal room multiplies it by up to k!: (16, 8, 16)
    # takes 72 tries with the pruning and 876,808 without.
    result, lines = lines_run(5000, brute_force_partition, ProblemInstance(*triple))
    assert result is None
    assert lines > 100


def test_search_deeper_than_the_stack_is_solved():
    # one stack entry per element, in a list: n beyond the recursion limit
    # is bounded by the cap alone
    inst = validate_instance(1100, 550, 1101)
    partition = brute_force_partition(inst, cap=2000)
    assert partition is not None
    assert verify_partition(inst, partition).ok
    inst = validate_instance(400, 200, 401)
    partition = brute_force_partition(inst, cap=400)
    assert verify_partition(inst, partition).ok


def test_cli_oracle_beyond_the_stack_solves_and_verifies():
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "oracle", "--n", "1100", "--k", "550", "--cap", "2000"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    header, *rows = done.stdout.splitlines()
    assert header == "n=1100 k=550 t=1101"
    sets = [tuple(map(int, row.split(": ")[1].split())) for row in rows]
    assert verify_partition(validate_instance(1100, 550, 1101), sets).ok
