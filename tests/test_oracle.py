import subprocess
import sys

import pytest

from equipart.core import enumerate_instances, validate_instance, verify_partition
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


def test_search_deeper_than_the_stack_is_refused():
    # one frame per element: n beyond the recursion limit is a cap error,
    # not a RecursionError
    inst = validate_instance(1100, 550, 1101)
    with pytest.raises(CapExceededError, match="search depth"):
        brute_force_partition(inst, cap=2000)
    # within the stack it still searches
    inst = validate_instance(400, 200, 401)
    partition = brute_force_partition(inst, cap=400)
    assert verify_partition(inst, partition).ok


def test_cli_oracle_beyond_search_depth_exits_1_without_traceback():
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "oracle", "--n", "1100", "--k", "550", "--cap", "2000"],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 1
    assert "search depth" in done.stderr
    assert "Traceback" not in done.stderr
