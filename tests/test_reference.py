"""Differential check: the label-array solver against the frozen reference.

``reference_solver`` is the earlier pair-list solver, kept unchanged. Both
must give the same sets, trace symbols, per-step instances and insertion
counts on every instance tried.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solver
from equipart.core import enumerate_instances, validate_instance
from equipart.solver import solve_detailed


def assert_same_as_reference(n, k, t):
    instance = validate_instance(n, k, t)
    got = solve_detailed(instance, record_steps=True)
    want = reference_solver.solve_detailed(instance, record_steps=True)
    assert got.partition.sets == want.partition.sets, (n, k, t)
    assert got.trace.symbols == want.trace.symbols, (n, k, t)
    assert got.trace.per_step == want.trace.per_step, (n, k, t)
    assert got.insertions == want.insertions, (n, k, t)


def test_same_as_reference_on_every_instance_up_to_1000():
    checked = 0
    for n in range(1, 1001):
        for k, t in enumerate_instances(n):
            assert_same_as_reference(n, k, t)
            checked += 1
    assert checked == 12114


instances = st.integers(min_value=1, max_value=20000).flatmap(
    lambda n: st.sampled_from([(n, k, t) for k, t in enumerate_instances(n)])
)


@settings(max_examples=300, deadline=None)
@given(instances)
def test_same_as_reference_on_sampled_instances(triple):
    assert_same_as_reference(*triple)
