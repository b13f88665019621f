"""Differential check: the solver against the frozen reference.

``reference_solver`` is the earlier pair-list solver, kept unchanged. Both
must give the same sets, trace symbols, per-step instances and insertion
counts on every instance tried.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solver
from equipart.core import enumerate_instances, validate_instance
from equipart.solver import plan, solve_detailed
from equipart.trace import TraceSymbol


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


# meander_columns builds k < blocks columns from strided slices and the
# others with zip. Each instance below has a level whose range holds
# blocks = k - 1, k or k + 1 blocks of 2k values, starting at an even or an
# odd value: the meander base with n odd (low 0) or even (low 1), and the
# first s-run. Entries: (n, k, t), that level's case, blocks - k, low % 2.
BRANCH_POINT = [
    ((11703, 77, 889428), "m", -1, 0),
    ((11704, 77, 889580), "m", -1, 1),
    ((11857, 77, 912989), "m", 0, 0),
    ((11858, 77, 913143), "m", 0, 1),
    ((11703, 76, 901131), "m", 1, 0),
    ((11704, 76, 901285), "m", 1, 1),
    ((11879, 77, 916380), "s", -1, 0),  # s^76 ge m
    ((11934, 77, 924885), "s", -1, 1),  # s^76 go m
    ((11799, 76, 915975), "s", 0, 0),  # s^76 go s ge^2 m
    ((11760, 76, 909930), "s", 0, 1),  # s^76 ge go s ge m
    ((11951, 76, 939726), "s", 1, 0),  # s^77 go s ge^2 m
    ((11912, 76, 933603), "s", 1, 1),  # s^77 ge go s ge m
]


@pytest.mark.parametrize("triple,case,excess,parity", BRANCH_POINT)
def test_same_as_reference_on_both_sides_of_the_column_branch(triple, case, excess, parity):
    trace = plan(validate_instance(*triple))
    first = next(i for i, (symbol, _) in enumerate(trace.runs) if symbol is TraceSymbol(case))
    n, k = trace.openings[first].n, trace.openings[first].k
    low = trace.openings[first + 1].n + 1 if case == "s" else 1 - n % 2
    assert ((n - low + 1) // (2 * k) - k, low % 2) == (excess, parity)
    assert_same_as_reference(*triple)
