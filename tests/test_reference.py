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
from equipart.solver import compose_window, plan, solve_detailed
from equipart.trace import TraceSymbol, render_trace


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


# A ge level over a ge or go child builds the child's leading finished pairs
# in closed form: pair 0 with t/2, then pairs c and c+1 as one set. With an
# even count the child's last pair is merged as before, with the child set
# after it. Entries: (n, k, t), its trace, the child's finished pairs.
CLOSED_FORM = [
    ((15, 5, 24), "ge^2 m", 2),
    ((32, 11, 48), "ge^3 m", 3),
    ((20, 7, 30), "ge go m", 2),
    ((39, 13, 60), "ge^2 go m", 5),
    ((44, 15, 66), "ge go m", 5),  # an odd count from a go child
]


@pytest.mark.parametrize("triple,rendered,pairs", CLOSED_FORM)
def test_same_as_reference_where_ge_builds_its_childs_pairs(triple, rendered, pairs):
    instance = validate_instance(*triple)
    trace = plan(instance)
    child = trace.openings[1]
    assert (render_trace(trace), (2 * child.n - child.t + 1) // 2) == (rendered, pairs)
    assert_same_as_reference(*triple)
    want = reference_solver.solve_detailed(instance).partition.sets
    for width in (1, 2, 3):
        for a in range(instance.k):
            b = min(a + width, instance.k)
            sets, size = compose_window(trace, a, b)
            assert (list(sets), size) == (list(want[a:b]), sum(map(len, want[a:b]))), (triple, a, b)


def test_window_ending_at_the_childs_last_finished_pair():
    # (44, 15, 66): sets 0..10 are finished pairs, set 11 holds t/2 and the
    # go child's pair 0, sets 12 and 13 its pairs 1, 2 and 3, 4, the last
    # of its five; set 14 merges its sets 5 and 6
    trace = plan(validate_instance(44, 15, 66))
    want = reference_solver.solve_detailed(validate_instance(44, 15, 66)).partition.sets
    assert want[11:14] == ((12, 21, 33), (13, 14, 19, 20), (15, 16, 17, 18))
    for a in (11, 12, 13):
        sets, size = compose_window(trace, a, 14)
        assert (list(sets), size) == (list(want[a:14]), sum(map(len, want[a:14]))), a
