import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equipart import solver
from equipart.core import (
    N_MAX,
    InvariantError,
    ProblemInstance,
    enumerate_instances,
    validate_instance,
    verify_partition,
)
from equipart.scan import scan_instance
from equipart.solver import (
    compose_window,
    plan,
    smaller_run,
    solve,
    solve_detailed,
)
from equipart.trace import TraceSymbol, render_trace


def inst(n, k, t):
    return validate_instance(n, k, t)


def case_of(instance):
    """The case of an instance: that of the first level of its plan."""
    return plan(instance).runs[0][0]


def first_level(n, k, t):
    """The first level of the plan of (n, k, t) and what its composition places.

    The level and its child are each composed whole through
    ``compose_window``; the elements above the child's n are the level's own,
    and every child set must lie whole in one of the level's sets. Returns the
    placed elements as {element: set}, the child sets each set took as
    {set: [child sets]}, the level, its child instance and the instances of
    its steps.
    """
    trace = plan(inst(n, k, t))
    (case, _), opening, child = trace.runs[0], trace.openings[0], trace.openings[1]
    sets, _ = compose_window(trace, 0, k)
    assert len(sets) == k
    holder = {x: j for j, members in enumerate(sets) for x in members}
    assert len(holder) == sum(map(len, sets))  # no element placed twice
    placed = {x: j for x, j in holder.items() if x > child.n}
    took = {j: [] for j in range(k)}
    for i, members in enumerate(compose_window(plan(child), 0, child.k)[0]):
        (j,) = {holder[x] for x in members}  # the child set lies whole in set j
        took[j].append(i)
    steps = [step.n for step in trace.per_step].index(child.n)
    level = (case, opening.n, opening.k, opening.t, child.n)
    return placed, took, level, child, list(trace.per_step[:steps])


def by_set(placed):
    """Elements grouped by set, each group ascending."""
    groups = {}
    for x, j in sorted(placed.items()):
        groups.setdefault(j, []).append(x)
    return groups


# --- classification -------------------------------------------------------


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((1337, 3, 298151), TraceSymbol.MEANDER),
        ((1337, 7, 127779), TraceSymbol.SMALLER),
        ((9, 3, 15), TraceSymbol.GREATER_ODD),
        ((15, 6, 20), TraceSymbol.GREATER_EVEN),
        ((25, 5, 65), TraceSymbol.SMALLER),
        ((15, 5, 24), TraceSymbol.GREATER_EVEN),
        ((77, 21, 143), TraceSymbol.GREATER_ODD),
        ((4, 2, 5), TraceSymbol.MEANDER),  # 4 | 4 preempts the odd-target case
    ],
)
def test_classify_case(triple, expected):
    assert case_of(inst(*triple)) is expected


# --- levels: the plan's steps and what each composition places -------------


def test_reduce_smaller_golden():
    placed, took, level, child, per_step = first_level(25, 5, 65)
    # one step: the pair {n-2k+j, n-(j-1)} into every set j
    assert by_set(placed) == {0: [16, 25], 1: [17, 24], 2: [18, 23], 3: [19, 22], 4: [20, 21]}
    assert all(a + b == 2 * (25 - 5) + 1 for a, b in by_set(placed).values())
    assert level == (TraceSymbol.SMALLER, 25, 5, 65, 15)
    assert child == ProblemInstance(15, 5, 24)
    assert took == {j: [j] for j in range(5)}  # every set continues in the child
    assert len(placed) == 10
    assert per_step == [ProblemInstance(25, 5, 65)]


def test_reduce_smaller_deep_chain_head():
    steps, child_n, child_k, child_t = smaller_run(1337, 7, 127779)
    # the whole run s^94 is one call; its first child is (1323, 7, 125118)
    assert steps == 94
    assert (child_n, child_k, child_t) == (1337 - 94 * 14, 7, 33)
    placed, _, _, child, per_step = first_level(1337, 7, 127779)
    assert child == ProblemInstance(child_n, child_k, child_t) and len(per_step) == 94
    assert per_step[1] == ProblemInstance(1323, 7, 125118)
    assert sorted(placed) == list(range(child_n + 1, 1338)) and len(placed) == 94 * 14
    # step i of the run pairs {n_i-2k+j, n_i-(j-1)}, summing to 2(n_i-k)+1
    for i, step in enumerate(per_step):
        for j in range(1, 8):
            low, high = step.n - 14 + j, step.n - (j - 1)
            assert placed[low] == placed[high] == j - 1
            assert low + high == 2 * (step.n - 7) + 1


def test_reduce_greater_even_golden():
    placed, took, level, child, per_step = first_level(15, 6, 20)
    groups = by_set(placed)
    assert groups == {0: [5, 15], 1: [6, 14], 2: [7, 13], 3: [8, 12], 4: [9, 11], 5: [10]}
    assert all(sum(groups[j]) == 20 for j in range(5))
    assert placed[10] == 5  # the pivot t/2 opens the next set
    assert (level, child, len(per_step)) == (
        (TraceSymbol.GREATER_EVEN, 15, 6, 20, 4),
        ProblemInstance(4, 1, 10),
        1,
    )
    assert took == {0: [], 1: [], 2: [], 3: [], 4: [], 5: [0]}
    assert len(placed) == 11


def test_reduce_greater_even_split_sets():
    placed, took, _, child, _ = first_level(15, 5, 24)
    assert by_set(placed) == {0: [9, 15], 1: [10, 14], 2: [11, 13], 3: [12]}
    assert child == ProblemInstance(8, 3, 12)
    # pivot companion first, then both halves of each following set
    assert took == {0: [], 1: [], 2: [], 3: [0], 4: [1, 2]}

    placed, took, _, child, _ = first_level(8, 3, 12)
    assert by_set(placed) == {0: [4, 8], 1: [5, 7], 2: [6]}
    assert child == ProblemInstance(3, 1, 6)
    assert took == {0: [], 1: [], 2: [0]}


def test_reduce_greater_odd_golden():
    placed, took, level, child, per_step = first_level(9, 3, 15)
    assert by_set(placed) == {0: [6, 9], 1: [7, 8]}
    assert (level, child, len(per_step)) == (
        (TraceSymbol.GREATER_ODD, 9, 3, 15, 5),
        ProblemInstance(5, 1, 15),
        1,
    )
    assert took == {0: [], 1: [], 2: [0]}
    assert len(placed) == 4


def test_reduce_greater_odd_large_instance():
    _, _, _, child, _ = first_level(1337, 573, 1561)
    assert child == ProblemInstance(223, 16, 1561)
    # the child is itself a direct meander instance: 32 | 224
    assert case_of(child) is TraceSymbol.MEANDER


def stepwise_run(n, k, t):
    """An s-run walked one step of the recurrence at a time, as plan once did."""
    steps = 0
    while True:
        steps += 1
        n, t = n - 2 * k, t - 2 * (n - k) - 1
        if t < 2 * n:
            return steps, n, k, t


def test_closed_form_run_equals_the_stepwise_walk_on_every_s_level_up_to_2000():
    checked = 0
    for n in range(1, 2001):
        for k, t in enumerate_instances(n):
            trace = plan(inst(n, k, t))
            for (case, _), top in zip(trace.runs, trace.openings):
                if case is TraceSymbol.SMALLER:
                    triple = top.n, top.k, top.t
                    assert smaller_run(*triple) == stepwise_run(*triple), triple
                    checked += 1
    assert checked == 18108


def _divisors(n):
    """The divisors of n(n+1)/2, from trial division of n and of n + 1."""
    factors = {}
    for m in (n, n + 1):
        p = 2
        while p * p <= m:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
            p += 1
        if m > 1:
            factors[m] = factors.get(m, 0) + 1
    factors[2] -= 1  # one of n, n + 1 is even
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return divisors


@st.composite
def long_s_openings(draw):
    """An s-case (n, k, t) up to N_MAX with an s-run of at most 10^5 steps."""
    n = draw(st.integers(min_value=3, max_value=N_MAX))
    ks = sorted(
        k
        for k in _divisors(n)
        if n <= 2 * 10**5 * k and n + 1 >= 4 * k and n % (2 * k) and (n + 1) % (2 * k)
    )
    if not ks:
        n, ks = 1337, [7]  # (1337, 7, 127779) opens the run s^94
    k = draw(st.sampled_from(ks))
    return n, k, n * (n + 1) // (2 * k)


@settings(max_examples=100, deadline=None)
@given(long_s_openings())
def test_closed_form_run_equals_the_stepwise_walk_up_to_n_max(triple):
    n, k, t = triple
    assert case_of(inst(n, k, t)) is TraceSymbol.SMALLER
    assert smaller_run(n, k, t) == stepwise_run(n, k, t)


def _refusing(name):
    def step(*args):
        raise AssertionError(f"{name} called")

    return step


def _refusing_greater(parity):
    # greater composes ge (t even) and go (t odd); refuse only the one named
    real = solver.greater

    def step(sets, n, t, a, b, pairs):
        if t % 2 == parity:
            raise AssertionError(f"greater called on t={t}")
        return real(sets, n, t, a, b, pairs)

    return step


@pytest.mark.parametrize("step", ["smaller_run", "greater_even", "greater_odd"])
def test_meander_case_reaches_no_step(monkeypatch, step):
    if step == "smaller_run":
        monkeypatch.setattr(solver, step, _refusing(step))
    else:
        monkeypatch.setattr(solver, "greater", _refusing_greater(step == "greater_odd"))
    partition, trace = solve(inst(11, 3, 22))
    assert render_trace(trace) == "m"
    assert verify_partition(partition.instance, partition).ok


@pytest.mark.parametrize("triple", [(4, 2, 5), (3, 2, 3), (9, 3, 15), (1337, 7, 127779)])
def test_base_is_one_meander_call_of_its_parity(monkeypatch, triple):
    # every solve builds its base with meander_even or meander_odd, once,
    # and the base's n picks which
    calls = []
    for name in ("meander_even", "meander_odd"):

        def recording(instance, real=getattr(solver, name), name=name):
            calls.append((name, instance))
            return real(instance)

        monkeypatch.setattr(solver, name, recording)
    partition, trace = solve(inst(*triple))
    base = trace.openings[-1]
    assert calls == [("meander_odd" if base.n % 2 else "meander_even", base)]
    assert verify_partition(partition.instance, partition).ok


def test_reducers_reject_each_others_cases(monkeypatch):
    # smaller_run is handed exactly the instances opening an s-run, top-down
    # while planning; greater composes exactly the ge and go levels, each
    # with the parity of t its symbol names, bottom-up after the plan, over
    # the sets of their child; a ge over a ge or go child builds the child's
    # first `pairs` sets, its finished pairs rounded down to odd, itself
    calls = []
    built = []
    real_run = solver.smaller_run
    real_greater = solver.greater

    def run(n, k, t):
        calls.append((TraceSymbol.SMALLER, n, t, k))
        return real_run(n, k, t)

    def greater(sets, n, t, a, b, pairs):
        case = TraceSymbol.GREATER_ODD if t % 2 else TraceSymbol.GREATER_EVEN
        calls.append((case, n, t, len(sets) + pairs))
        built.append(pairs)
        return real_greater(sets, n, t, a, b, pairs)

    monkeypatch.setattr(solver, "smaller_run", run)
    monkeypatch.setattr(solver, "greater", greater)
    cases = [
        ((9, 3, 15), [0]),
        ((15, 5, 24), [0, 1]),  # ge^2 m: the top ge builds the child's set 0, (4, 8)
        ((1337, 7, 127779), [0]),
        ((9999, 4040, 12375), [0, 0, 0, 0]),  # go s^4 go s^4 go s ge m
        ((32, 11, 48), [0, 1, 3]),  # ge^3 m
    ]
    for triple, pairs in cases:
        calls.clear()
        built.clear()
        _, trace = solve(inst(*triple))
        steps = list(zip(trace.symbols, trace.per_step, trace.per_step[1:]))
        openings = [
            (symbol, step, child)
            for i, (symbol, step, child) in enumerate(steps)
            if i == 0 or symbol is not TraceSymbol.SMALLER or steps[i - 1][0] is not symbol
        ]
        runs = [(case, s.n, s.t, s.k) for case, s, _ in openings if case is TraceSymbol.SMALLER]
        splits = [(case, s.n, s.t, c.k) for case, s, c in openings if case is not TraceSymbol.SMALLER]
        assert calls == runs + splits[::-1], triple
        assert built == pairs, triple
        assert all(case_of(step) is case for case, step, _ in openings)


def test_reductions_conserve_elements_and_sums():
    # the placed range plus the child universe {1..n'} is {1..n}, exactly
    for n in range(2, 121):
        for k, t in enumerate_instances(n):
            label = case_of(inst(n, k, t))
            if label is TraceSymbol.MEANDER:
                continue
            placed, took, level, child, per_step = first_level(n, k, t)
            assert level == (label, n, k, t, child.n)
            assert sorted(placed) == list(range(child.n + 1, n + 1)), (n, k, t)
            assert label is TraceSymbol.SMALLER or len(per_step) == 1
            groups = by_set(placed)
            if label is TraceSymbol.SMALLER:
                # every set gets one pair per step, the pairs of step i summing
                # to 2(n_i-k)+1, and continues in the same child set
                run_sum = sum(2 * (step.n - k) + 1 for step in per_step)
                assert sorted(groups) == list(range(k))
                assert all(len(g) == 2 * len(per_step) and sum(g) == run_sum for g in groups.values())
                assert took == {j: [j] for j in range(k)}
            else:
                # finished sets hold one pair of sum t; ge's pivot t/2 opens
                # the first set that the child completes
                filled = (2 * n - t + 1) // 2
                assert all(len(groups[j]) == 2 and sum(groups[j]) == t for j in range(filled))
                assert all(took[j] == [] for j in range(filled))
                if label is TraceSymbol.GREATER_EVEN:
                    assert groups[filled] == [t // 2]
                    assert took[filled] == [0]
                    assert all(took[filled + j] == [2 * j - 1, 2 * j] for j in range(1, k - filled))
                else:
                    assert all(took[filled + j] == [j] for j in range(k - filled))
            # children always satisfy the full input contract, and the level
            # uses every child set exactly once
            validate_instance(child.n, child.k, child.t)
            assert sorted(i for sets in took.values() for i in sets) == list(range(child.k))


# --- full solves ----------------------------------------------------------


def test_solve_greater_odd_then_meander():
    partition, trace = solve(inst(9, 3, 15))
    assert partition.sets == ((6, 9), (7, 8), (1, 2, 3, 4, 5))
    assert render_trace(trace) == "go m"


def test_solve_chain_through_all_reduction_kinds():
    partition, trace = solve(inst(25, 5, 65))
    assert trace.symbols == (
        TraceSymbol.SMALLER,
        TraceSymbol.GREATER_EVEN,
        TraceSymbol.GREATER_EVEN,
        TraceSymbol.MEANDER,
    )
    assert render_trace(trace) == "s ge^2 m"
    assert verify_partition(partition.instance, partition).ok


def test_solve_golden_traces():
    _, trace = solve(inst(1337, 223, 4011))
    assert render_trace(trace) == "m"
    partition, trace = solve(inst(1337, 7, 127779))
    assert render_trace(trace) == "s^94 go m"
    assert verify_partition(partition.instance, partition).ok


def test_solve_records_steps_on_request():
    # the steps are always derived from the openings; record_steps is ignored
    assert solve(inst(25, 5, 65))[1] == solve_detailed(inst(25, 5, 65), record_steps=True).trace
    _, trace = solve(inst(25, 5, 65))
    assert trace.per_step is not None
    assert len(trace.per_step) == len(trace.symbols)
    assert trace.per_step[0] == ProblemInstance(25, 5, 65)
    # n strictly decreases along the chain
    sizes = [step.n for step in trace.per_step]
    assert sizes == sorted(sizes, reverse=True) and len(set(sizes)) == len(sizes)


def test_solve_sound_and_linear_for_all_small_instances():
    for n in range(1, 151):
        for k, t in enumerate_instances(n):
            instance = inst(n, k, t)
            result = solve_detailed(instance)
            assert result.insertions == n
            report = verify_partition(instance, result.partition)
            assert report.ok, (n, k, t, report.first_violation)
            assert result.trace.symbols[-1] is TraceSymbol.MEANDER


def test_solve_sets_are_ascending_and_in_construction_order():
    partition, _ = solve(inst(15, 5, 24))
    assert all(list(s) == sorted(s) for s in partition.sets)
    # first sets are the ones fixed first by the reduction
    assert partition.sets[0] == (9, 15)
    assert partition.sets[1] == (10, 14)
    assert partition.sets[2] == (11, 13)
    assert 12 in partition.sets[3]


def test_insertions_count_the_elements_placed(monkeypatch):
    # the odd base's 0 opens its first column but is not an element
    assert solve_detailed(inst(7, 2, 14)).insertions == 7
    real = solver.meander_columns

    def duplicating(low, high, k, a, b):
        columns = list(real(low, high, k, a, b))
        columns[0] += columns[0][-1:]
        return columns

    monkeypatch.setattr(solver, "meander_columns", duplicating)
    # ge m: ge places 11, the base (4, 1, 10) places its 4 and one again
    message = "level (4, 1, 10) made (sets, elements) (1, 5), expected (1, 4)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve_detailed(inst(15, 6, 20))
    _, violations = scan_instance(15, 6, 20)
    assert [v.kind for v in violations] == ["solve"]


def test_child_gate_names_the_child_its_parent_and_the_broken_rule(monkeypatch):
    real = solver.smaller_run

    def wrong_child_target(*args):
        steps, child_n, child_k, child_t = real(*args)
        return steps, child_n, child_k, child_t + 1

    monkeypatch.setattr(solver, "smaller_run", wrong_child_target)
    # s m: the child (15, 5, 24) of (25, 5, 65) becomes (15, 5, 25)
    message = "child (15, 5, 25) of parent (25, 5, 65): k*t = 125 does not equal 1+...+15 = 120"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve_detailed(inst(25, 5, 65))


def test_dropped_element_raises(monkeypatch):
    real = solver.greater

    def forgetful(sets, n, t, a, b, pairs):
        composed = real(sets, n, t, a, b, pairs)
        composed[0] = composed[0][:1]  # the pair (t-n, n) loses n
        return composed

    monkeypatch.setattr(solver, "greater", forgetful)
    message = "level (9, 3, 15) made (sets, elements) (3, 3), expected (3, 4)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve(inst(9, 3, 15))

    monkeypatch.setattr(solver, "greater", lambda *args: real(*args)[1:])
    message = "level (9, 3, 15) made (sets, elements) (2, 2), expected (3, 4)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve(inst(9, 3, 15))


def test_closed_form_pairs_count_for_the_child_level(monkeypatch):
    # ge^3 m: the top ge builds its child (15, 5, 24)'s finished pairs 0, 1
    # and 2 as sets 8 and 9; the child composes only its sets 3 and 4 but is
    # still checked whole, its three pairs counted as its own six elements
    real = solver.greater

    def one_quadruple_short(sets, n, t, a, b, pairs):
        composed = real(sets, n, t, a, b, pairs)
        if pairs > 1:
            composed.remove((n + 2 - t // 2, n + 3 - t // 2, t - n - 3, t - n - 2))  # pairs 1 and 2
        return composed

    monkeypatch.setattr(solver, "greater", one_quadruple_short)
    message = "level (32, 11, 48) made (sets, elements) (10, 13), expected (11, 17) in sets [0, 11)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve(inst(32, 11, 48))
    trace = plan(inst(32, 11, 48))
    message = "level (32, 11, 48) made (sets, elements) (1, -3), expected (2, -3) in sets [8, 10)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solver.compose_window(trace, 8, 10)

    def child_drops_an_element(sets, n, t, a, b, pairs):
        composed = real(sets, n, t, a, b, pairs)
        if n == 15 and composed:
            composed[-1] = composed[-1][1:]
        return composed

    monkeypatch.setattr(solver, "greater", child_drops_an_element)
    message = "level (15, 5, 24) made (sets, elements) (5, 6), expected (5, 7) in sets [0, 5)"
    with pytest.raises(InvariantError, match=re.escape(message)):
        solve(inst(32, 11, 48))
