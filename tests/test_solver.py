import pytest

from equipart import solver
from equipart.core import (
    InvariantError,
    ProblemInstance,
    enumerate_instances,
    validate_instance,
    verify_partition,
)
from equipart.scan import scan_instance
from equipart.solver import (
    classify_case,
    greater_even,
    greater_odd,
    smaller_run,
    solve,
    solve_detailed,
)
from equipart.trace import TraceSymbol, render_trace


def inst(n, k, t):
    return validate_instance(n, k, t)


def step_on(step, n, k, t, slot=None):
    """Run one step function on a fresh label array.

    Returns the labels of the placed elements as {element: set}, the
    step's result tuple and the instances it recorded.
    """
    owner = [-1] * (n + 1)
    per_step = []
    result = step(owner, list(range(k)) if slot is None else slot, n, k, t, per_step)
    placed = {x: label for x, label in enumerate(owner) if label != -1}
    return placed, result, per_step


def by_label(placed):
    """Elements grouped by label, each group ascending."""
    groups = {}
    for x, label in sorted(placed.items()):
        groups.setdefault(label, []).append(x)
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
    assert classify_case(inst(*triple)) is expected


# --- step functions -------------------------------------------------------


def test_reduce_smaller_golden():
    placed, result, per_step = step_on(smaller_run, 25, 5, 65)
    # one step: the pair {n-2k+j, n-(j-1)} into every set j
    assert by_label(placed) == {0: [16, 25], 1: [17, 24], 2: [18, 23], 3: [19, 22], 4: [20, 21]}
    assert all(a + b == 2 * (25 - 5) + 1 for a, b in by_label(placed).values())
    steps, child_n, child_k, child_t, child_slot, written = result
    assert (steps, child_n, child_k, child_t) == (1, 15, 5, 24)
    assert child_slot == [0, 1, 2, 3, 4]  # every set continues in the child
    assert written == 10
    assert per_step == [ProblemInstance(25, 5, 65)]


def test_reduce_smaller_deep_chain_head():
    placed, result, per_step = step_on(smaller_run, 1337, 7, 127779)
    steps, child_n, child_k, child_t, child_slot, written = result
    # the whole run s^94 is one call; its first child is (1323, 7, 125118)
    assert steps == len(per_step) == 94
    assert per_step[1] == ProblemInstance(1323, 7, 125118)
    assert (child_n, child_k, child_t) == (1337 - 94 * 14, 7, 33)
    assert sorted(placed) == list(range(child_n + 1, 1338)) and written == 94 * 14
    # step i of the run pairs {n_i-2k+j, n_i-(j-1)}, summing to 2(n_i-k)+1
    for i, step in enumerate(per_step):
        for j in range(1, 8):
            low, high = step.n - 14 + j, step.n - (j - 1)
            assert placed[low] == placed[high] == j - 1
            assert low + high == 2 * (step.n - 7) + 1


def test_reduce_greater_even_golden():
    placed, result, _ = step_on(greater_even, 15, 6, 20)
    groups = by_label(placed)
    assert groups == {0: [5, 15], 1: [6, 14], 2: [7, 13], 3: [8, 12], 4: [9, 11], 5: [10]}
    assert all(sum(groups[j]) == 20 for j in range(5))
    assert placed[10] == 5  # the pivot t/2 opens the next set
    assert result == (1, 4, 1, 10, [5], 11)


def test_reduce_greater_even_split_sets():
    placed, result, _ = step_on(greater_even, 15, 5, 24)
    assert by_label(placed) == {0: [9, 15], 1: [10, 14], 2: [11, 13], 3: [12]}
    assert result[1:4] == (8, 3, 12)
    # pivot companion first, then both halves of each following set
    assert result[4] == [3, 4, 4]

    placed, result, _ = step_on(greater_even, 8, 3, 12)
    assert by_label(placed) == {0: [4, 8], 1: [5, 7], 2: [6]}
    assert result[1:5] == (3, 1, 6, [2])


def test_reduce_greater_odd_golden():
    placed, result, _ = step_on(greater_odd, 9, 3, 15)
    assert by_label(placed) == {0: [6, 9], 1: [7, 8]}
    assert result == (1, 5, 1, 15, [2], 4)


def test_reduce_greater_odd_large_instance():
    _, result, _ = step_on(greater_odd, 1337, 573, 1561)
    assert result[1:4] == (223, 16, 1561)
    # the child is itself a direct meander instance: 32 | 224
    assert classify_case(inst(*result[1:4])) is TraceSymbol.MEANDER


def _refusing(name):
    def step(*args):
        raise AssertionError(f"{name} called")

    return step


@pytest.mark.parametrize("step", ["smaller_run", "greater_even", "greater_odd"])
def test_meander_case_reaches_no_step(monkeypatch, step):
    monkeypatch.setattr(solver, step, _refusing(step))
    partition, trace = solve(inst(11, 3, 22))
    assert render_trace(trace) == "m"
    assert verify_partition(partition.instance, partition).ok


def test_reducers_reject_each_others_cases(monkeypatch):
    # each step function is handed exactly the instances opening a run of
    # its own case, in trace order
    own_case = {
        "smaller_run": TraceSymbol.SMALLER,
        "greater_even": TraceSymbol.GREATER_EVEN,
        "greater_odd": TraceSymbol.GREATER_ODD,
    }
    calls = []
    for name in own_case:
        real = getattr(solver, name)

        def recording(*args, real=real, name=name):
            calls.append((own_case[name], ProblemInstance(*args[2:5])))
            return real(*args)

        monkeypatch.setattr(solver, name, recording)
    for triple in [(9, 3, 15), (15, 5, 24), (1337, 7, 127779), (9999, 4040, 12375)]:
        calls.clear()
        _, trace = solve(inst(*triple), record_steps=True)
        openings = [
            (symbol, trace.per_step[i])
            for i, symbol in enumerate(trace.symbols[:-1])
            if i == 0 or symbol is not TraceSymbol.SMALLER or trace.symbols[i - 1] is not symbol
        ]
        assert calls == openings, triple
        assert all(classify_case(step) is case for case, step in calls)


def test_reductions_conserve_elements_and_sums():
    # the placed range plus the child universe {1..n'} is {1..n}, exactly
    steps = {
        TraceSymbol.SMALLER: smaller_run,
        TraceSymbol.GREATER_EVEN: greater_even,
        TraceSymbol.GREATER_ODD: greater_odd,
    }
    for n in range(2, 121):
        for k, t in enumerate_instances(n):
            label = classify_case(inst(n, k, t))
            if label is TraceSymbol.MEANDER:
                continue
            placed, result, per_step = step_on(steps[label], n, k, t)
            count, child_n, child_k, child_t, child_slot, written = result
            assert sorted(placed) == list(range(child_n + 1, n + 1)), (n, k, t)
            assert written == n - child_n and count == len(per_step)
            groups = by_label(placed)
            if label is TraceSymbol.SMALLER:
                # every set gets one pair per step, the pairs of step i summing
                # to 2(n_i-k)+1
                run_sum = sum(2 * (step.n - k) + 1 for step in per_step)
                assert sorted(groups) == list(range(k))
                assert all(len(g) == 2 * count and sum(g) == run_sum for g in groups.values())
            else:
                # finished sets hold one pair of sum t; ge's pivot t/2 opens
                # the first set that the child completes
                filled = (2 * n - t + 1) // 2
                assert all(len(groups[j]) == 2 and sum(groups[j]) == t for j in range(filled))
                if label is TraceSymbol.GREATER_EVEN:
                    assert groups[filled] == [t // 2]
            # children always satisfy the full input contract
            validate_instance(child_n, child_k, child_t)
            assert len(child_slot) == child_k
            assert all(0 <= j < k for j in child_slot)


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
    _, trace = solve(inst(25, 5, 65))
    assert trace.per_step is None
    _, trace = solve(inst(25, 5, 65), record_steps=True)
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


def test_insertions_count_the_labels_written(monkeypatch):
    # the odd base also labels the bookkeeping index 0; that is not counted
    assert solve_detailed(inst(7, 2, 14)).insertions == 7
    real = solver.meander_fill

    def fill_twice(owner, slot, low, high):
        return real(owner, slot, low, high) + real(owner, slot, low, high)

    monkeypatch.setattr(solver, "meander_fill", fill_twice)
    result = solve_detailed(inst(15, 6, 20))  # ge m: ge places 11, m places 4
    assert result.insertions == 11 + 2 * 4
    _, violations = scan_instance(15, 6, 20)
    assert [v.kind for v in violations] == ["insertions"]


def test_unlabelled_element_raises(monkeypatch):
    real = solver.greater_odd

    def forgetful(owner, slot, n, k, t, per_step):
        result = real(owner, slot, n, k, t, per_step)
        owner[n] = -1
        return result

    monkeypatch.setattr(solver, "greater_odd", forgetful)
    with pytest.raises(InvariantError, match="element 9 left unlabelled"):
        solve(inst(9, 3, 15))
