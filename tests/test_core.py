from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_core
from equipart.core import (
    N_MAX,
    NonPositiveError,
    Partition,
    ProblemInstance,
    SumMismatchError,
    TargetTooSmallError,
    WidthOverflowError,
    WrongArityError,
    _diagnose,
    enumerate_instances,
    table_accepts,
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


@pytest.mark.parametrize("triple", [(4.0, 1, 10.0), (True, 1, 1), (9, 3, 15.0), (0.0, 1, 1)])
def test_validate_rejects_non_int(triple):
    # 4.0 == 4 and True == 1 would otherwise pass the value checks; (0.0, 1, 1)
    # shows the type check comes before NonPositiveError
    with pytest.raises(TypeError, match="must be int"):
        validate_instance(*triple)


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


class _Int(int):
    pass


@pytest.mark.parametrize(
    "sets",
    [
        [[True, 2], [3]],
        [[1.0, 2], [3]],
        [[1, 2], ["3"]],
        [[_Int(1), 2], [3]],
        [[Decimal("sNaN"), 2], [3]],
    ],
)
def test_verify_rejects_non_int_elements(sets):
    # True == 1, 1.0 == 1 and _Int(1) == 1 would otherwise pass as the
    # element 1; the accept pass marks a cell only for an exact int, and a
    # sum that raises (a signalling NaN) leaves the TypeError to the type pass
    with pytest.raises(TypeError, match="must be int"):
        verify_partition(validate_instance(3, 2, 3), sets)


def test_verify_checks_element_types_before_arity():
    with pytest.raises(TypeError):
        verify_partition(validate_instance(3, 2, 3), [[True, 2, 3]])


@pytest.mark.parametrize(
    "instance,sets,violation",
    [
        # -1 marks cell 3: only the k * t = n(n+1)/2 check rejects this one
        (ProblemInstance(3, 1, 2), [[-1, 2, 1]], "set 1: element -1 outside 1..3"),
        (ProblemInstance(3, 1, 6), [[0, 3, 3]], "set 1: element 0 outside 1..3"),
        (ProblemInstance(4, 2, 5), [[5, 0], [2, 3]], "set 1: element 5 outside 1..4"),
        (
            ProblemInstance(3, 1, 6),
            [[2**64, 3 - 2**64, 3]],
            f"set 1: element {2**64} outside 1..3",
        ),
        (ProblemInstance(5, 1, 15), [[1, 1, 4, 4, 5]], "set 1: element 1 assigned more than once"),
        (ProblemInstance(6, 3, 7), [[1, 6], [2, 5], [2, 5]], "set 3: element 2 assigned more than once"),
    ],
    ids=["wrapping-negative", "zero", "n-plus-1", "2**64", "duplicate-in-set", "duplicate-set"],
)
def test_verify_rejects_right_size_and_sums(instance, sets, violation):
    # each candidate holds n elements summing to t per set, so the size and
    # sum checks pass and only the element table can reject it
    assert sum(map(len, sets)) == instance.n
    assert all(sum(members) == instance.t for members in sets)
    report = verify_partition(instance, sets)
    assert not report.ok
    assert report.first_violation == violation


def test_verify_rejects_extra_elements_that_mark_every_cell():
    # -3 marks cell 1 and cancels the second 3 in the sum: only the element
    # count keeps the table from accepting
    report = verify_partition(validate_instance(3, 1, 6), [[1, 2, 3, 3, -3]])
    assert not report.ok
    assert report.first_violation == "set 1: element 3 assigned more than once"


@pytest.mark.parametrize("bogus", [True, 1.0])
def test_verify_rejects_non_int_of_the_right_value_before_arity(bogus):
    # right size and sums with the element read as 1, but one set too many
    with pytest.raises(TypeError, match="must be int"):
        verify_partition(validate_instance(3, 1, 6), [[bogus, 2, 3], []])


def _oracle_ok(instance, sets):
    # the three conditions as stated, with no shortcut
    return (
        len(sets) == instance.k
        and all(sum(members) == instance.t for members in sets)
        and sorted(x for members in sets for x in members) == list(range(1, instance.n + 1))
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_agrees_with_oracle_on_mutated_partitions(data):
    from equipart.solver import solve

    n = data.draw(st.integers(min_value=1, max_value=3000), label="n")
    k, t = data.draw(st.sampled_from(enumerate_instances(n)), label="(k, t)")
    partition, _ = solve(validate_instance(n, k, t))
    sets = [list(members) for members in partition.sets]
    source = data.draw(st.integers(0, k - 1), label="source set")
    index = data.draw(st.integers(0, len(sets[source]) - 1), label="element index")
    mutation = data.draw(st.sampled_from(["replace", "move", "duplicate"]), label="mutation")
    if mutation == "replace":
        # x - (n + 1) is the value a negative index aliases onto x's own cell
        alias = sets[source][index] - (n + 1)
        values = st.one_of(st.integers(-2 * n, 2 * n), st.just(alias))
        sets[source][index] = data.draw(values, label="value")
    else:
        target = data.draw(st.integers(0, k - 1), label="target set")
        x = sets[source].pop(index) if mutation == "move" else sets[source][index]
        sets[target].append(x)
    instance = partition.instance
    want = _oracle_ok(instance, sets)
    assert verify_partition(instance, sets).ok == want
    # the verify stream's loop, kept apart from the library's, gives the same
    # verdict, on the sets whole and cut into runs inside and between sets
    assert (sum(map(len, sets)) == n and table_accepts(instance, [(sets, False)])) == want
    if all(sets):  # an empty set sums to 0, never t: want is False
        cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=8) if n > 1 else st.just([]), label="cuts")
        assert (sum(map(len, sets)) == n and table_accepts(instance, _runs(sets, cuts))) == want


def _runs(sets, cuts):
    """Non-empty sets as the verify stream passes them to ``table_accepts``,
    cut before each element offset in cuts: ``(lists, open)`` per run, where
    ``open`` says whether the run's last set goes on in the next run."""
    elements = [(index, x) for index, members in enumerate(sets) for x in members]
    bounds = sorted({0, len(elements), *(c for c in cuts if c < len(elements))})
    runs = []
    for a, b in zip(bounds, bounds[1:]):
        lists, last = [], None
        for index, x in elements[a:b]:
            if index != last:
                lists.append([])
                last = index
            lists[-1].append(x)
        runs.append((lists, b < len(elements) and elements[b][0] == last))
    return runs


@pytest.mark.parametrize(
    "runs,accepted",
    [
        ([([[6, 9], [7, 8], [1, 2, 3, 4, 5]], False)], True),
        ([([[6, 9], [7]], True), ([[8], [1, 2]], True), ([[3, 4, 5]], False)], True),
        ([([[6]], True), ([[9]], False), ([[7, 8], [1, 2, 3, 4, 5]], False)], True),
        # the same lists read as closed sets: five sets, two of them short
        ([([[6, 9], [7]], False), ([[8], [1, 2]], False), ([[3, 4, 5]], False)], False),
        # the last set left open at the end
        ([([[6, 9], [7, 8]], False), ([[1, 2, 3, 4, 5]], True)], False),
        # a run of no lists
        ([([[6, 9], [7, 8]], False), ([], False), ([[1, 2, 3, 4, 5]], False)], False),
    ],
    ids=["whole", "cut-inside", "one-set-in-two-runs", "closed", "left-open", "empty-run"],
)
def test_table_accepts_carries_an_open_set_into_the_next_run(runs, accepted):
    assert table_accepts(validate_instance(9, 3, 15), runs) is accepted


def test_verify_memory_is_a_byte_per_element():
    import tracemalloc

    from equipart.solver import solve

    instance = validate_instance(200000, 100000, 200001)
    partition, _ = solve(instance)
    tracemalloc.start()
    try:
        report = verify_partition(instance, partition)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    # a set of the 200,000 elements would take about 8 MB
    assert peak < 2**20


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_diagnose_same_as_reference_on_mutated_partitions(data):
    from equipart.solver import solve

    n = data.draw(st.integers(min_value=1, max_value=2000), label="n")
    k, t = data.draw(st.sampled_from(enumerate_instances(n)), label="(k, t)")
    partition, _ = solve(validate_instance(n, k, t))
    sets = [list(members) for members in partition.sets]
    kinds = st.sampled_from(["duplicate", "drop", "out-of-range", "negative", "swap", "move"])
    for mutation in data.draw(st.lists(kinds, min_size=1, max_size=3), label="mutations"):
        nonempty = [i for i, members in enumerate(sets) if members]
        source = data.draw(st.sampled_from(nonempty), label="source set")
        index = data.draw(st.integers(0, len(sets[source]) - 1), label="element index")
        target = data.draw(st.integers(0, k - 1), label="target set")
        x = sets[source][index]
        if mutation == "duplicate":
            sets[target].append(x)
        elif mutation == "drop":
            sets[source].pop(index)
        elif mutation == "out-of-range":
            values = st.one_of(st.just(0), st.integers(n + 1, 3 * n))
            sets[source][index] = data.draw(values, label="value")
        elif mutation == "negative":
            # x - (n + 1) is the value a negative index aliases onto x's own cell
            values = st.one_of(st.integers(-3 * n, -1), st.just(x - (n + 1)))
            sets[source][index] = data.draw(values, label="value")
        elif mutation == "swap" and sets[target]:
            other = data.draw(st.integers(0, len(sets[target]) - 1), label="other index")
            sets[source][index], sets[target][other] = sets[target][other], x
        elif mutation == "move":  # right elements, wrong sums
            sets[target].append(sets[source].pop(index))
        if not any(sets):
            break
    want = reference_core.diagnose(n, t, sets)
    assert _diagnose(n, t, sets) == want
    # the fast pass accepts only what the diagnosis would accept
    assert verify_partition(partition.instance, sets) == want


@pytest.mark.parametrize(
    "n,t,sets",
    [
        (4, 6, [[1, 2, 3]]),  # k * t short of 1+...+n: only "missing" can report it
        (4, 3, [[1, 2], [3]]),
        (3, 2, [[1, 1], [2]]),  # n elements, so a table, with one repeated
        (3, 4, [[1, 3], [4]]),
        (2, 3, []),
    ],
)
def test_diagnose_same_as_reference_on_inconsistent_instances(n, t, sets):
    assert _diagnose(n, t, sets) == reference_core.diagnose(n, t, sets)


def test_diagnose_memory_is_a_byte_per_element():
    import tracemalloc

    from equipart.solver import solve

    instance = validate_instance(200000, 100000, 200001)
    partition, _ = solve(instance)
    sets = [list(members) for members in partition.sets]
    # right sizes and sums, but two elements repeat and two are missing
    sets[-1][0] -= 1
    sets[-1][1] += 1
    tracemalloc.start()
    try:
        report = verify_partition(instance, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == reference_core.diagnose(instance.n, instance.t, sets)
    assert not report.disjoint
    # one table of n + 1 bytes, the diagnosis's: the accept pass drops its
    # own before the diagnosis runs, and two tables would not fit
    assert peak < 1.5 * (instance.n + 1)


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
