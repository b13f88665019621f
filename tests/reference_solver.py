"""Frozen reference: the solver as it was before the label-array core.

This is the pair-list solver (Reduction records, merge plans, per-set
meander lists, a final sort) together with the meander builders it calls,
copied unchanged apart from these imports. The differential tests check
that the label-array solver in equipart.solver produces the same sets,
trace symbols, per-step instances and insertion counts. Do not edit it to
follow later changes of the library: it is the fixed point of comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from equipart.core import InvariantError, Partition, PreconditionError, ProblemInstance
from equipart.trace import Trace, TraceSymbol


# --- meander builders (from equipart/meander.py) ---


def build_even(n: int, k: int) -> tuple[list[list[int]], int]:
    """Fill the k sets for the even case; returns (sets, insertion count).

    Equivalent to consuming :func:`even_assignments`, but built from range
    objects per set: within one set, line II of block i precedes line I of
    block i, which precedes line II of block i + 1, so zipping the two
    progressions already yields ascending order.
    """
    two_k = 2 * k
    sets: list[list[int]] = []
    insertions = 0
    for j in range(1, k + 1):
        ascending = range(j, n - two_k + j + 1, two_k)  # line II
        descending_anchor = range(two_k - j + 1, n - j + 2, two_k)  # line I
        members = list(chain.from_iterable(zip(ascending, descending_anchor)))
        insertions += len(members)
        sets.append(members)
    return sets, insertions


def build_odd(n: int, k: int) -> tuple[list[list[int]], int]:
    """Fill the k sets for the odd case; returns (sets, insertion count).

    The count includes the generated 0, which is removed from set 1 before
    returning, so the count is n + 1 while the output covers {1..n}.
    """
    two_k = 2 * k
    sets: list[list[int]] = []
    insertions = 0
    for j in range(1, k + 1):
        ascending = range(j - 1, n - two_k + j + 1, two_k)  # line II
        descending_anchor = range(two_k - j, n - j + 2, two_k)  # line I
        members = list(chain.from_iterable(zip(ascending, descending_anchor)))
        insertions += len(members)
        sets.append(members)
    if not sets[0] or sets[0][0] != 0:
        raise InvariantError("odd-case bookkeeping element 0 not generated first")
    del sets[0][0]
    return sets, insertions


def meander_even(instance: ProblemInstance) -> Partition:
    """Solve an instance with n even and 2k | n in exactly n insertions."""
    n, k = instance.n, instance.k
    if n % 2 != 0 or n % (2 * k) != 0:
        raise PreconditionError(f"even meander needs 2k | n, got n={n}, k={k}")
    sets, _ = build_even(n, k)
    return Partition(instance, tuple(tuple(s) for s in sets))


def meander_odd(instance: ProblemInstance) -> Partition:
    """Solve an instance with n odd and 2k | n + 1 in n + 1 insertions."""
    n, k = instance.n, instance.k
    if n % 2 != 1 or (n + 1) % (2 * k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={n}, k={k}")
    sets, _ = build_odd(n, k)
    return Partition(instance, tuple(tuple(s) for s in sets))


# --- solver (from equipart/solver.py) ---

# merge_plan half markers: a child set lands either in one half of a split
# parent set or fills the parent set whole.
HALF_FIRST = 1
HALF_SECOND = 2
WHOLE = None


@dataclass(frozen=True)
class Reduction:
    """One non-meander step: pinned elements plus the child instance.

    fixed       (parent set index, element pair) assignments, 0-based
    pivot       (parent set index, element) for the lone middle element
                of the greater-even case, else None
    child       instance handed to the recursive call
    merge_plan  child set index -> (parent set index, half slot)
    """

    label: TraceSymbol
    fixed: tuple[tuple[int, tuple[int, int]], ...]
    pivot: tuple[int, int] | None
    child: ProblemInstance
    merge_plan: tuple[tuple[int, int | None], ...]


@dataclass(frozen=True)
class SolveResult:
    partition: Partition
    trace: Trace
    insertions: int


def classify_case(instance: ProblemInstance) -> TraceSymbol:
    """Return the case label, meander taking precedence."""
    n, k, t = instance.n, instance.k, instance.t
    two_k = 2 * k
    if n % two_k == 0 or (n + 1) % two_k == 0:
        return TraceSymbol.MEANDER
    if t >= 2 * n:
        return TraceSymbol.SMALLER
    return TraceSymbol.GREATER_EVEN if t % 2 == 0 else TraceSymbol.GREATER_ODD


def _require_case(instance: ProblemInstance, expected: TraceSymbol, op: str) -> None:
    actual = classify_case(instance)
    if actual is not expected:
        raise PreconditionError(
            f"{op} applies to case {expected.value}, "
            f"but ({instance.n}, {instance.k}, {instance.t}) is case {actual.value}"
        )


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InvariantError(f"{numerator} is not divisible by {denominator}")
    return quotient


def reduce_smaller(instance: ProblemInstance) -> Reduction:
    """Case t >= 2n: one pair into each of the k sets, child keeps k."""
    _require_case(instance, TraceSymbol.SMALLER, "reduce_smaller")
    n, k, t = instance.n, instance.k, instance.t
    low = range(n - 2 * k + 1, n - k + 1)  # n - 2k + j
    high = range(n, n - k, -1)  # n - (j - 1)
    fixed = tuple(zip(range(k), zip(low, high)))
    child = ProblemInstance(n - 2 * k, k, t - 2 * (n - k) - 1)
    merge_plan = tuple((j, HALF_SECOND) for j in range(k))
    return Reduction(TraceSymbol.SMALLER, fixed, None, child, merge_plan)


def reduce_greater_even(instance: ProblemInstance) -> Reduction:
    """Case t < 2n, t even: finish (2n-t)/2 sets, pin t/2, split the rest."""
    _require_case(instance, TraceSymbol.GREATER_EVEN, "reduce_greater_even")
    n, k, t = instance.n, instance.k, instance.t
    filled = _exact_div(2 * n - t, 2)
    low = range(t - n, t - n + filled)  # t - n + (j - 1)
    high = range(n, n - filled, -1)  # n - (j - 1)
    fixed = tuple(zip(range(filled), zip(low, high)))
    pivot = (filled, _exact_div(t, 2))
    child = ProblemInstance(t - n - 1, 2 * (k - n) + t - 1, t // 2)
    plan: list[tuple[int, int | None]] = [(filled, HALF_SECOND)]
    for j in range(filled + 1, k):
        plan.append((j, HALF_FIRST))
        plan.append((j, HALF_SECOND))
    return Reduction(TraceSymbol.GREATER_EVEN, fixed, pivot, child, tuple(plan))


def reduce_greater_odd(instance: ProblemInstance) -> Reduction:
    """Case t < 2n, t odd: finish (2n-t+1)/2 sets, child fills whole sets."""
    _require_case(instance, TraceSymbol.GREATER_ODD, "reduce_greater_odd")
    n, k, t = instance.n, instance.k, instance.t
    filled = _exact_div(2 * n - t + 1, 2)
    low = range(t - n, t - n + filled)
    high = range(n, n - filled, -1)
    fixed = tuple(zip(range(filled), zip(low, high)))
    child = ProblemInstance(t - n - 1, k - filled, t)
    merge_plan = tuple((filled + c, WHOLE) for c in range(k - filled))
    return Reduction(TraceSymbol.GREATER_ODD, fixed, None, child, merge_plan)


def _check_reduction(parent: ProblemInstance, red: Reduction) -> None:
    """Inline feasibility gate for every recursive descent."""
    child = red.child
    placed = 2 * len(red.fixed) + (1 if red.pivot is not None else 0)
    if placed + child.n != parent.n:
        raise InvariantError(
            f"reduction of ({parent.n}, {parent.k}, {parent.t}) places {placed} "
            f"elements but leaves n'={child.n}"
        )
    if child.n == 0 and child.k == 0:
        return  # nothing left to place; unreachable from valid input
    if child.n < 1 or child.k < 1 or child.t < 1:
        raise InvariantError(
            f"child of ({parent.n}, {parent.k}, {parent.t}) is not positive: "
            f"({child.n}, {child.k}, {child.t})"
        )
    if child.t < child.n:
        raise InvariantError(
            f"child target {child.t} below child size {child.n} "
            f"(parent ({parent.n}, {parent.k}, {parent.t}))"
        )
    if 2 * child.k * child.t != child.n * (child.n + 1):
        raise InvariantError(
            f"child sum mismatch: ({child.n}, {child.k}, {child.t}) "
            f"from parent ({parent.n}, {parent.k}, {parent.t})"
        )
    if len(red.merge_plan) != child.k:
        raise InvariantError(
            f"merge plan covers {len(red.merge_plan)} child sets, expected {child.k}"
        )


def solve_detailed(instance: ProblemInstance, *, record_steps: bool = False) -> SolveResult:
    """Solve an instance and report the trace and total element placements."""
    steps: list[tuple[ProblemInstance, TraceSymbol]] = []
    reductions: list[Reduction] = []
    current = instance
    exhausted = False
    while True:
        label = classify_case(current)
        steps.append((current, label))
        if label is TraceSymbol.MEANDER:
            break
        if label is TraceSymbol.SMALLER:
            red = reduce_smaller(current)
        elif label is TraceSymbol.GREATER_EVEN:
            red = reduce_greater_even(current)
        else:
            red = reduce_greater_odd(current)
        _check_reduction(current, red)
        reductions.append(red)
        current = red.child
        if current.n == 0:
            exhausted = True
            break

    # slot[i] is the final top-level set receiving set i of the current level
    sets: list[list[int]] = [[] for _ in range(instance.k)]
    slot = list(range(instance.k))
    insertions = 0
    for red in reductions:
        for parent, pair in red.fixed:
            sets[slot[parent]].extend(pair)
            insertions += len(pair)
        if red.pivot is not None:
            parent, value = red.pivot
            sets[slot[parent]].append(value)
            insertions += 1
        slot = [slot[parent] for parent, _half in red.merge_plan]

    if not exhausted:
        base = steps[-1][0]
        fill = meander_even if base.n % (2 * base.k) == 0 else meander_odd
        for child_index, members in enumerate(fill(base).sets):
            sets[slot[child_index]].extend(members)
            insertions += len(members)

    for members in sets:
        members.sort()
    partition = Partition(instance, tuple(tuple(members) for members in sets))
    trace = Trace(
        symbols=tuple(label for _, label in steps),
        per_step=tuple(inst for inst, _ in steps) if record_steps else None,
    )
    return SolveResult(partition, trace, insertions)


def solve(instance: ProblemInstance, *, record_steps: bool = False) -> tuple[Partition, Trace]:
    """Solve an instance, returning the partition and its trace."""
    result = solve_detailed(instance, record_steps=record_steps)
    return result.partition, result.trace
