"""Iterative solver: plan the descent top-down, compose the sets bottom-up.

Every valid instance falls into exactly one case, checked in this order:

  meander       2k | n or 2k | n+1; fill all sets directly and stop.
  smaller       t >= 2n; pin the pair {n-2k+j, n-(j-1)} into every set j
                (each pair sums to 2(n-k)+1) and recurse on
                (n-2k, k, t-2(n-k)-1), whose sets complete the same k sets.
  greater-even  t < 2n, t even; sets 1..(2n-t)/2 are finished whole as
                {t-n+(j-1), n-(j-1)} (sum t), the element t/2 sits alone in
                one half of the next set, and the recursion on
                (t-n-1, 2(k-n)+t-1, t/2) fills the remaining half-slots,
                two child sets per remaining parent set.
  greater-odd   t < 2n, t odd; sets 1..(2n-t+1)/2 are finished whole the
                same way and the recursion on (t-n-1, k-(2n-t+1)/2, t)
                fills each remaining set in one piece.

``plan`` descends to the meander base in integer arithmetic only, gating
every level's child against the input contract. A maximal run of ``s``
steps is one level, computed in closed form, not walked: it cannot end in
the meander case (n - 2k = n mod 2k). The plan is the trace: one run per
level, with the instance opening it. ``solve_detailed`` walks it back and
``compose`` builds each level's tuples from its child's sets, in the child's
order, with one function per case: ``meander_even``/``meander_odd`` by the
parity of n, the s-run's columns, or ``greater``. A level places one range
above all of its child's elements, so appending keeps every set ascending;
it must return k sets that gained exactly those n - n'.

The meander fills set j (1-based) from two progressions of stride 2k, a
descending-anchored line I and an ascending line II:

  even case, block i = 1 .. n/2k:       (I) 2ki - (j-1)    (II) 2k(i-1) + j
  odd case,  block i = 1 .. (n+1)/2k:   (I) 2ki - j        (II) 2k(i-1) + (j-1)

So column j takes the j-th value of every block of 2k and the j-th from its
end; an s-run appends the columns over its range to the child's sets. The
odd case starts at 0, which opens the first column and is dropped.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple, Sequence

from .core import (
    InstanceError, InvariantError, Partition, PreconditionError, ProblemInstance, validate_instance
)
from .trace import Trace, TraceSymbol

Sets = Sequence[tuple[int, ...]]


class SolveResult(NamedTuple):
    partition: Partition
    trace: Trace
    insertions: int


def _case(n: int, k: int, t: int) -> TraceSymbol:
    two_k = 2 * k
    if n % two_k == 0 or (n + 1) % two_k == 0:
        return TraceSymbol.MEANDER
    if t >= 2 * n:
        return TraceSymbol.SMALLER
    return TraceSymbol.GREATER_EVEN if t % 2 == 0 else TraceSymbol.GREATER_ODD


def smaller_run(n: int, k: int, t: int) -> tuple[int, int, int, int]:
    """Case t >= 2n, a maximal run: (steps, child n, k, child t).

    Given k*t = n(n+1)/2, t >= 2n holds exactly when n + 1 >= 4k, so the run
    takes every step down to the last n_i = n - 2ki with n_i + 1 >= 4k, and
    its child t is t minus the run's pair sums 2(n_i - k) + 1.
    """
    steps = (n - 4 * k + 1) // (2 * k) + 1
    child_t = t - steps * (2 * n - 2 * k + 1) + 2 * k * steps * (steps - 1)
    return steps, n - 2 * k * steps, k, child_t


def plan(instance: ProblemInstance) -> Trace:
    """The trace from the instance down to its meander base: one run per
    level, opened by the level's instance."""
    n, k, t = opening = instance
    runs: list[tuple[TraceSymbol, int]] = []
    openings: list[ProblemInstance] = []
    while (case := _case(n, k, t)) is not TraceSymbol.MEANDER:
        if case is TraceSymbol.SMALLER:
            steps, child_n, child_k, child_t = smaller_run(n, k, t)
        elif case is TraceSymbol.GREATER_EVEN:
            steps, child_n, child_k, child_t = 1, t - n - 1, 2 * (k - n) + t - 1, t // 2
        else:
            steps, child_n, child_k, child_t = 1, t - n - 1, k - (2 * n - t + 1) // 2, t
        # One gate per level is enough for an s-run. Step i of the run has the
        # child (n_i, k, t_i), n_i = n - 2ki, whose sum identity follows from
        # the parent's by algebra; its t_i >= n_i >= 1 holds exactly when
        # n_i + 1 >= 2k, and n_i only falls along the run, so the run's last
        # child passing the gate means every child of the run passes it.
        try:
            child = validate_instance(child_n, child_k, child_t)
        except InstanceError as exc:
            child, parent = (child_n, child_k, child_t), (n, k, t)
            raise InvariantError(f"child {child} of parent {parent}: {exc}") from exc
        runs.append((case, steps))
        openings.append(opening)
        n, k, t = opening = child
    runs.append((TraceSymbol.MEANDER, 1))
    openings.append(opening)
    return Trace(tuple(runs), tuple(openings))


def meander_columns(low: int, high: int, k: int) -> Iterable[tuple[int, ...]]:
    """The k sets of the meander pattern over low..high, each ascending.

    The range must be a whole number of blocks of 2k values; low = 1 is the
    even case, low = 0 the odd one.
    """
    two_k = 2 * k
    blocks = (high - low + 1) // two_k
    if k < blocks:
        # few long columns: lines II and I are two strided slices each
        column = [0] * (2 * blocks)
        columns = []
        for j in range(k):
            column[0::2] = range(low + j, high + 1, two_k)
            column[1::2] = range(low + two_k - 1 - j, high + 1, two_k)
            columns.append(tuple(column))
        return columns
    # many short columns: zip the halves of every block, the second reversed
    halves = []
    for start in range(low, high + 1, two_k):
        halves += (range(start, start + k), range(start + two_k - 1, start + k - 1, -1))
    return zip(*halves)


def meander_even(instance: ProblemInstance) -> Partition:
    """The meander base for n even, 2k | n: the columns over 1..n, n insertions."""
    n, k = instance.n, instance.k
    if n % (2 * k) != 0:
        raise PreconditionError(f"even meander needs 2k | n, got n={n}, k={k}")
    # list, then tuple: tuple() of the columns' zip resizes as it goes
    return Partition(instance, tuple(list(meander_columns(1, n, k))))


def meander_odd(instance: ProblemInstance) -> Partition:
    """The meander base for n odd, 2k | n+1: the columns over 0..n less the 0."""
    n, k = instance.n, instance.k
    if (n + 1) % (2 * k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={n}, k={k}")
    sets = list(meander_columns(0, n, k))
    sets[0] = sets[0][1:]  # the bookkeeping 0
    return Partition(instance, tuple(sets))


def greater(sets: Sets, n: int, t: int) -> Sets:
    """Case t < 2n: (2n-t+1)//2 pairs {t-n+(j-1), n-(j-1)} of sum t, (2n-t)/2 for t
    even; then the child's sets (t odd), or set 1 with t/2 and the rest in twos (t even)."""
    filled = (2 * n - t + 1) // 2
    composed = list(zip(range(t - n, t - n + filled), range(n, n - filled, -1)))
    if t % 2:
        composed += sets
    else:
        composed.append(sets[0] + (t // 2,))
        composed += map(tuple, map(sorted, map(add, sets[1::2], sets[2::2])))
    return composed


def compose(case: TraceSymbol, opening: ProblemInstance, child_n: int, sets: Sets) -> Sets:
    """The sets of one level, built from the sets of its child (none for the base)."""
    n, k, t = opening
    if case is TraceSymbol.MEANDER:
        # 2k is even: it divides n when n is even and n + 1 when n is odd
        return (meander_odd if n % 2 else meander_even)(opening).sets
    if case is TraceSymbol.SMALLER:
        return list(map(add, sets, meander_columns(child_n + 1, n, k)))
    return greater(sets, n, t)


def solve_detailed(instance: ProblemInstance, *, record_steps: bool = False) -> SolveResult:
    """Solve an instance and report the trace and total element placements.

    ``record_steps`` is accepted and ignored: the trace always keeps the
    instance opening each level, which is O(1) per level.
    """
    trace = plan(instance)
    sets: Sets = []
    insertions = child_n = 0
    # bottom-up: each level's child n is the n of the level composed before it
    for (case, _), opening in zip(reversed(trace.runs), reversed(trace.openings)):
        sets = compose(case, opening, child_n, sets)
        n, k, t = opening
        placed = sum(map(len, sets)) - insertions
        if len(sets) != k or placed != n - child_n:
            got, want = (len(sets), placed), (k, n - child_n)
            raise InvariantError(f"level ({n}, {k}, {t}) made (sets, elements) {got}, expected {want}")
        insertions += placed
        child_n = n
    return SolveResult(Partition(instance, tuple(sets)), trace, insertions)


def solve(instance: ProblemInstance) -> tuple[Partition, Trace]:
    """Solve an instance, returning the partition and its trace."""
    result = solve_detailed(instance)
    return result.partition, result.trace

