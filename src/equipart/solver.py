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
every child against the input contract; a maximal run of ``s`` steps is
one level, as it cannot end in the meander case (n - 2k = n mod 2k).
``solve_detailed`` then builds the sets as tuples from the base up, each
level taking its child's sets in the child's own order. A level places one
contiguous range above all of its child's elements, so appending keeps
every set ascending; it must return k sets that gained exactly those n - n'.

The meander fills set j (1-based) from two progressions of stride 2k, a
descending-anchored line I and an ascending line II:

  even case, block i = 1 .. n/2k:       (I) 2ki - (j-1)    (II) 2k(i-1) + j
  odd case,  block i = 1 .. (n+1)/2k:   (I) 2ki - j        (II) 2k(i-1) + (j-1)

So column j takes the j-th value of every block of 2k and the j-th from its
end; an s-run appends the columns over its range to the child's sets. The
odd case starts at 0, which opens the first column and is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable

from .core import InvariantError, Partition, PreconditionError, ProblemInstance
from .trace import Trace, TraceSymbol

# One level of a plan: (case, n, k, t, child n). An s level is a whole run
# from its top n down to the child n; the meander base has child n 0.
Level = tuple[TraceSymbol, int, int, int, int]
Sets = list[tuple[int, ...]]
StepLog = list[ProblemInstance] | None


@dataclass(frozen=True)
class SolveResult:
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


def classify_case(instance: ProblemInstance) -> TraceSymbol:
    """Return the case label, meander taking precedence."""
    return _case(instance.n, instance.k, instance.t)


def _check_child(parent: tuple[int, int, int], n: int, k: int, t: int) -> None:
    """Inline feasibility gate for every recursive descent."""
    if n < 1 or k < 1 or t < 1:
        raise InvariantError(f"child of {parent} is not positive: ({n}, {k}, {t})")
    if t < n:
        raise InvariantError(f"child target {t} below child size {n} (parent {parent})")
    if 2 * k * t != n * (n + 1):
        raise InvariantError(f"child sum mismatch: ({n}, {k}, {t}) from parent {parent}")


def smaller_run(n: int, k: int, t: int, per_step: StepLog) -> tuple[int, int, int, int]:
    """Case t >= 2n, a maximal run: (steps, child n, k, t); logs every step."""
    steps = 0
    while True:
        if per_step is not None:
            per_step.append(ProblemInstance(n, k, t))
        steps += 1
        child_n, child_t = n - 2 * k, t - 2 * (n - k) - 1
        # the gate of _check_child, inlined: k > 0 is kept and t' >= n' > 0
        # implies t' > 0
        if child_n < 1 or child_t < child_n or 2 * k * child_t != child_n * (child_n + 1):
            _check_child((n, k, t), child_n, k, child_t)
        n, t = child_n, child_t
        if t < 2 * n:  # the meander test cannot fire inside the run
            return steps, n, k, t


def plan(instance: ProblemInstance, *, record_steps: bool = False) -> tuple[list[Level], Trace]:
    """The levels from the instance down to its meander base, and the trace."""
    n, k, t = instance.n, instance.k, instance.t
    levels: list[Level] = []
    symbols: list[TraceSymbol] = []
    per_step: StepLog = [] if record_steps else None
    while (case := _case(n, k, t)) is not TraceSymbol.MEANDER:
        if case is TraceSymbol.SMALLER:
            steps, child_n, child_k, child_t = smaller_run(n, k, t, per_step)
        elif case is TraceSymbol.GREATER_EVEN:
            steps, child_n, child_k, child_t = 1, t - n - 1, 2 * (k - n) + t - 1, t // 2
        else:
            steps, child_n, child_k, child_t = 1, t - n - 1, k - (2 * n - t + 1) // 2, t
        if case is not TraceSymbol.SMALLER and per_step is not None:
            per_step.append(ProblemInstance(n, k, t))
        _check_child((n, k, t), child_n, child_k, child_t)
        levels.append((case, n, k, t, child_n))
        symbols += [case] * steps
        n, k, t = child_n, child_k, child_t
    if per_step is not None:
        per_step.append(ProblemInstance(n, k, t))
    symbols.append(TraceSymbol.MEANDER)
    levels.append((TraceSymbol.MEANDER, n, k, t, 0))
    return levels, Trace(tuple(symbols), tuple(per_step) if per_step is not None else None)


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


def _pairs(n: int, t: int, filled: int) -> Sets:
    """The finished sets {t-n+(j-1), n-(j-1)}, j = 1..filled, each of sum t."""
    return list(zip(range(t - n, t - n + filled), range(n, n - filled, -1)))


def greater_even(sets: Sets, n: int, t: int) -> Sets:
    """Case t < 2n, t even: (2n-t)/2 pairs, child set 1 with t/2, then the rest in twos."""
    head = _pairs(n, t, (2 * n - t) // 2)
    head.append(sets[0] + (t // 2,))
    return head + list(map(tuple, map(sorted, map(add, sets[1::2], sets[2::2]))))


def greater_odd(sets: Sets, n: int, t: int) -> Sets:
    """Case t < 2n, t odd: (2n-t+1)/2 pairs, then the child's sets."""
    return _pairs(n, t, (2 * n - t + 1) // 2) + sets


def compose(level: Level, sets: Sets) -> Sets:
    """The sets of one level, built from the sets of its child (none for the base)."""
    case, n, k, t, child_n = level
    if case is TraceSymbol.MEANDER:
        sets = list(meander_columns(1 - n % 2, n, k))
        if n % 2:
            sets[0] = sets[0][1:]  # the bookkeeping 0
        return sets
    if case is TraceSymbol.SMALLER:
        return list(map(add, sets, meander_columns(child_n + 1, n, k)))
    if case is TraceSymbol.GREATER_EVEN:
        return greater_even(sets, n, t)
    return greater_odd(sets, n, t)


def solve_detailed(instance: ProblemInstance, *, record_steps: bool = False) -> SolveResult:
    """Solve an instance and report the trace and total element placements."""
    levels, trace = plan(instance, record_steps=record_steps)
    sets: Sets = []
    insertions = 0
    for level in reversed(levels):
        _, n, k, t, child_n = level
        sets = compose(level, sets)
        placed = sum(map(len, sets)) - insertions
        if len(sets) != k or placed != n - child_n:
            got, want = (len(sets), placed), (k, n - child_n)
            raise InvariantError(f"level ({n}, {k}, {t}) made (sets, elements) {got}, expected {want}")
        insertions += placed
    return SolveResult(Partition(instance, tuple(sets)), trace, insertions)


def solve(instance: ProblemInstance, *, record_steps: bool = False) -> tuple[Partition, Trace]:
    """Solve an instance, returning the partition and its trace."""
    result = solve_detailed(instance, record_steps=record_steps)
    return result.partition, result.trace


# Not called by the solver; kept because bench/run.py --trace 1 wraps these two names.
def meander_even(instance: ProblemInstance) -> Partition:
    """Solve an instance with n even and 2k | n in exactly n insertions."""
    if instance.n % (2 * instance.k) != 0:
        raise PreconditionError(f"even meander needs 2k | n, got n={instance.n}, k={instance.k}")
    return solve_detailed(instance).partition


def meander_odd(instance: ProblemInstance) -> Partition:
    """Solve an instance with n odd and 2k | n + 1 in exactly n insertions."""
    if (instance.n + 1) % (2 * instance.k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={instance.n}, k={instance.k}")
    return solve_detailed(instance).partition
