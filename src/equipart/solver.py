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
level, with the instance opening it. ``compose_window`` builds any window
of sets [a, b) from it in two passes. Top-down, it maps the window down the
plan to the child sets each level takes (an s-run the same sets, go the
sets past its finished pairs, ge two child sets per set). Bottom-up, it
builds each level's tuples from those, in the child's order, by the level's
case: the meander's columns (``meander_even``/``meander_odd`` by the parity
of n for the whole base), the s-run's columns, or ``greater``. A ge level
whose child is ge or go takes the child's leading finished pairs (L+c, H-c),
L = t'-n', H = n', in closed form: pair 0 joins t/2, and each later set
(L+c, L+c+1, H-c-1, H-c) is one step of four stride-2 ranges, so the
child's window starts past them and no sorted merge runs on them. A level
places one range above all of its child's elements, so appending keeps
every set ascending; it must return its window's sets with exactly the
elements it places in them, the finished pairs its parent built counted as
its own. ``solve_detailed`` is the window of all k sets; the CLI writes one
window at a time, and a set larger than a window in the parts ``set_parts``
cuts: the child's set, then the top column in chunks of blocks.

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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    InstanceError, InvariantError, Partition, PreconditionError, ProblemInstance, validate_instance
)
from .trace import Trace, TraceSymbol

Sets = Sequence[tuple[int, ...]]
# the cases as module globals, which read faster than TraceSymbol's attributes
_MEANDER, _SMALLER, _GREATER_EVEN, _GREATER_ODD = TraceSymbol
_FINISHING = (_GREATER_EVEN, _GREATER_ODD)  # the cases that open with finished pairs


class SolveResult(NamedTuple):
    partition: Partition
    trace: Trace
    insertions: int


def _case(n: int, k: int, t: int) -> TraceSymbol:
    two_k = 2 * k
    if n % two_k == 0 or (n + 1) % two_k == 0:
        return _MEANDER
    if t >= 2 * n:
        return _SMALLER
    return _GREATER_EVEN if t % 2 == 0 else _GREATER_ODD


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
    while (case := _case(n, k, t)) is not _MEANDER:
        if case is _SMALLER:
            steps, child_n, child_k, child_t = smaller_run(n, k, t)
        elif case is _GREATER_EVEN:
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
    runs.append((_MEANDER, 1))
    openings.append(opening)
    return Trace(tuple(runs), tuple(openings))


def meander_columns(low: int, high: int, k: int, a: int, b: int) -> Iterable[tuple[int, ...]]:
    """Columns a..b-1 of the k-set meander pattern over low..high, each ascending.

    The range must be a whole number of blocks of 2k values; low = 1 is the
    even case, low = 0 the odd one.
    """
    two_k = 2 * k
    blocks = (high - low + 1) // two_k
    if b - a < blocks:
        # few long columns: lines II and I are two strided slices each
        column = [0] * (2 * blocks)
        columns = []
        for j in range(a, b):
            column[0::2] = range(low + j, high + 1, two_k)
            column[1::2] = range(low + two_k - 1 - j, high + 1, two_k)
            columns.append(tuple(column))
        return columns
    # many short columns: zip the halves of every block, the second reversed
    halves = []
    for start in range(low, high + 1, two_k):
        halves += (range(start + a, start + b), range(start + two_k - 1 - a, start + two_k - 1 - b, -1))
    return zip(*halves)


def meander_sets(n: int, k: int, a: int, b: int) -> list[tuple[int, ...]]:
    """Sets a..b-1 of the meander base: the columns over 1..n for n even, over
    0..n less the 0 for n odd."""
    sets = list(meander_columns(1 - n % 2, n, k, a, b))
    if n % 2 and a == 0 < b:
        sets[0] = sets[0][1:]  # the bookkeeping 0
    return sets


def meander_even(instance: ProblemInstance) -> Partition:
    """The meander base for n even, 2k | n: the columns over 1..n, n insertions."""
    n, k = instance.n, instance.k
    if n % (2 * k) != 0:
        raise PreconditionError(f"even meander needs 2k | n, got n={n}, k={k}")
    # tuple.__new__ skips a Python-level __new__, as in validate_instance
    return tuple.__new__(Partition, (instance, tuple(meander_sets(n, k, 0, k))))


def meander_odd(instance: ProblemInstance) -> Partition:
    """The meander base for n odd, 2k | n+1: the columns over 0..n less the 0."""
    n, k = instance.n, instance.k
    if (n + 1) % (2 * k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={n}, k={k}")
    return tuple.__new__(Partition, (instance, tuple(meander_sets(n, k, 0, k))))


def greater(sets: Sets, n: int, t: int, a: int, b: int, pairs: int) -> Sets:
    """Case t < 2n, sets a..b-1: (2n-t+1)//2 pairs {t-n+(j-1), n-(j-1)} of sum t,
    (2n-t)/2 for t even; then the child's sets (t odd), or the next set with
    t/2 and the rest in twos (t even). ``sets`` are the child's sets that
    sets a..b-1 take, less its first ``pairs`` (t even, a child ge or go: its
    finished pairs, an odd count), which are built here in closed form: child
    pair c is (L+c, H-c), L = t'-n', H = n', so pair 0 joins t/2 as
    (L, H, t/2) and pairs c, c+1 (c odd) join as (L+c, L+c+1, H-c-1, H-c),
    four stride-2 ranges."""
    filled = (2 * n - t + 1) // 2
    last = b if b < filled else filled
    composed = list(zip(range(t - n + a, t - n + last), range(n - a, n - last, -1)))
    if t % 2:
        composed += sets
        return composed
    half = t // 2
    pivot = 1 if a <= filled < b else 0
    if pairs:
        low, high = n + 1 - half, t - n - 1  # the child's L = t/2 - n' and H = n'
        if pivot:
            composed.append((low, high, half))
        first = 2 * (a - filled) - 1 if a > filled else 1
        stop = 2 * (b - filled) - 1
        if stop > pairs:
            stop = pairs
        composed += zip(
            range(low + first, low + stop, 2),
            range(low + first + 1, low + stop, 2),
            range(high - first - 1, high - stop, -2),
            range(high - first, high - stop, -2),
        )
        pivot = 0
    elif pivot:
        composed.append(sets[0] + (half,))
    composed += map(tuple, map(sorted, map(add, sets[pivot::2], sets[pivot + 1 :: 2])))
    return composed


def compose_window(trace: Trace, a: int, b: int) -> tuple[Sets, int]:
    """Sets a..b-1 of the trace's instance and the elements they hold.

    Top-down, each level's sets [start, b) name the child's sets [a', b')
    they take; bottom-up, each level composes its sets from those by its
    case. A ge level over a ge or go child builds the child's leading
    finished pairs itself, so the child composes its window only from
    ``start`` on. Every level must return its window's sets, and a level
    composed whole must place exactly its n - n' elements in them, counting
    the finished pairs its parent built.
    """
    runs, openings = trace.runs, trace.openings
    levels = []
    start = a
    for i, (case, _) in enumerate(runs):
        n, _, t = opening = openings[i]
        filled = (2 * n - t + 1) // 2
        pairs = 0
        if case is _GREATER_EVEN and runs[i + 1][0] in _FINISHING:
            child_n, _, child_t = openings[i + 1]
            # the child's finished pairs, rounded down to odd: pair 0 joins t/2,
            # the rest join two to a set
            pairs = (2 * child_n - child_t + 1) // 2 - 1 | 1
        levels.append((case, opening, a, start, b, pairs))
        # the child sets [a, b) that sets [start, b) take: an s-run the same
        # ones (start is a, as only a ge or go level has pairs built above it),
        # go those past its finished pairs, ge child set 0 with t/2 in set
        # `filled` and two in each later set; the child starts past `pairs`
        if case is _GREATER_ODD:
            a, b = (start - filled if start > filled else 0), (b - filled if b > filled else 0)
        elif case is _GREATER_EVEN:
            a = 2 * (start - filled) - 1 if start > filled else 0
            b = 2 * (b - filled) - 1 if b > filled else 0
        start = a
        if pairs > a:
            start = pairs if pairs < b else b
    sets: Sets = []
    size = child_n = 0
    for case, opening, a, start, b, pairs in reversed(levels):
        n, k, t = opening
        if case is _SMALLER:
            sets = list(map(add, sets, meander_columns(child_n + 1, n, k, start, b)))
        elif case is not _MEANDER:
            sets = greater(sets, n, t, start, b, pairs)
        elif b - start < k:
            sets = meander_sets(n, k, start, b)
        else:
            # 2k is even: it divides n when n is even and n + 1 when n is odd
            sets = (meander_odd if n % 2 else meander_even)(opening).sets
        closed = start - a  # finished pairs of this level that its parent built
        placed = sum(map(len, sets)) + 2 * closed - size
        # only a whole level has an element count to hold to
        if len(sets) != b - start or (placed != n - child_n and b - a == k):
            got, want = (len(sets) + closed, placed), (b - a, n - child_n if b - a == k else placed)
            raise InvariantError(
                f"level ({n}, {k}, {t}) made (sets, elements) {got}, expected {want} in sets [{a}, {b})"
            )
        size += placed
        child_n = n
    return sets, size


def set_parts(trace: Trace, j: int, size: int) -> Iterator[tuple[int, ...]]:
    """Set j of the trace's instance in ascending parts of about ``size``
    elements. Under an s-run or meander top, column j of the top level in
    chunks of max(1, size // 2) blocks of 2k values (a column takes two values
    of each), less the odd meander's 0, the first joined to the child's set j
    under an s-run; under a ge or go top, whose sets hold fewer than 2√n
    elements, the whole set."""
    (case, _), (n, k, _) = trace.runs[0], trace.openings[0]
    if case is _SMALLER:
        part = compose_window(Trace(trace.runs[1:], trace.openings[1:]), j, j + 1)[0][0]
        low = trace.openings[1].n + 1
    elif case is _MEANDER:
        part, low = (), 1 - n % 2
    else:
        yield compose_window(trace, j, j + 1)[0][0]
        return
    span = 2 * k * max(1, size // 2)
    for p in range(low, n + 1, span):
        [column] = meander_columns(p, min(p + span, n + 1) - 1, k, j, j + 1)
        yield part + (column if column[0] else column[1:])
        part = ()


def solve_detailed(instance: ProblemInstance, *, record_steps: bool = False) -> SolveResult:
    """Solve an instance and report the trace and total element placements.

    The partition is the window of all k sets. ``record_steps`` is accepted
    and ignored: the trace always keeps the instance opening each level,
    which is O(1) per level.
    """
    trace = plan(instance)
    sets, insertions = compose_window(trace, 0, instance.k)
    return tuple.__new__(SolveResult, (tuple.__new__(Partition, (instance, tuple(sets))), trace, insertions))


def solve(instance: ProblemInstance) -> tuple[Partition, Trace]:
    """Solve an instance, returning the partition and its trace."""
    result = solve_detailed(instance)
    return result.partition, result.trace

