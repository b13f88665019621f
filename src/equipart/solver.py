"""Iterative solver: classify, place the top elements, descend to a child.

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

The partition under construction is one label array: ``owner[x]`` is the
final set of element ``x``. A ``slot`` list maps the sets of the current
level to final sets. Every case writes the elements it places, which form
one contiguous range at the top of the current level, as a single slice
assignment, so each of the n elements is labelled exactly once. A maximal
run of ``s`` steps keeps the slot map and writes the meander pattern over
its whole range at once: the run cannot end in the meander case, because
n - 2k = n (mod 2k). Every child instance is re-checked against the input
contract before the descent continues, and reading ``owner`` in ascending
order yields every set already sorted.

The meander fills set j (1-based) from two progressions of stride 2k, a
descending-anchored line I and an ascending line II:

  even case, block i = 1 .. n/2k:       (I) 2ki - (j-1)    (II) 2k(i-1) + j
  odd case,  block i = 1 .. (n+1)/2k:   (I) 2ki - j        (II) 2k(i-1) + (j-1)

So each block of 2k consecutive values is labelled ``slot + slot[::-1]``.
The odd case starts at 0 instead of 1: it also labels the bookkeeping cell
``owner[0]``, which is not an element and is never read back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InvariantError, Partition, PreconditionError, ProblemInstance
from .trace import Trace, TraceSymbol

# A reduction step: (owner, slot, n, k, t, per_step) -> (steps taken, child
# n, child k, child t, child slot map, labels written). It appends the
# instance of every step it takes to per_step unless that is None.
StepLog = list[ProblemInstance] | None
StepResult = tuple[int, int, int, int, list[int], int]

_UNLABELLED = -1


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


def meander_fill(owner: list[int], slot: list[int], low: int, high: int) -> int:
    """Label ``owner[low..high]`` with the meander pattern; returns the count.

    The range must be a whole number of blocks of 2k values, k being the
    length of ``slot``; low = 1 is the even case, low = 0 the odd one.
    """
    block = slot + slot[::-1]
    blocks = (high - low + 1) // len(block)
    owner[low : high + 1] = block * blocks
    return blocks * len(block)


def smaller_run(
    owner: list[int], slot: list[int], n: int, k: int, t: int, per_step: StepLog
) -> StepResult:
    """Case t >= 2n, all steps of a maximal run: each gives every set one pair."""
    top, steps = n, 0
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
            break
    return steps, n, k, t, slot, meander_fill(owner, slot, n + 1, top)


def greater_even(
    owner: list[int], slot: list[int], n: int, k: int, t: int, per_step: StepLog
) -> StepResult:
    """Case t < 2n, t even: finish (2n-t)/2 sets, pin t/2, split the rest."""
    if per_step is not None:
        per_step.append(ProblemInstance(n, k, t))
    filled = (2 * n - t) // 2
    done, pivot, rest = slot[:filled], slot[filled], slot[filled + 1 :]
    owner[t - n : n + 1] = done + [pivot] + done[::-1]
    # the pivot's set takes one child set, every later set two
    child_slot = [pivot] * (2 * len(rest) + 1)
    child_slot[1::2] = child_slot[2::2] = rest
    return 1, t - n - 1, 2 * (k - n) + t - 1, t // 2, child_slot, 2 * filled + 1


def greater_odd(
    owner: list[int], slot: list[int], n: int, k: int, t: int, per_step: StepLog
) -> StepResult:
    """Case t < 2n, t odd: finish (2n-t+1)/2 sets, child fills whole sets."""
    if per_step is not None:
        per_step.append(ProblemInstance(n, k, t))
    filled = (2 * n - t + 1) // 2
    done = slot[:filled]
    owner[t - n : n + 1] = done + done[::-1]
    return 1, t - n - 1, k - filled, t, slot[filled:], 2 * filled


def sets_from_labels(owner: list[int], k: int) -> list[list[int]]:
    """Group the elements 1..len(owner)-1 into k sets by their label.

    ``owner[x]`` is the 0-based set of element x; index 0 is not read. The
    elements are visited in ascending order, so every set comes out sorted.
    """
    sets: list[list[int]] = [[] for _ in range(k)]
    for x in range(1, len(owner)):
        sets[owner[x]].append(x)
    return sets


def solve_detailed(instance: ProblemInstance, *, record_steps: bool = False) -> SolveResult:
    """Solve an instance and report the trace and total element placements."""
    n, k, t = instance.n, instance.k, instance.t
    owner = [_UNLABELLED] * (n + 1)
    owner[0] = 0  # not an element; only the odd base (2k | n+1) writes it
    slot = list(range(k))
    symbols: list[TraceSymbol] = []
    per_step: StepLog = [] if record_steps else None
    insertions = 0
    while (label := _case(n, k, t)) is not TraceSymbol.MEANDER:
        if label is TraceSymbol.SMALLER:
            step = smaller_run
        elif label is TraceSymbol.GREATER_EVEN:
            step = greater_even
        else:
            step = greater_odd
        steps, child_n, child_k, child_t, slot, written = step(owner, slot, n, k, t, per_step)
        _check_child((n, k, t), child_n, child_k, child_t)
        if len(slot) != child_k:
            raise InvariantError(f"slot map covers {len(slot)} child sets, expected {child_k}")
        symbols += [label] * steps
        insertions += written
        n, k, t = child_n, child_k, child_t

    if per_step is not None:
        per_step.append(ProblemInstance(n, k, t))
    symbols.append(TraceSymbol.MEANDER)
    # the odd base also labels index 0, the bookkeeping zero
    low = 1 - n % 2
    insertions += meander_fill(owner, slot, low, n) - (1 - low)

    if len(owner) != instance.n + 1:
        raise InvariantError(f"label array has {len(owner)} cells, expected {instance.n + 1}")
    if _UNLABELLED in owner:
        raise InvariantError(f"element {owner.index(_UNLABELLED)} left unlabelled")
    sets = sets_from_labels(owner, instance.k)
    partition = Partition(instance, tuple(map(tuple, sets)))
    trace = Trace(tuple(symbols), tuple(per_step) if per_step is not None else None)
    return SolveResult(partition, trace, insertions)


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
    """Solve an instance with n odd and 2k | n + 1 in n + 1 insertions."""
    if (instance.n + 1) % (2 * instance.k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={instance.n}, k={instance.k}")
    return solve_detailed(instance).partition
