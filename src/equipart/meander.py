"""Direct partition construction for the two divisibility base cases.

When ``2k`` divides ``n`` (n even) or ``n + 1`` (n odd), set ``j`` can be
filled directly by interleaving two arithmetic progressions of stride
``2k``: a descending-anchored line (I) and an ascending line (II).

even case, block i = 1 .. n/2k:       (I) 2ki - (j-1)    (II) 2k(i-1) + j
odd case,  block i = 1 .. (n+1)/2k:   (I) 2ki - j        (II) 2k(i-1) + (j-1)

The odd case generates the value 0 once (block 1 of set 1, line II) purely
as bookkeeping; it is counted as an insertion but dropped from the output,
so both cases place each element of {1..n} exactly once.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import Partition, PreconditionError, ProblemInstance, sets_from_labels


class MeanderAssignment(NamedTuple):
    """One generated element: set index j, block i (both 1-based), line label."""

    set_index: int
    block: int
    label: str  # "I" or "II"
    value: int


def even_assignments(n: int, k: int) -> Iterator[MeanderAssignment]:
    """Yield the even-case assignments in nested loop order (j outer, i inner)."""
    two_k = 2 * k
    blocks = n // two_k
    for j in range(1, k + 1):
        for i in range(1, blocks + 1):
            yield MeanderAssignment(j, i, "I", two_k * i - (j - 1))
            yield MeanderAssignment(j, i, "II", two_k * (i - 1) + j)


def odd_assignments(n: int, k: int) -> Iterator[MeanderAssignment]:
    """Yield the odd-case assignments, including the bookkeeping 0."""
    two_k = 2 * k
    blocks = (n + 1) // two_k
    for j in range(1, k + 1):
        for i in range(1, blocks + 1):
            yield MeanderAssignment(j, i, "I", two_k * i - j)
            yield MeanderAssignment(j, i, "II", two_k * (i - 1) + (j - 1))


def meander_fill(owner: list[int], slot: list[int], low: int, high: int) -> int:
    """Label ``owner[low..high]`` with the meander pattern; returns the count.

    The range is cut into blocks of ``2k`` consecutive values, k being the
    length of ``slot``. Block i of the even case (low = 1) holds line II of
    every set first, ascending in j, then line I, descending in j, so its
    labels are ``slot + slot[::-1]``; the odd case (low = 0) is the same
    pattern shifted down by one. The range must be a whole number of blocks.
    """
    block = slot + slot[::-1]
    blocks = (high - low + 1) // len(block)
    owner[low : high + 1] = block * blocks
    return blocks * len(block)


def _build(n: int, k: int, low: int) -> tuple[list[list[int]], int]:
    owner = [0] * (n + 1)
    insertions = meander_fill(owner, list(range(k)), low, n)
    return sets_from_labels(owner, k), insertions


def build_even(n: int, k: int) -> tuple[list[list[int]], int]:
    """Fill the k sets for the even case; returns (sets, insertion count).

    Equivalent to consuming :func:`even_assignments`; every set is ascending.
    """
    return _build(n, k, 1)


def build_odd(n: int, k: int) -> tuple[list[list[int]], int]:
    """Fill the k sets for the odd case; returns (sets, insertion count).

    The count includes the generated 0, which lands in set 1 and is not
    read back, so the count is n + 1 while the output covers {1..n}.
    """
    return _build(n, k, 0)


def meander_even(instance: ProblemInstance) -> Partition:
    """Solve an instance with n even and 2k | n in exactly n insertions."""
    n, k = instance.n, instance.k
    if n % (2 * k) != 0:
        raise PreconditionError(f"even meander needs 2k | n, got n={n}, k={k}")
    sets, _ = build_even(n, k)
    return Partition(instance, tuple(map(tuple, sets)))


def meander_odd(instance: ProblemInstance) -> Partition:
    """Solve an instance with n odd and 2k | n + 1 in n + 1 insertions."""
    n, k = instance.n, instance.k
    if (n + 1) % (2 * k) != 0:
        raise PreconditionError(f"odd meander needs 2k | n+1, got n={n}, k={k}")
    sets, _ = build_odd(n, k)
    return Partition(instance, tuple(map(tuple, sets)))
