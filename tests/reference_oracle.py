"""Frozen copy of the oracle's earlier recursive search.

``tests/test_oracle.py`` checks that the iterative search in
``equipart.oracle`` returns the same partition as this one on every valid
instance with ``n <= 30``. Do not edit it to follow the library.
"""

from __future__ import annotations

from equipart.core import Partition, ProblemInstance


def brute_force_partition(instance: ProblemInstance) -> Partition | None:
    """Backtrack over the elements in descending order, one frame each."""
    k, t = instance.k, instance.t
    remaining = [t] * k
    members: list[list[int]] = [[] for _ in range(k)]

    def place(x: int) -> bool:
        if x == 0:
            return True
        tried: set[int] = set()
        for idx in range(k):
            room = remaining[idx]
            if room < x or room in tried:
                continue
            tried.add(room)
            remaining[idx] = room - x
            members[idx].append(x)
            if place(x - 1):
                return True
            remaining[idx] = room
            members[idx].pop()
        return False

    if not place(instance.n):
        return None
    return Partition(instance, tuple(tuple(sorted(s)) for s in members))
