"""Independent brute-force partitioner for small instances.

Used as ground truth against the constructive solver: it shares no code
with the reduction machinery and searches blindly, so agreement between
the two on every small valid instance is meaningful evidence.
"""

from __future__ import annotations

from .core import Partition, ProblemInstance

DEFAULT_CAP = 30


class CapExceededError(ValueError):
    """The instance is larger than the configured brute-force cap."""


def brute_force_partition(instance: ProblemInstance, cap: int = DEFAULT_CAP) -> Partition | None:
    """Find any valid partition by backtracking, or None if none exists.

    Elements are placed in descending order into the first set with enough
    remaining capacity; sets with identical remaining capacity are tried
    only once per element (this also pins element n to set 1).  For valid
    instances a partition always exists, so None signals a bug upstream.
    The search keeps its own stack, one set index per placed element, so
    ``cap`` is its only bound: raises CapExceededError when n exceeds it.
    """
    n, k, t = instance
    if n > cap:
        raise CapExceededError(f"n={n} exceeds brute-force cap {cap}")
    remaining = [t] * k
    holders: list[int] = []  # holders[i] is the set holding element n - i
    x, start = n, 0
    while x:
        for idx in range(start, k):
            room = remaining[idx]
            # a room is tried once: only at the lowest index holding it
            if room >= x and remaining.index(room) == idx:
                remaining[idx] = room - x
                holders.append(idx)
                x, start = x - 1, 0
                break
        else:
            if not holders:
                return None
            idx = holders.pop()
            x += 1
            remaining[idx] += x
            start = idx + 1
    members: list[list[int]] = [[] for _ in range(k)]
    for x, idx in enumerate(reversed(holders), start=1):
        members[idx].append(x)
    return Partition(instance, tuple(map(tuple, members)))
