"""Independent brute-force partitioner for small instances.

Used as ground truth against the constructive solver: it shares no code
with the reduction machinery and searches blindly, so agreement between
the two on every small valid instance is meaningful evidence.
"""

from __future__ import annotations

import sys

from .core import Partition, ProblemInstance

DEFAULT_CAP = 30
# frames kept free below the recursion limit for the search's own calls
_DEPTH_MARGIN = 20


class CapExceededError(ValueError):
    """The instance is larger than the configured brute-force cap."""


def _free_stack_depth() -> int:
    """Frames left before the interpreter's recursion limit is reached."""
    used, frame = 0, sys._getframe()
    while frame is not None:
        used += 1
        frame = frame.f_back
    return sys.getrecursionlimit() - used


def brute_force_partition(instance: ProblemInstance, cap: int = DEFAULT_CAP) -> Partition | None:
    """Find any valid partition by backtracking, or None if none exists.

    Elements are placed in descending order into the first set with enough
    remaining capacity; sets with identical remaining capacity are tried
    only once per element (this also pins element n to set 1).  For valid
    instances a partition always exists, so None signals a bug upstream.
    Raises CapExceededError when n exceeds ``cap`` or the depth the
    recursive search can reach below the interpreter's recursion limit.
    """
    if instance.n > cap:
        raise CapExceededError(f"n={instance.n} exceeds brute-force cap {cap}")
    # the search recurses once per element, on top of the caller's frames
    depth = _free_stack_depth() - _DEPTH_MARGIN
    if instance.n > depth:
        raise CapExceededError(f"n={instance.n} exceeds the reachable search depth {depth}")
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

