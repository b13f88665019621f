"""Frozen reference: the verifier's diagnosis pass as it was when it kept a
set of every element it saw.

``diagnose`` is ``equipart.core._diagnose`` copied unchanged from the
library before the diagnosis marked a byte table for candidates of at
least ``n`` elements. The core tests check that the library gives the same
report, ``first_violation`` included. Do not edit it to follow later
changes of the library.
"""

from __future__ import annotations

from typing import Sequence

from equipart.core import VerificationReport


def diagnose(n: int, t: int, sets: Sequence[Sequence[int]]) -> VerificationReport:
    """Slow element-by-element pass, run only when the fast pass failed."""
    seen: set[int] = set()  # sized by the file, not by its claimed n
    disjoint = covers = sums_ok = True
    first: str | None = None
    for index, members in enumerate(sets, start=1):
        for x in members:
            if x < 1 or x > n:
                covers = False
                if first is None:
                    first = f"set {index}: element {x} outside 1..{n}"
            elif x in seen:
                disjoint = False
                if first is None:
                    first = f"set {index}: element {x} assigned more than once"
            else:
                seen.add(x)
        set_sum = sum(members)
        if set_sum != t:
            sums_ok = False
            if first is None:
                first = f"set {index}: sum {set_sum} != {t}"
    if len(seen) < n and covers:
        covers = False
    if first is None and not covers:
        missing = next(x for x in range(1, n + 1) if x not in seen)
        first = f"element {missing} missing"
    return VerificationReport(disjoint, covers, sums_ok, first)
