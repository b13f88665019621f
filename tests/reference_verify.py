"""Frozen reference: ``equipart verify`` as it was when it loaded the whole file.

``cmd_verify`` is the body of ``equipart.cli._cmd_verify``, and
``verify_partition`` that of ``equipart.core.verify_partition``, copied
unchanged from the library before ``verify`` streamed a file in the layout
``solve --format json`` writes; it still calls the library's ``_diagnose``,
which the core tests compare with ``reference_core``. ``main`` reports what ``equipart.cli.main``
made of them: an invalid instance as ``error: ...``, exit 1. The CLI tests
check that the library prints the same and exits with the same code on
every file they try. Do not edit it to follow later changes of the library.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Sequence

from equipart.core import (
    InstanceError,
    Partition,
    ProblemInstance,
    VerificationReport,
    WrongArityError,
    _diagnose,
    validate_instance,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2


def verify_partition(
    instance: ProblemInstance, candidate: Partition | Sequence[Sequence[int]]
) -> VerificationReport:
    """Check a candidate against the three partition conditions.

    Raises TypeError if an element is not an ``int`` (``bool`` and
    ``float`` are rejected too), before WrongArityError for a wrong number
    of sets. A candidate of exactly ``n`` elements whose sets each sum to
    ``t``, with ``k * t = n(n+1)/2``, is checked in a table of ``n + 1``
    bytes, about ``n`` bytes beyond the candidate: it is a partition iff
    its elements mark every cell ``1..n``, since the sums leave no room for
    a negative element that aliases a cell. Any other candidate, and one
    the table rejects, gets a pass that pins down the first offending set
    and element: in a fresh table if it holds at least ``n`` elements,
    else in a set of what it holds, never sized by a larger claimed ``n``.
    """
    sets = candidate.sets if isinstance(candidate, Partition) else candidate
    element_types = set(map(type, chain.from_iterable(sets)))
    if not element_types <= {int}:
        names = ", ".join(sorted(cls.__name__ for cls in element_types - {int}))
        raise TypeError(f"partition elements must be int, got {names}")
    if len(sets) != instance.k:
        raise WrongArityError(f"expected {instance.k} subsets, got {len(sets)}")
    n, t = instance.n, instance.t
    if instance.k * t == instance.total and sum(map(len, sets)) == n and set(map(sum, sets)) <= {t}:
        # n elements that mark all n cells 1..n are pairwise distinct, so each
        # sits in its own cell. An element above n, or below -(n + 1), raises
        # IndexError; one in -(n + 1)..-1 marks cell x + n + 1, so m such
        # elements would leave the total m * (n + 1) short of n(n+1)/2, which
        # the sums (k sets of t, and k * t = n(n+1)/2) exclude. So the
        # elements are exactly 1..n.
        seen = bytearray(n + 1)
        try:
            for members in sets:
                for x in members:
                    seen[x] = 1
        except IndexError:
            pass
        else:
            if seen.find(0, 1) == -1:
                return VerificationReport(True, True, True, None)
        del seen  # _diagnose marks a fresh table; do not hold two
    return _diagnose(n, t, sets)


def cmd_verify(path: str) -> int:
    import json  # only verify reads JSON: off the import path of every other command

    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise TypeError("top-level JSON value must be an object")
        n, k, t, sets = payload["n"], payload["k"], payload["t"], payload["sets"]
        if not isinstance(sets, list) or not set(map(type, sets)) <= {list}:
            raise TypeError('"sets" must be a list of lists')
        instance = validate_instance(n, k, t)  # TypeError on a non-int n, k or t
        report = verify_partition(instance, sets)  # TypeError on a non-int element
    except WrongArityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except InstanceError:
        raise  # main reports an invalid instance as "error: ..."
    except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
        # ValueError: not UTF-8, not JSON, or an integer too long to convert
        print(f"malformed partition file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if report.ok:
        print(f"ok: valid partition of 1..{n} into {k} sets of sum {t}")
        return EXIT_OK
    print(f"verification failed: {report.first_violation}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def main(path: str) -> int:
    """``cmd_verify`` with the report of ``equipart.cli.main`` for what it raises."""
    try:
        return cmd_verify(path)
    except ValueError as exc:  # an invalid instance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
