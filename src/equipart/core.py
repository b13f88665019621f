"""Domain model for equal-sum partitions of the integer set {1..n}.

An instance ``(n, k, t)`` asks for ``k`` pairwise disjoint subsets of
``{1, ..., n}`` whose union is the whole set and whose elements sum to
``t`` in every subset.  Valid instances are exactly the triples with
``t >= n`` and ``k * t`` equal to the triangular number ``n(n+1)/2``;
every valid instance admits a solution.

All functions here are pure and operate on immutable values, so they are
safe to call concurrently without locking.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple, Sequence

# Width contract: n is capped so the triangular number (< 2**62) and every
# intermediate product stay inside signed 64-bit range.
N_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1


class InstanceError(ValueError):
    """A problem instance violates the input contract."""


class NonPositiveError(InstanceError):
    """An input that must be a positive integer is zero or negative."""


class WidthOverflowError(InstanceError):
    """An input exceeds the supported 64-bit arithmetic range."""


class TargetTooSmallError(InstanceError):
    """The target sum t is smaller than the largest element n."""


class SumMismatchError(InstanceError):
    """k * t does not equal the triangular number of n."""


class WrongArityError(ValueError):
    """A candidate partition does not have exactly k subsets."""


class PreconditionError(ValueError):
    """An operation was invoked outside its declared precondition."""


class InvariantError(RuntimeError):
    """An internal invariant failed; this always signals a bug."""


class ProblemInstance(NamedTuple):
    """A triple (n, k, t).  Build through :func:`validate_instance`."""

    n: int
    k: int
    t: int

    @property
    def total(self) -> int:
        """Sum of all elements of {1..n}."""
        return self.n * (self.n + 1) // 2


class Partition(NamedTuple):
    """k subsets of {1..n} in construction order, each stored ascending."""

    instance: ProblemInstance
    sets: tuple[tuple[int, ...], ...]


class VerificationReport(NamedTuple):
    """Outcome of checking disjointness, coverage and per-set sums."""

    disjoint: bool
    covers: bool
    sums_ok: bool
    first_violation: str | None = None

    @property
    def ok(self) -> bool:
        return self.disjoint and self.covers and self.sums_ok


def triangular(n: int) -> int:
    """Return 1 + 2 + ... + n, rejecting inputs outside the width contract."""
    if n < 1:
        raise NonPositiveError(f"n must be positive, got {n}")
    if n > N_MAX:
        raise WidthOverflowError(f"n={n} exceeds supported maximum {N_MAX}")
    return n * (n + 1) // 2


def validate_instance(n: int, k: int, t: int) -> ProblemInstance:
    """Check the full input contract and return the validated instance.

    Raises TypeError unless n, k and t are all ``int`` (``bool`` and
    ``float`` are rejected too), then NonPositiveError, WidthOverflowError,
    TargetTooSmallError or SumMismatchError, in that order of precedence.
    """
    if not (type(n) is int and type(k) is int and type(t) is int):
        names = ", ".join(type(value).__name__ for value in (n, k, t))
        raise TypeError(f"n, k, t must be int, got ({names})")
    if n < 1 or k < 1 or t < 1:
        raise NonPositiveError(f"all of n, k, t must be positive, got ({n}, {k}, {t})")
    if n > N_MAX:
        raise WidthOverflowError(f"n={n} exceeds supported maximum {N_MAX}")
    if k > INT64_MAX or t > INT64_MAX:
        raise WidthOverflowError("k and t must fit in 64-bit range")
    if t < n:
        raise TargetTooSmallError(f"target t={t} is smaller than n={n}")
    delta = n * (n + 1) // 2
    if k * t != delta:
        raise SumMismatchError(f"k*t = {k * t} does not equal 1+...+{n} = {delta}")
    return tuple.__new__(ProblemInstance, (n, k, t))  # skips a Python-level __new__


def _diagnose(n: int, t: int, sets: Sequence[Sequence[int]]) -> VerificationReport:
    """Slow element-by-element pass, run only when the fast pass failed.

    A candidate of at least ``n`` elements marks a table of ``n + 1``
    bytes, no larger than the candidate; a smaller one keeps a set of its
    elements, sized by the file, not by its claimed ``n``.
    """
    table = sum(map(len, sets)) >= n
    seen: bytearray | set[int] = bytearray(n + 1) if table else set()
    marked = 0
    disjoint = covers = sums_ok = True
    first: str | None = None
    for index, members in enumerate(sets, start=1):
        for x in members:
            if x < 1 or x > n:
                covers = False
                if first is None:
                    first = f"set {index}: element {x} outside 1..{n}"
            elif seen[x] if table else x in seen:
                disjoint = False
                if first is None:
                    first = f"set {index}: element {x} assigned more than once"
            else:
                if table:
                    seen[x] = 1
                else:
                    seen.add(x)
                marked += 1
        set_sum = sum(members)
        if set_sum != t:
            sums_ok = False
            if first is None:
                first = f"set {index}: sum {set_sum} != {t}"
    if marked < n and covers:
        covers = False
    if first is None and not covers:
        # every element is distinct and in 1..n, so a table (at least n of
        # them) covers it: only a set gets here
        missing = next(x for x in range(1, n + 1) if x not in seen)
        first = f"element {missing} missing"
    return VerificationReport(disjoint, covers, sums_ok, first)


def table_accepts(instance: ProblemInstance, runs: Iterable[Sequence[Sequence[int]]]) -> bool:
    """The loop of ``cli``'s verify stream, for sets read in runs: the runs
    hold ``k`` sets and ``n`` elements in all, every set sums to ``t``,
    ``k * t = n(n+1)/2``, and the elements mark every cell ``1..n`` of a
    table of ``n + 1`` bytes. The caller proves the elements are integers,
    and bounds that table by what it holds or reads. False for any other
    sets; an integer in place of a set raises TypeError instead.
    :func:`verify_partition` applies the same rule in its own loop.
    """
    n, k, t = instance
    if k * t != instance.total:
        return False
    # n elements that mark all n cells 1..n are pairwise distinct, so each
    # sits in its own cell. An element above n, or below -(n + 1), raises
    # IndexError; one in -(n + 1)..-1 marks cell x + n + 1, so m such
    # elements would leave the total m * (n + 1) short of n(n+1)/2, which
    # the sums (k sets of t, and k * t = n(n+1)/2) exclude. So the
    # elements are exactly 1..n.
    seen = bytearray(n + 1)
    sets_read = elements = 0
    try:
        for sets in runs:
            sets_read += len(sets)
            elements += sum(map(len, sets))
            if not set(map(sum, sets)) <= {t}:
                return False
            for members in sets:
                for x in members:
                    seen[x] = 1
    except IndexError:
        return False
    return sets_read == k and elements == n and seen.find(0, 1) == -1


def verify_partition(
    instance: ProblemInstance, candidate: Partition | Sequence[Sequence[int]]
) -> VerificationReport:
    """Check a candidate against the three partition conditions.

    A candidate of ``k`` sets and exactly ``n`` elements whose sets each sum
    to ``t``, with ``k * t = n(n+1)/2``, is first checked in one pass over
    its elements, in a table of ``n + 1`` bytes, about ``n`` bytes beyond
    the candidate: it is a partition iff its elements are all ``int`` and
    mark every cell ``1..n`` (the rule of :func:`table_accepts`). Only a
    candidate that pass does not accept gets the rest, in this order: a
    TypeError if an element is not an ``int`` (``bool`` and ``float`` are
    rejected too), then WrongArityError for a wrong number of sets, then a
    pass that pins down the first offending set and element: in a fresh
    table if it holds at least ``n`` elements, else in a set of what it
    holds, never sized by a larger claimed ``n``.
    """
    sets = candidate.sets if isinstance(candidate, Partition) else candidate
    n, k, t = instance
    try:
        if len(sets) == k and k * t == instance.total and sum(map(len, sets)) == n and set(map(sum, sets)) <= {t}:
            # table_accepts' argument, with a cell marked only by an exact
            # int: a bool or an int subclass leaves its cell 0, so n elements
            # cannot cover 1..n, and a float raises TypeError at the index
            seen = bytearray(n + 1)
            for members in sets:
                for x in members:
                    seen[x] = type(x) is int
            if seen.find(0, 1) == -1:
                return VerificationReport(True, True, True, None)
    except (ArithmeticError, IndexError, TypeError):
        pass  # the path below names the element or the type (a Decimal sum may raise)
    seen = None  # a rejection holds one table, the diagnosis's
    element_types = set(map(type, chain.from_iterable(sets)))
    if not element_types <= {int}:
        names = ", ".join(sorted(cls.__name__ for cls in element_types - {int}))
        raise TypeError(f"partition elements must be int, got {names}")
    if len(sets) != k:
        raise WrongArityError(f"expected {k} subsets, got {len(sets)}")
    return _diagnose(n, t, sets)


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division; m fits the width contract."""
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _divisors(factors: dict[int, int]) -> Iterable[int]:
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return divisors


def enumerate_instances(n: int) -> list[tuple[int, int]]:
    """All pairs (k, t) with k * t = triangular(n) and t >= n, ascending in k.

    Factors n and n + 1 separately, so trial division never walks past
    sqrt(n + 1) even though the triangular number itself is near n**2 / 2.
    The trivial k = 1 single-set instance is included.
    """
    delta = triangular(n)
    factors = _factorize(n)
    for p, e in _factorize(n + 1).items():
        factors[p] = factors.get(p, 0) + e
    factors[2] -= 1  # exactly one of n, n+1 is even
    if factors[2] == 0:
        del factors[2]
    pairs = [(k, delta // k) for k in _divisors(factors) if k * n <= delta]
    pairs.sort()
    return pairs
