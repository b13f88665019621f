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

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

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


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    """A triple (n, k, t).  Build through :func:`validate_instance`."""

    n: int
    k: int
    t: int

    @property
    def total(self) -> int:
        """Sum of all elements of {1..n}."""
        return self.n * (self.n + 1) // 2


@dataclass(frozen=True)
class Partition:
    """k subsets of {1..n} in construction order, each stored ascending."""

    instance: ProblemInstance
    sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VerificationReport:
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

    Raises NonPositiveError, WidthOverflowError, TargetTooSmallError or
    SumMismatchError, in that order of precedence.
    """
    if n < 1 or k < 1 or t < 1:
        raise NonPositiveError(f"all of n, k, t must be positive, got ({n}, {k}, {t})")
    if n > N_MAX:
        raise WidthOverflowError(f"n={n} exceeds supported maximum {N_MAX}")
    if k > INT64_MAX or t > INT64_MAX:
        raise WidthOverflowError("k and t must fit in 64-bit range")
    if t < n:
        raise TargetTooSmallError(f"target t={t} is smaller than n={n}")
    delta = triangular(n)
    if k * t != delta:
        raise SumMismatchError(f"k*t = {k * t} does not equal 1+...+{n} = {delta}")
    return ProblemInstance(n, k, t)


def _candidate_sets(candidate: Partition | Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    if isinstance(candidate, Partition):
        return candidate.sets
    return candidate


def _diagnose(n: int, t: int, sets: Sequence[Sequence[int]]) -> VerificationReport:
    """Slow element-by-element pass, run only when the fast pass failed."""
    seen = bytearray(n + 1)
    disjoint = covers = sums_ok = True
    first: str | None = None
    placed = 0
    for index, members in enumerate(sets, start=1):
        for x in members:
            if x < 1 or x > n:
                covers = False
                if first is None:
                    first = f"set {index}: element {x} outside 1..{n}"
            elif seen[x]:
                disjoint = False
                if first is None:
                    first = f"set {index}: element {x} assigned more than once"
            else:
                seen[x] = 1
                placed += 1
        set_sum = sum(members)
        if set_sum != t:
            sums_ok = False
            if first is None:
                first = f"set {index}: sum {set_sum} != {t}"
    if placed < n and covers:
        covers = False
    if first is None and not covers:
        missing = next(x for x in range(1, n + 1) if not seen[x])
        first = f"element {missing} missing"
    return VerificationReport(disjoint, covers, sums_ok, first)


def verify_partition(
    instance: ProblemInstance, candidate: Partition | Sequence[Sequence[int]]
) -> VerificationReport:
    """Check a candidate against the three partition conditions.

    The happy path is O(n) bulk work; a violating candidate triggers a
    second pass that pins down the first offending set and element. Raises
    TypeError if an element is not an ``int`` (``bool`` and ``float`` are
    rejected too), before WrongArityError for a wrong number of sets.
    """
    sets = _candidate_sets(candidate)
    element_types = set(map(type, chain.from_iterable(sets)))
    if not element_types <= {int}:
        names = ", ".join(sorted(cls.__name__ for cls in element_types - {int}))
        raise TypeError(f"partition elements must be int, got {names}")
    if len(sets) != instance.k:
        raise WrongArityError(f"expected {instance.k} subsets, got {len(sets)}")
    n, t = instance.n, instance.t
    total_len = sum(map(len, sets))
    union = set().union(*sets) if sets else set()
    disjoint = len(union) == total_len
    covers = len(union) == n and (n == 0 or (min(union) == 1 and max(union) == n))
    sums_ok = set(map(sum, sets)) <= {t}
    if disjoint and covers and sums_ok:
        return VerificationReport(True, True, True, None)
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
