"""Per-set oracle: set j of any level as a few arithmetic progressions.

The oracle reads each set straight off ``plan``, one level at a time, and
shares nothing else with the solver: the meander and an s-run give column j,
two progressions of stride 2k, and ge/go give a finished pair or map j to
one or two child sets. ``compose_window`` must build each single-set window
exactly as the oracle states it, and ``meander_columns`` each chunk of a
top column exactly as the oracle's column restricted to the chunk's
blocks. ``set_parts`` must cut each set into ascending parts that join to
it.
"""

import random
from itertools import chain

import pytest

from equipart.core import N_MAX, enumerate_instances, validate_instance
from equipart.solver import compose_window, meander_columns, plan, set_parts
from equipart.trace import TraceSymbol


def progressions(trace, j, level=0):
    """Set j of the trace's level ``level`` as a list of ranges that together
    hold its elements."""
    case, _ = trace.runs[level]
    n, k, t = trace.openings[level]
    two_k = 2 * k
    if case is TraceSymbol.MEANDER or case is TraceSymbol.SMALLER:
        # column j over low..n: the j-th value of every block of 2k and the
        # j-th from its end; the odd meander starts at 0, which is dropped
        low = trace.openings[level + 1].n + 1 if case is TraceSymbol.SMALLER else 1 - n % 2
        column = [range(low + j or two_k, n + 1, two_k), range(low + two_k - 1 - j, n + 1, two_k)]
        return column if case is TraceSymbol.MEANDER else progressions(trace, j, level + 1) + column
    filled = (2 * n - t + 1) // 2
    if j < filled:  # the finished pair of sum t
        return [range(t - n + j, t - n + j + 1), range(n - j, n - j + 1)]
    if case is TraceSymbol.GREATER_ODD:
        return progressions(trace, j - filled, level + 1)
    if j == filled:  # t/2 and child set 0
        return progressions(trace, 0, level + 1) + [range(t // 2, t // 2 + 1)]
    c = 2 * (j - filled)
    return progressions(trace, c - 1, level + 1) + progressions(trace, c, level + 1)


def closed_form(ranges):
    """The number and the sum of the elements of the ranges, without listing them."""
    return sum(map(len, ranges)), sum((r[0] + r[-1]) * len(r) // 2 for r in ranges if r)


def composed_set(trace, j):
    sets, size = compose_window(trace, j, j + 1)
    assert len(sets) == 1 and len(sets[0]) == size
    return sets[0]


@pytest.fixture(scope="module")
def every_set_up_to_400():
    """Every instance with n <= 400, its plan and each of its sets composed
    as a window of its own, composed once for both tests that read them."""
    instances = []
    for n in range(1, 401):
        for k, t in enumerate_instances(n):
            trace = plan(validate_instance(n, k, t))
            instances.append(((n, k, t), trace, [composed_set(trace, j) for j in range(k)]))
    return instances


def test_every_set_up_to_400_is_its_progressions(every_set_up_to_400):
    checked = 0
    for (n, k, t), trace, sets in every_set_up_to_400:
        for j, composed in enumerate(sets):
            want = sorted(chain.from_iterable(progressions(trace, j)))
            assert list(composed) == want, (n, k, t, j)
            checked += 1
    assert checked == 128035


def test_set_parts_join_to_every_set_up_to_400(every_set_up_to_400):
    # every part ascends from above the last one, a part after the first holds
    # at most one chunk of max(1, size // 2) blocks, two values each, and a ge
    # or go top yields its set whole
    for (n, k, t), trace, sets in every_set_up_to_400:
        whole = trace.runs[0][0] in (TraceSymbol.GREATER_EVEN, TraceSymbol.GREATER_ODD)
        for j, want in enumerate(sets):
            for size in (1, 2, 3, 17):
                parts = list(set_parts(trace, j, size))
                assert all(a[-1] < b[0] for a, b in zip(parts, parts[1:])), (n, k, j, size)
                assert all(list(part) == sorted(set(part)) for part in parts), (n, k, j, size)
                assert tuple(chain.from_iterable(parts)) == want, (n, k, j, size)
                assert all(len(part) <= 2 * max(1, size // 2) for part in parts[1:]), (n, k, j, size)
                assert parts and (len(parts) == 1 or not whole), (n, k, j, size)


def within(r, low, high):
    """The elements of the ascending range r in low..high-1, as a range."""
    return r[max(0, (low - r.start + r.step - 1) // r.step) : max(0, (high - r.start + r.step - 1) // r.step)]


# a set of at most this many elements is composed and compared element by
# element; a larger one is checked in closed form (its elements lie in 1..n,
# and there are at most n of them, summing to t), and its top column, as
# the CLI writes it, by its first, last and one seeded chunk of CHUNK blocks
LISTED = 10**4
CHUNK = 2**13


@pytest.mark.parametrize("seed", range(4))
def test_sampled_sets_near_n_max_are_their_progressions(seed):
    rng, chunk_rng = random.Random(seed), random.Random(-1 - seed)
    listed = summed = 0
    for _ in range(8):
        n = N_MAX - rng.randrange(10**6)
        for k, t in enumerate_instances(n):
            trace = plan(validate_instance(n, k, t))
            for j in {0, k - 1, rng.randrange(k), rng.randrange(k)}:
                ranges = progressions(trace, j)
                size, total = closed_form(ranges)
                assert total == t, (n, k, t, j)
                if size <= LISTED:
                    assert list(composed_set(trace, j)) == sorted(chain.from_iterable(ranges)), (n, k, t, j)
                    listed += 1
                else:
                    assert size <= n and min(r[0] for r in ranges if r) >= 1, (n, k, t, j)
                    assert max(r[-1] for r in ranges if r) <= n, (n, k, t, j)
                    case = trace.runs[0][0]
                    assert case in (TraceSymbol.SMALLER, TraceSymbol.MEANDER), (n, k, t, j)
                    low = trace.openings[1].n + 1 if case is TraceSymbol.SMALLER else 1 - n % 2
                    blocks = (n + 1 - low) // (2 * k)
                    for p in {0, (blocks - 1) // CHUNK * CHUNK, chunk_rng.randrange(blocks)}:
                        q = min(p + CHUNK, blocks)
                        chunk = chain.from_iterable(within(r, low + 2 * k * p, low + 2 * k * q) for r in ranges)
                        [column] = meander_columns(low + 2 * k * p, low + 2 * k * q - 1, k, j, j + 1)
                        column = column if column[0] else column[1:]  # the odd meander's 0
                        assert list(column) == sorted(chunk), (n, k, t, j, p)
                    summed += 1
    assert listed and summed
