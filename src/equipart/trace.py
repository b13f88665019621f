"""Recursion trace words: rendering, parsing and structural checks.

A solve emits one symbol per recursion step: ``s`` (pair-splitting step for
wide targets, t >= 2n), ``ge`` / ``go`` (top-range fill for narrow even /
odd targets, t < 2n) and a single terminal ``m`` (direct meander fill).

Canonical string grammar::

    trace := unit (" " unit)*
    unit  := sym | sym "^" int        # int >= 2, maximal runs only
    sym   := "m" | "s" | "ge" | "go"

Rendering compresses every maximal run of length >= 2; parsing also
accepts uncompressed repeats such as ``"s s go m"``. A :class:`Trace` keeps
the word as runs of steps, one per level of the solver's plan.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import accumulate, chain, repeat
from operator import sub
from typing import Iterable, NamedTuple

from .core import ProblemInstance


class TraceSymbol(str, Enum):
    """Case label recorded for one recursion step."""

    MEANDER = "m"
    SMALLER = "s"
    GREATER_EVEN = "ge"
    GREATER_ODD = "go"


class TraceSyntaxError(ValueError):
    """A trace string does not match the canonical grammar."""


Runs = tuple[tuple[TraceSymbol, int], ...]


class _TraceFields(NamedTuple):  # a NamedTuple may not define __new__; Trace checks in its own
    runs: Runs
    openings: tuple[ProblemInstance, ...] | None = None


class Trace(_TraceFields):
    """The steps of one solve as runs, one ``(symbol, steps)`` per level of the
    plan, and the instance opening each run (None for a parsed trace)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # the inherited one skips __new__

    def __new__(cls, runs: Runs, openings: tuple[ProblemInstance, ...] | None = None) -> Trace:
        if not runs or any(steps < 1 for _, steps in runs):
            raise ValueError("a trace contains at least one symbol, and a run at least one step")
        if openings is not None and (
            len(openings) != len(runs)
            or any(steps > 1 for symbol, steps in runs if symbol is not TraceSymbol.SMALLER)
        ):
            raise ValueError("openings must open the runs, and only an s run spans several steps")
        return tuple.__new__(cls, (runs, openings))

    @property
    def symbols(self) -> tuple[TraceSymbol, ...]:
        """One symbol per step."""
        return tuple(chain.from_iterable(repeat(symbol, steps) for symbol, steps in self.runs))

    @property
    def per_step(self) -> tuple[ProblemInstance, ...] | None:
        """The instance at each step, or None without openings. Within an s run
        each step follows from the one before by t' = t - 2(n - k) - 1, never
        from k*t = n(n+1)/2, so a check of that identity stays independent."""
        if self.openings is None:
            return None
        return tuple(chain.from_iterable(map(_run_steps, self.runs, self.openings)))


def _run_steps(run: tuple[TraceSymbol, int], opening: ProblemInstance) -> Iterable[ProblemInstance]:
    """The instances of a run's steps. Along an s run n falls by 2k a step, and
    t by the step's pair sum 2(n - k) + 1, which falls by 4k a step."""
    (_, steps), (n, k, t) = run, opening
    if steps == 1:
        return (opening,)
    pair_sums = range(2 * (n - k) + 1, 2 * (n - k) + 1 - 4 * k * (steps - 1), -4 * k)
    targets = accumulate(pair_sums, sub, initial=t)
    sizes = range(n, n - 2 * k * steps, -2 * k)
    return map(tuple.__new__, repeat(ProblemInstance), zip(sizes, repeat(k), targets))


def _maximal_runs(runs: Runs) -> list[list]:
    """Adjacent runs of one symbol merged: [symbol, steps, first step, first run]."""
    merged: list[list] = []
    step = 0
    for index, (symbol, steps) in enumerate(runs):
        if merged and merged[-1][0] is symbol:
            merged[-1][1] += steps
        else:
            merged.append([symbol, steps, step, index])
        step += steps
    return merged


_SYMBOLS = {symbol.value: symbol for symbol in TraceSymbol}


def _step_counts(runs: Runs) -> dict[TraceSymbol, int]:
    """The number of steps of every symbol, zero for an absent one."""
    count = dict.fromkeys(_SYMBOLS.values(), 0)  # iterating the enum class is several times slower
    for symbol, steps in runs:
        count[symbol] += steps
    return count


def render_trace(trace: Trace) -> str:
    """Render the canonical compact string, e.g. ``"s^94 go m"``."""
    return " ".join(
        symbol.value if steps == 1 else f"{symbol.value}^{steps}"
        for symbol, steps, _, _ in _maximal_runs(trace.runs)
    )


def parse_trace(text: str) -> Trace:
    """Parse a trace string into maximal runs; inverse of :func:`render_trace`."""
    tokens = text.split()
    if not tokens:
        raise TraceSyntaxError("empty trace")
    runs: list[tuple[TraceSymbol, int]] = []
    for token in tokens:
        name, caret, exponent = token.partition("^")
        symbol = _SYMBOLS.get(name)
        if symbol is None:
            raise TraceSyntaxError(f"unknown symbol {name!r}")
        count = 1
        if caret:
            try:
                if not (exponent.isascii() and exponent.isdigit()):  # isdigit alone takes "²", "١"
                    raise ValueError
                count = int(exponent)  # ValueError past the 4300 digits int() converts
            except ValueError:
                raise TraceSyntaxError(f"malformed run length in {token!r}") from None
            if count < 2:
                raise TraceSyntaxError(f"run length must be at least 2, got {token!r}")
        if runs and runs[-1][0] is symbol:
            count += runs.pop()[1]
        runs.append((symbol, count))
    return Trace(tuple(runs))


class PropertyCheck(NamedTuple):
    """One structural property; passed is None when inputs were missing."""

    name: str
    passed: bool | None
    detail: str = ""


class TracePropertyReport(NamedTuple):
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed is not False for check in self.checks)

    @property
    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(check for check in self.checks if check.passed is False)


def check_trace_properties(
    trace: Trace, instance: ProblemInstance | None = None
) -> TracePropertyReport:
    """Evaluate the six structural trace properties.

    P1  the meander label occurs exactly once, in final position
    P2  with length >= 2, the symbol before the final one is ge or go
    P3  every go is immediately followed by s or by the terminal m
    P4  dropping the final symbol, #s >= #go - 1, with the deficit of one
        allowed only when that head itself ends in go (each go except a
        final one directly feeding the meander call is followed by an s)
    P5  #ge <= log2(t) of the original instance      [needs instance]
    P6  a maximal s-run of length L starting at instance (nu, kappa)
        satisfies 2 * kappa * L <= nu                [needs openings]
    """
    runs = trace.runs
    m, s = TraceSymbol.MEANDER, TraceSymbol.SMALLER
    ge, go = TraceSymbol.GREATER_EVEN, TraceSymbol.GREATER_ODD
    count = _step_counts(runs)
    last = runs[-1][0]
    # the symbol of the last step but one, None for a one-step trace
    before_last = last if runs[-1][1] > 1 else runs[-2][0] if len(runs) > 1 else None
    maximal = _maximal_runs(runs)

    p1 = last is m and count[m] == 1
    p2 = before_last in (None, ge, go)
    bad_go = None  # a go run of two or more steps fails at its first step
    for i, (symbol, steps, step, _) in enumerate(maximal):
        after = maximal[i + 1][0] if i + 1 < len(maximal) else None
        if symbol is go and (steps > 1 or after not in (s, m)):
            bad_go = step
            break
    # the head is every step but the last
    s_count, go_count = count[s] - (last is s), count[go] - (last is go)
    p4 = s_count >= go_count - (before_last is go)
    checks = [
        PropertyCheck(
            "P1 terminal meander", p1, "" if p1 else f"m count {count[m]}, last symbol {last.value}"
        ),
        PropertyCheck(
            "P2 pre-terminal symbol", p2, "" if p2 else f"symbol before m is {before_last.value}"
        ),
        PropertyCheck(
            "P3 go continuation",
            bad_go is None,
            "" if bad_go is None else f"go at step {bad_go} not followed by s or m",
        ),
        PropertyCheck("P4 s/go balance", p4, "" if p4 else f"{s_count} s vs {go_count} go in head"),
    ]

    if instance is None:
        checks.append(PropertyCheck("P5 ge budget", None, "instance not given"))
    else:
        budget = math.log2(instance.t)
        p5 = count[ge] <= budget
        detail = "" if p5 else f"{count[ge]} ge exceeds log2(t) = {budget:.4f}"
        checks.append(PropertyCheck("P5 ge budget", p5, detail))

    if trace.openings is None:
        checks.append(PropertyCheck("P6 s-run ceiling", None, "per-step instances not recorded"))
    else:
        detail = ""
        for symbol, steps, step, index in maximal:
            nu, two_kappa = trace.openings[index].n, 2 * trace.openings[index].k
            if symbol is s and two_kappa * steps > nu:
                detail = f"s-run of length {steps} at step {step} exceeds n/2k = {nu}/{two_kappa}"
                break
        checks.append(PropertyCheck("P6 s-run ceiling", not detail, detail))

    return TracePropertyReport(tuple(checks))
