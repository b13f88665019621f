"""Recursion trace words: rendering, parsing and structural checks.

A solve emits one symbol per recursion step: ``s`` (pair-splitting step for
wide targets, t >= 2n), ``ge`` / ``go`` (top-range fill for narrow even /
odd targets, t < 2n) and a single terminal ``m`` (direct meander fill).

Canonical string grammar::

    trace := unit (" " unit)*
    unit  := sym | sym "^" int        # int >= 2, maximal runs only
    sym   := "m" | "s" | "ge" | "go"

Rendering compresses every maximal run of length >= 2; parsing also
accepts uncompressed repeats such as ``"s s go m"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby

from .core import ProblemInstance


class TraceSymbol(str, Enum):
    """Case label recorded for one recursion step."""

    MEANDER = "m"
    SMALLER = "s"
    GREATER_EVEN = "ge"
    GREATER_ODD = "go"


class TraceSyntaxError(ValueError):
    """A trace string does not match the canonical grammar."""


@dataclass(frozen=True)
class Trace:
    """Symbol sequence of one solve, optionally with the instance that was
    active at each step (required for the run-length ceiling check)."""

    symbols: tuple[TraceSymbol, ...]
    per_step: tuple[ProblemInstance, ...] | None = None

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("a trace contains at least one symbol")
        if self.per_step is not None and len(self.per_step) != len(self.symbols):
            raise ValueError("per_step must align with symbols")


def render_trace(trace: Trace) -> str:
    """Render the canonical compact string, e.g. ``"s^94 go m"``."""
    parts = []
    for symbol, run in groupby(trace.symbols):
        count = sum(1 for _ in run)
        parts.append(symbol.value if count == 1 else f"{symbol.value}^{count}")
    return " ".join(parts)


_SYMBOLS = {symbol.value: symbol for symbol in TraceSymbol}


def parse_trace(text: str) -> Trace:
    """Parse a trace string; inverse of :func:`render_trace`."""
    tokens = text.split()
    if not tokens:
        raise TraceSyntaxError("empty trace")
    symbols: list[TraceSymbol] = []
    for token in tokens:
        name, caret, exponent = token.partition("^")
        symbol = _SYMBOLS.get(name)
        if symbol is None:
            raise TraceSyntaxError(f"unknown symbol {name!r}")
        if not caret:
            symbols.append(symbol)
            continue
        if not (exponent.isascii() and exponent.isdigit()):  # isdigit alone takes "²", "١"
            raise TraceSyntaxError(f"malformed run length in {token!r}")
        count = int(exponent)
        if count < 2:
            raise TraceSyntaxError(f"run length must be at least 2, got {token!r}")
        symbols.extend([symbol] * count)
    return Trace(tuple(symbols))


@dataclass(frozen=True)
class PropertyCheck:
    """One structural property; passed is None when inputs were missing."""

    name: str
    passed: bool | None
    detail: str = ""


@dataclass(frozen=True)
class TracePropertyReport:
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
        satisfies 2 * kappa * L <= nu                [needs per_step]
    """
    syms = trace.symbols
    m, s, ge, go = (
        TraceSymbol.MEANDER,
        TraceSymbol.SMALLER,
        TraceSymbol.GREATER_EVEN,
        TraceSymbol.GREATER_ODD,
    )
    checks: list[PropertyCheck] = []

    p1 = syms[-1] is m and syms.count(m) == 1
    checks.append(
        PropertyCheck(
            "P1 terminal meander",
            p1,
            "" if p1 else f"m count {syms.count(m)}, last symbol {syms[-1].value}",
        )
    )

    p2 = len(syms) < 2 or syms[-2] in (ge, go)
    checks.append(
        PropertyCheck(
            "P2 pre-terminal symbol",
            p2,
            "" if p2 else f"symbol before m is {syms[-2].value}",
        )
    )

    bad_go = next(
        (
            i
            for i, sym in enumerate(syms)
            if sym is go and (i + 1 >= len(syms) or syms[i + 1] not in (s, m))
        ),
        None,
    )
    checks.append(
        PropertyCheck(
            "P3 go continuation",
            bad_go is None,
            "" if bad_go is None else f"go at step {bad_go} not followed by s or m",
        )
    )

    head = syms[:-1]
    slack = 1 if head and head[-1] is go else 0
    s_count, go_count = head.count(s), head.count(go)
    p4 = s_count >= go_count - slack
    checks.append(
        PropertyCheck(
            "P4 s/go balance",
            p4,
            "" if p4 else f"{s_count} s vs {go_count} go in head",
        )
    )

    if instance is None:
        checks.append(PropertyCheck("P5 ge budget", None, "instance not given"))
    else:
        ge_count = syms.count(ge)
        budget = math.log2(instance.t)
        p5 = ge_count <= budget
        checks.append(
            PropertyCheck(
                "P5 ge budget",
                p5,
                "" if p5 else f"{ge_count} ge exceeds log2(t) = {budget:.4f}",
            )
        )

    if trace.per_step is None:
        checks.append(PropertyCheck("P6 s-run ceiling", None, "per-step instances not recorded"))
    else:
        p6: bool | None = True
        detail = ""
        i = 0
        while i < len(syms):
            if syms[i] is not s:
                i += 1
                continue
            j = i
            while j < len(syms) and syms[j] is s:
                j += 1
            length = j - i
            opening = trace.per_step[i]
            if 2 * opening.k * length > opening.n:
                p6 = False
                detail = (
                    f"s-run of length {length} at step {i} exceeds "
                    f"n/2k = {opening.n}/{2 * opening.k}"
                )
                break
            i = j
        checks.append(PropertyCheck("P6 s-run ceiling", p6, detail))

    return TracePropertyReport(tuple(checks))
