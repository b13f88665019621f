"""Frozen reference: the trace property checks P1-P6 as they were on the
per-step trace, one symbol per step.

``check_trace_properties`` is copied unchanged from the library as it was
before the run-length Trace; it reads only ``trace.symbols`` and
``trace.per_step``, which the run-length Trace derives. The trace tests
check that the run-length checks give the same names, verdicts and details.
Do not edit it to follow later changes of the library.
"""

from __future__ import annotations

import math

from equipart.core import ProblemInstance
from equipart.trace import PropertyCheck, Trace, TracePropertyReport, TraceSymbol


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
