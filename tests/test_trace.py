from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_trace
from equipart.core import ProblemInstance, enumerate_instances, validate_instance
from equipart.solver import plan, solve
from equipart.trace import (
    Trace,
    TraceSymbol,
    TraceSyntaxError,
    check_trace_properties,
    parse_trace,
    render_trace,
)

M, S, GE, GO = TraceSymbol.MEANDER, TraceSymbol.SMALLER, TraceSymbol.GREATER_EVEN, TraceSymbol.GREATER_ODD


def per_symbol(symbols):
    """A trace of one run per step, so no two adjacent runs are merged."""
    return Trace(tuple((symbol, 1) for symbol in symbols))


# --- rendering ------------------------------------------------------------


@pytest.mark.parametrize(
    "symbols,expected",
    [
        ((M,), "m"),
        ((S,) * 94 + (GO, M), "s^94 go m"),
        ((GE, S, S, S, GE, GE, GE, GE, GO, M), "ge s^3 ge^4 go m"),
        ((S, S, GO, M), "s^2 go m"),
        ((GO, M), "go m"),
    ],
)
def test_render_trace(symbols, expected):
    assert render_trace(per_symbol(symbols)) == expected
    assert render_trace(parse_trace(expected)) == expected


# --- parsing --------------------------------------------------------------


def test_parse_trace_basic():
    assert parse_trace("m").symbols == (M,)
    assert parse_trace("s^2 go m").symbols == (S, S, GO, M)
    # uncompressed repeats are accepted on input
    assert parse_trace("s s go m").symbols == (S, S, GO, M)
    assert parse_trace("  ge^3   go m ").symbols == (GE, GE, GE, GO, M)
    # into maximal runs, without openings
    assert parse_trace("s s^2 go m").runs == ((S, 3), (GO, 1), (M, 1))
    assert parse_trace("ge^2 ge m").openings is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "s^0 m",
        "s^1 m",
        "s^-2 m",
        "s^ m",
        "s^x m",
        "^2",
        "ss go m",
        "S m",
        "q",
        "m^",
        "go^2^2 m",
        "s^\u00b2 m",  # superscript two: isdigit() but not int()-able
        "s^\u0661\u0662 go m",  # Arabic-Indic 12: int() would read it as 12
        pytest.param("s^" + "9" * 5000 + " m", id="s^9...9 m"),  # more digits than int() converts
    ],
)
def test_parse_trace_rejects_malformed(text):
    with pytest.raises(TraceSyntaxError):
        parse_trace(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(list(TraceSymbol)), min_size=1, max_size=80))
def test_parse_render_roundtrip(symbols):
    trace = per_symbol(symbols)
    assert parse_trace(render_trace(trace)).symbols == trace.symbols


def test_trace_shape_validation():
    with pytest.raises(ValueError):
        Trace(())
    with pytest.raises(ValueError):
        Trace(((S, 0), (M, 1)))
    with pytest.raises(ValueError):
        Trace(((M, 1),), openings=())
    with pytest.raises(ValueError):  # only an s run spans several steps of its opening
        Trace(((GE, 2), (M, 1)), openings=(ProblemInstance(15, 5, 24), ProblemInstance(3, 1, 6)))


# --- structural properties ------------------------------------------------


def _statuses(report):
    return {check.name.split()[0]: check.passed for check in report.checks}


def test_properties_pass_on_golden_traces():
    report = check_trace_properties(parse_trace("go m"), validate_instance(1337, 573, 1561))
    assert report.ok
    report = check_trace_properties(
        parse_trace("s^30 go s ge m"), validate_instance(1337, 21, 42593)
    )
    assert report.ok
    # a trace whose head ends in go: the s/go balance allows exactly one deficit
    report = check_trace_properties(parse_trace("ge^3 go m"), validate_instance(9999, 3333, 15000))
    assert report.ok


def test_property_p2_flags_s_before_terminal():
    report = check_trace_properties(parse_trace("go s m"))
    statuses = _statuses(report)
    assert statuses["P2"] is False
    assert statuses["P1"] is True and statuses["P3"] is True and statuses["P4"] is True
    assert not report.ok


def test_property_p1_flags_early_or_repeated_m():
    report = check_trace_properties(per_symbol((M, M)))
    assert _statuses(report)["P1"] is False
    report = check_trace_properties(per_symbol((M, GO, M)))
    assert _statuses(report)["P1"] is False
    report = check_trace_properties(per_symbol((S, S)))
    assert _statuses(report)["P1"] is False


def test_property_p3_flags_go_without_s_or_m():
    report = check_trace_properties(parse_trace("go ge m"))
    assert _statuses(report)["P3"] is False


def test_property_p4_flags_unbalanced_go():
    # two go steps, no s at all: even with the one allowed deficit this fails
    report = check_trace_properties(parse_trace("go go m"))
    assert _statuses(report)["P4"] is False


def test_property_p5_needs_instance_and_bounds_ge():
    report = check_trace_properties(parse_trace("ge^4 m"))
    assert _statuses(report)["P5"] is None  # skipped
    report = check_trace_properties(parse_trace("ge^4 m"), ProblemInstance(5, 1, 15))
    assert _statuses(report)["P5"] is False  # 4 > log2(15)
    report = check_trace_properties(parse_trace("ge^3 m"), ProblemInstance(5, 1, 15))
    assert _statuses(report)["P5"] is True


RUNS = ((S, 2), (GO, 1), (M, 1))
# a run of 2 from (10, 3) breaks the ceiling: 2*3*2 > 10
BAD_CEILING = (ProblemInstance(10, 3, 22), ProblemInstance(4, 2, 5), ProblemInstance(3, 1, 6))


def test_property_p6_uses_recorded_steps():
    trace = Trace(RUNS)
    assert _statuses(check_trace_properties(trace))["P6"] is None
    openings = (ProblemInstance(20, 3, 70), ProblemInstance(8, 3, 12), ProblemInstance(3, 1, 6))
    trace = Trace(RUNS, openings)
    assert _statuses(check_trace_properties(trace))["P6"] is True
    # the second step of the s run follows from the first by the recurrence
    assert trace.per_step == (openings[0], ProblemInstance(14, 3, 35), *openings[1:])
    report = check_trace_properties(Trace(RUNS, BAD_CEILING))
    assert _statuses(report)["P6"] is False


def test_properties_pass_on_recorded_solver_run():
    instance = validate_instance(1337, 21, 42593)
    _, trace = solve(instance)
    report = check_trace_properties(trace, instance)
    assert report.ok
    assert all(check.passed is True for check in report.checks)  # nothing skipped


# --- the checks on runs against the frozen per-step checks -----------------


def assert_same_as_reference(trace, instance):
    got = check_trace_properties(trace, instance).checks
    want = reference_trace.check_trace_properties(trace, instance).checks
    assert got == want, (trace, instance)


def test_properties_same_as_reference_on_every_short_word():
    words = [word for length in range(1, 7) for word in product(TraceSymbol, repeat=length)]
    assert len(words) == 5460
    for word in words:
        # as one run per step and as maximal runs, without and with an instance
        for trace in (per_symbol(word), parse_trace(" ".join(symbol.value for symbol in word))):
            for instance in (None, ProblemInstance(5, 1, 15), validate_instance(1337, 21, 42593)):
                assert_same_as_reference(trace, instance)


def test_properties_same_as_reference_on_solver_traces_and_a_bad_ceiling():
    for n in range(1, 301):
        for k, t in enumerate_instances(n):
            instance = validate_instance(n, k, t)
            assert_same_as_reference(plan(instance), instance)
    # the bad ceiling, as one run and split into one run per step
    assert_same_as_reference(Trace(RUNS, BAD_CEILING), None)
    split = ((S, 1), (S, 1), (GO, 1), (M, 1))
    assert_same_as_reference(Trace(split, (BAD_CEILING[0], ProblemInstance(4, 3, 7), *BAD_CEILING[1:])), None)
