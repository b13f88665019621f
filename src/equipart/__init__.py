"""Constructive equal-sum partitions of {1..n} into k subsets of sum t."""

from .core import (
    InstanceError,
    InvariantError,
    N_MAX,
    NonPositiveError,
    Partition,
    PreconditionError,
    ProblemInstance,
    SumMismatchError,
    TargetTooSmallError,
    VerificationReport,
    WidthOverflowError,
    WrongArityError,
    enumerate_instances,
    triangular,
    validate_instance,
    verify_partition,
)
from .oracle import CapExceededError, brute_force_partition
from .scan import ScanRecord, ScanResult, run_scan
from .solver import SolveResult, classify_case, meander_even, meander_odd, solve, solve_detailed
from .trace import (
    Trace,
    TracePropertyReport,
    TraceSymbol,
    TraceSyntaxError,
    check_trace_properties,
    parse_trace,
    render_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "InstanceError",
    "InvariantError",
    "N_MAX",
    "NonPositiveError",
    "Partition",
    "PreconditionError",
    "ProblemInstance",
    "ScanRecord",
    "ScanResult",
    "SolveResult",
    "SumMismatchError",
    "TargetTooSmallError",
    "Trace",
    "TracePropertyReport",
    "TraceSymbol",
    "TraceSyntaxError",
    "VerificationReport",
    "WidthOverflowError",
    "WrongArityError",
    "brute_force_partition",
    "check_trace_properties",
    "classify_case",
    "enumerate_instances",
    "meander_even",
    "meander_odd",
    "parse_trace",
    "render_trace",
    "run_scan",
    "solve",
    "solve_detailed",
    "triangular",
    "validate_instance",
    "verify_partition",
]
