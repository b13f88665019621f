"""Constructive equal-sum partitions of {1..n} into k subsets of sum t.

Each public name is imported from its home module on first access (PEP 562)
and then kept here, so ``import equipart`` loads no submodule, and each
command of the CLI loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(
        (
            "InstanceError",
            "InvariantError",
            "N_MAX",
            "NonPositiveError",
            "Partition",
            "PreconditionError",
            "ProblemInstance",
            "SumMismatchError",
            "TargetTooSmallError",
            "VerificationReport",
            "WidthOverflowError",
            "WrongArityError",
            "enumerate_instances",
            "triangular",
            "validate_instance",
            "verify_partition",
        ),
        "core",
    ),
    **dict.fromkeys(("CapExceededError", "brute_force_partition"), "oracle"),
    **dict.fromkeys(("ScanRecord", "ScanResult", "run_scan"), "scan"),
    **dict.fromkeys(("SolveResult", "meander_even", "meander_odd", "solve", "solve_detailed"), "solver"),
    **dict.fromkeys(
        (
            "Trace",
            "TracePropertyReport",
            "TraceSymbol",
            "TraceSyntaxError",
            "check_trace_properties",
            "parse_trace",
            "render_trace",
        ),
        "trace",
    ),
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:  # a submodule's name too: the import system then imports it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value
