"""Command-line interface.

Exit codes: 0 success, 1 invalid input (including an instance too large
for the memory available), 2 verification failure, 3 internal invariant
violation (including scan violations).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence, TextIO

from .core import (
    InvariantError,
    Partition,
    SumMismatchError,
    WrongArityError,
    triangular,
    validate_instance,
    verify_partition,
    enumerate_instances,
)
from .oracle import DEFAULT_CAP, brute_force_partition
from .scan import run_scan, write_csv
from .solver import solve
from .trace import render_trace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_INVARIANT = 3

_CHUNK = 4096


def _write_values(out: TextIO, values: Sequence[int], prefix: str) -> None:
    # stream long rows in chunks instead of building one giant string
    out.write(prefix)
    for start in range(0, len(values), _CHUNK):
        out.write(" ")
        out.write(" ".join(map(str, values[start : start + _CHUNK])))


def _write_text(out: TextIO, partition: Partition, trace_text: str | None) -> None:
    inst = partition.instance
    out.write(f"n={inst.n} k={inst.k} t={inst.t}\n")
    if trace_text is not None:
        out.write(f"trace: {trace_text}\n")
    for index, members in enumerate(partition.sets, start=1):
        _write_values(out, members, prefix=f"set {index}:")
        out.write("\n")


def _write_json(out: TextIO, partition: Partition, trace_text: str) -> None:
    inst = partition.instance
    header = {"n": inst.n, "k": inst.k, "t": inst.t, "trace": trace_text, "sets": []}
    out.write(json.dumps(header)[:-2])  # open, without the closing "]}"
    # runs of whole sets, cut once a run holds _CHUNK elements, written
    # without their outer brackets
    separator, run, size = "", [], 0
    for members in partition.sets:
        run.append(members)
        size += len(members)
        if size >= _CHUNK:
            out.write(separator + json.dumps(run)[1:-1])
            separator, run, size = ", ", [], 0
    if run:
        out.write(separator + json.dumps(run)[1:-1])
    out.write("]}\n")


def _derive_t(n: int, k: int, t: int | None) -> int:
    if t is not None:
        return t
    delta = triangular(n)
    if k < 1 or delta % k != 0:
        raise SumMismatchError(f"1+...+{n} = {delta} is not divisible by k={k}")
    return delta // k


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = validate_instance(args.n, args.k, _derive_t(args.n, args.k, args.t))
    partition, trace = solve(instance)
    text = render_trace(trace)
    if args.format == "json":
        _write_json(sys.stdout, partition, text)
    else:
        _write_text(sys.stdout, partition, text)
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    instance = validate_instance(args.n, args.k, _derive_t(args.n, args.k, args.t))
    _, trace = solve(instance)
    print(render_trace(trace))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for k, t in enumerate_instances(args.n):
        print(f"{k} {t}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = validate_instance(args.n, args.k, _derive_t(args.n, args.k, args.t))
    partition = brute_force_partition(instance, cap=args.cap)
    if partition is None:
        print("internal invariant violation: no partition found", file=sys.stderr)
        return EXIT_INVARIANT
    _write_text(sys.stdout, partition, None)
    return EXIT_OK


def _as_int(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected integer, got {value!r}")
    return value


def _load_partition_file(path: str) -> tuple[int, int, int, list[list[int]]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise TypeError("top-level JSON value must be an object")
    n = _as_int(payload["n"])
    k = _as_int(payload["k"])
    t = _as_int(payload["t"])
    raw_sets = payload["sets"]
    if not isinstance(raw_sets, list) or not all(isinstance(s, list) for s in raw_sets):
        raise TypeError('"sets" must be a list of lists')
    return n, k, t, raw_sets


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        n, k, t, sets = _load_partition_file(args.path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print(f"malformed partition file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    instance = validate_instance(n, k, t)
    try:
        report = verify_partition(instance, sets)
    except TypeError as exc:  # an element that is not an integer
        print(f"malformed partition file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except WrongArityError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    if report.ok:
        print(f"ok: valid partition of 1..{n} into {k} sets of sum {t}")
        return EXIT_OK
    print(f"verification failed: {report.first_violation}", file=sys.stderr)
    return EXIT_VERIFY_FAILED


def _cmd_scan(args: argparse.Namespace) -> int:
    result = run_scan(args.n_max, args.n_min)
    if args.out is None:
        write_csv(result.records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_csv(result.records, handle)
    for violation in result.violations:
        print(
            f"violation: n={violation.n} k={violation.k} t={violation.t} "
            f"[{violation.kind}] {violation.message}",
            file=sys.stderr,
        )
    print(
        f"scanned {len(result.records)} instances in n=[{args.n_min}, {args.n_max}]: "
        f"{len(result.violations)} violations, "
        f"max depth/limit ratio {result.max_depth_ratio:.4f}",
        file=sys.stderr,
    )
    return EXIT_INVARIANT if result.violations else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equipart",
        description="Partition {1..n} into k disjoint subsets of equal sum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="construct a partition and its trace")
    solve_p.add_argument("--n", type=int, required=True, help="size of the ground set")
    solve_p.add_argument("--k", type=int, required=True, help="number of subsets")
    solve_p.add_argument("--t", type=int, default=None, help="subset sum (default: n(n+1)/2k)")
    solve_p.add_argument("--format", choices=("text", "json"), default="text")
    solve_p.set_defaults(handler=_cmd_solve)

    verify_p = sub.add_parser("verify", help="verify a partition JSON file")
    verify_p.add_argument("path", help="JSON file with keys n, k, t, sets")
    verify_p.set_defaults(handler=_cmd_verify)

    enum_p = sub.add_parser("enumerate", help="list all valid (k, t) pairs for n")
    enum_p.add_argument("--n", type=int, required=True)
    enum_p.set_defaults(handler=_cmd_enumerate)

    trace_p = sub.add_parser("trace", help="print only the compact trace")
    trace_p.add_argument("--n", type=int, required=True)
    trace_p.add_argument("--k", type=int, required=True)
    trace_p.add_argument("--t", type=int, default=None)
    trace_p.set_defaults(handler=_cmd_trace)

    oracle_p = sub.add_parser("oracle", help="brute-force a small instance")
    oracle_p.add_argument("--n", type=int, required=True)
    oracle_p.add_argument("--k", type=int, required=True)
    oracle_p.add_argument("--t", type=int, default=None)
    oracle_p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest allowed n")
    oracle_p.set_defaults(handler=_cmd_oracle)

    scan_p = sub.add_parser("scan", help="solve and check every instance in a range")
    scan_p.add_argument("--n-max", type=int, required=True)
    scan_p.add_argument("--n-min", type=int, default=1)
    scan_p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    scan_p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # invalid instances, bad ranges, oracle cap
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError:
        print("error: not enough memory for this instance", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())
