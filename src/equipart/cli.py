"""Command-line interface.

``main`` maps every outcome, argparse's included, to an exit code: 0 success or
``--help``, 1 invalid input (a usage error), a command out of memory (a huge
file that verify reads whole, say) or an output path or stdout that cannot be
written, 2 verification failure, 3 internal invariant violation (including scan
violations). ``run``, the process entry, alone touches process state: the
cyclic collector and stdout's descriptor.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import nullcontext
from itertools import chain, count
from operator import add
from typing import Any, Callable, Iterator, Sequence, TextIO

from .core import (
    InstanceError,
    InvariantError,
    ProblemInstance,
    SumMismatchError,
    WrongArityError,
    triangular,
    table_accepts,
    validate_instance,
    verify_partition,
    enumerate_instances,
)
from .oracle import DEFAULT_CAP, brute_force_partition
from .scan import run_scan, write_csv
from .solver import Sets, compose_window, plan, set_parts
from .trace import Trace, render_trace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_INVARIANT = 3

# the elements composed and written at a time: a window holds about this many, or one set
_WINDOW = 1 << 14
# the bytes verify reads at a time from a file in the layout solve writes
_READ = 1 << 16
# that layout up to its sets: positive n, k and t, then an optional trace
_HEAD = rb'\{"n": ([1-9]\d*), "k": ([1-9]\d*), "t": ([1-9]\d*)(?:, "trace": "[a-z0-9 ^]*")?, "sets": \['


class _Encoder(dict):
    """Sets as one ``%``-format of a template per set size, each made once:
    JSON arrays ``[1, 2]`` joined by ``", "``, or text rows ``set 7: 1 2``.
    A negative size is a part of a set: its values alone, no head, no tail.
    ``%d`` of an int is what ``json.dumps`` writes for it."""

    def __init__(self, json_format: bool) -> None:
        super().__init__()
        self.numbered = not json_format
        self.head, self.sep, self.tail, self.between = (
            ("set %d: ", " ", "\n", "") if self.numbered else ("[", ", ", "]", ", ")
        )

    def __missing__(self, size: int) -> str:
        body = self.sep.join(["%d"] * abs(size))
        template = self[size] = body if size < 0 else self.head + body + self.tail
        return template

    def __call__(self, sets: Sets, first: int) -> tuple[str, int]:
        """The sets, rows numbered from ``first``, and the elements they hold."""
        template = self.between.join(map(self.__getitem__, map(len, sets)))
        numbers = len(sets) if self.numbered else 0
        if numbers:  # each row's number, then its set: (7,) + (1, 2)
            sets = map(add, zip(count(first)), sets)
        values = tuple(chain.from_iterable(sets))
        return template % values, len(values) - numbers


def _write_solution(out: TextIO, trace: Trace, json_format: bool) -> None:
    """Compose and write the partition of the trace's instance one window of
    about ``_WINDOW`` elements at a time: whole sets, or, where a set exceeds
    a window, that set in the parts ``set_parts`` cuts. The header follows
    the first piece, so an instance too large to compose writes nothing."""
    n, k, t = trace.openings[0]
    trace_text = render_trace(trace)  # m s ge go ^, digits and spaces: nothing for JSON to escape
    if json_format:
        head, end = f'{{"n": {n}, "k": {k}, "t": {t}, "trace": "{trace_text}", "sets": [', "]}\n"
    else:
        head, end = f"n={n} k={k} t={t}\ntrace: {trace_text}\n", ""
    encode = _Encoder(json_format)
    written = 0
    step = _WINDOW * k // n  # the whole sets a window holds
    for a in range(0, k, step or 1):
        if step:
            sets, _ = compose_window(trace, a, min(a + step, k))
            text, elements = encode(sets, a + 1)
        else:  # set a alone, its head before the first part and its tail after the last
            opening = encode.head % (a + 1) if encode.numbered else encode.head
            for part in set_parts(trace, a, _WINDOW):
                out.write(head + opening)
                out.write(encode[-len(part)] % part)
                head, opening = "", encode.sep
                written += len(part)
            text, elements = encode.tail, 0
        out.write(head)
        out.write(text)
        head = encode.between
        written += elements
    if written != n:
        raise InvariantError(f"wrote {written} elements of the partition of 1..{n}")
    out.write(end)


def _instance(args: argparse.Namespace) -> ProblemInstance:
    """The instance named by --n, --k and --t; t defaults to n(n+1)/2k."""
    n, k, t = args.n, args.k, args.t
    if t is None and k > 0:
        delta = triangular(n)
        if delta % k != 0:
            raise SumMismatchError(f"1+...+{n} = {delta} is not divisible by k={k}")
        t = delta // k
    # with k <= 0 there is no t to derive; the positivity check reports k
    return validate_instance(n, k, 0 if t is None else t)


def _cmd_solve(args: argparse.Namespace) -> int:
    _write_solution(sys.stdout, plan(_instance(args)), args.format == "json")
    return EXIT_OK


def _cmd_trace(args: argparse.Namespace) -> int:
    instance = _instance(args)
    trace = plan(instance)  # the trace needs no sets
    print(render_trace(trace))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    for k, t in enumerate_instances(args.n):
        print(f"{k} {t}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _instance(args)
    partition = brute_force_partition(instance, cap=args.cap)
    if partition is None:
        raise InvariantError("no partition found")
    n, k, t = instance
    sys.stdout.write(f"n={n} k={k} t={t}\n" + _Encoder(False)(partition.sets, 1)[0])
    return EXIT_OK


def _set_run(run: bytes, loads: Callable[[bytes], Any]) -> list:
    """A run of whole sets, ``[1, 2], [3]``, as lists of ints proven from its
    bytes: digits, ``-``, ``[``, ``]``, ``,`` and space spell only integers
    and lists, and one ``[`` per set leaves no list inside a set (an integer
    in place of a set has no length: TypeError in ``table_accepts``)."""
    if run.translate(None, b"0123456789-[], "):
        raise ValueError("not a run of integer sets")
    sets = loads(b"[" + run + b"]")
    if run.count(b"[") != len(sets):
        raise ValueError("not a run of integer sets")
    return sets


def _set_runs(pieces: Iterator[bytes], loads: Callable[[bytes], Any]) -> Iterator[list]:
    """The sets that follow ``"sets": [`` in the pieces of a file, a run per
    piece that holds a ``], [``, cut at its last one. ValueError unless the
    sets close the file with ``]}`` and whitespace."""
    pending: list[bytes] = []
    for piece in pieces:
        cut = piece.rfind(b"], [")
        if cut < 0:
            pending.append(piece)
            continue
        pending.append(piece[: cut + 1])
        yield _set_run(b"".join(pending), loads)
        pending = [piece[cut + 3 :]]
    tail = b"".join(pending).rstrip(b" \t\n\r")
    if not tail.endswith(b"]}"):
        raise ValueError("the sets do not close the file")
    yield _set_run(tail[:-2], loads)


def _streamed_instance(path: str) -> ProblemInstance | None:
    """The instance of a file in the layout ``solve --format json`` writes, if
    its sets are a partition of it, read ``_READ`` bytes at a time; None, or
    an exception, for any other file."""
    import json
    import re

    if not os.path.isfile(path):  # a pipe read here could not be read again
        return None
    with open(path, "rb") as handle:
        pieces = iter(lambda: handle.read(_READ), b"")
        head = bytearray()
        for piece in pieces:  # up to the first "[", which opens the sets
            head += piece
            bracket = head.find(b"[", len(head) - len(piece))
            if bracket >= 0:
                break
        else:
            return None
        match = re.fullmatch(_HEAD, bytes(head[: bracket + 1]))
        if match is None:
            return None
        instance = validate_instance(*map(int, match.groups()))
        if os.fstat(handle.fileno()).st_size < instance.n:
            return None  # each element takes a digit: a header alone sizes no table
        runs = _set_runs(chain((bytes(head[bracket + 1 :]),), pieces), json.loads)
        return instance if table_accepts(instance, runs) else None


def _cmd_verify(args: argparse.Namespace) -> int:
    import json  # only verify reads JSON: off the import path of every other command

    try:
        instance = _streamed_instance(args.path)
    except (OSError, ValueError, TypeError, RecursionError, MemoryError):
        instance = None  # any file the stream does not accept is read whole, for its verdict
    if instance is None:
        with open(args.path, encoding="utf-8") as handle:  # main reports a path it cannot open
            try:
                payload = json.load(handle)
                if not isinstance(payload, dict):
                    raise TypeError("top-level JSON value must be an object")
                n, k, t, sets = payload["n"], payload["k"], payload["t"], payload["sets"]
                if not isinstance(sets, list) or not set(map(type, sets)) <= {list}:
                    raise TypeError('"sets" must be a list of lists')
                instance = validate_instance(n, k, t)  # TypeError on a non-int n, k or t
                report = verify_partition(instance, sets)  # TypeError on a non-int element
            except WrongArityError as exc:
                print(f"verification failed: {exc}", file=sys.stderr)
                return EXIT_VERIFY_FAILED
            except InstanceError:
                raise  # main reports an invalid instance as "error: ..."
            except (OSError, ValueError, RecursionError, KeyError, TypeError) as exc:
                # ValueError: not UTF-8, not JSON, or an integer too long to convert
                print(f"malformed partition file: {exc}", file=sys.stderr)
                return EXIT_INVALID
        if not report.ok:
            print(f"verification failed: {report.first_violation}", file=sys.stderr)
            return EXIT_VERIFY_FAILED
    print(f"ok: valid partition of 1..{instance.n} into {instance.k} sets of sum {instance.t}")
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    # --out is opened before the scan, so a path that cannot be written fails at
    # once; append mode leaves a file as it was until there are records to write
    handle = None if args.out is None else open(args.out, "a", encoding="utf-8", newline="")
    with handle or nullcontext(sys.stdout) as out:
        result = run_scan(args.n_max, args.n_min)
        if handle is not None and os.path.isfile(args.out):  # a device or pipe has nothing to empty
            out.truncate(0)
        write_csv(result.records, out)
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


class _Parser(argparse.ArgumentParser):
    def print_help(self, file: TextIO | None = None) -> None:
        # argparse's own swallows an OSError, so --help into a closed unbuffered stdout exited 0
        (file or sys.stdout).write(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="equipart",
        description="Partition {1..n} into k disjoint subsets of equal sum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    instance_p = argparse.ArgumentParser(add_help=False)  # --n/--k/--t of solve, trace, oracle
    instance_p.add_argument("--n", type=int, required=True, help="size of the ground set")
    instance_p.add_argument("--k", type=int, required=True, help="number of subsets")
    instance_p.add_argument("--t", type=int, default=None, help="subset sum (default: n(n+1)/2k)")

    solve_p = sub.add_parser("solve", parents=[instance_p], help="construct a partition and its trace")
    solve_p.add_argument("--format", choices=("text", "json"), default="text")
    solve_p.set_defaults(handler=_cmd_solve)

    verify_p = sub.add_parser("verify", help="verify a partition JSON file")
    verify_p.add_argument("path", help="JSON file with keys n, k, t, sets")
    verify_p.set_defaults(handler=_cmd_verify)

    enum_p = sub.add_parser("enumerate", help="list all valid (k, t) pairs for n")
    enum_p.add_argument("--n", type=int, required=True)
    enum_p.set_defaults(handler=_cmd_enumerate)

    trace_p = sub.add_parser("trace", parents=[instance_p], help="print only the compact trace")
    trace_p.set_defaults(handler=_cmd_trace)

    oracle_p = sub.add_parser("oracle", parents=[instance_p], help="brute-force a small instance")
    oracle_p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="largest allowed n")
    oracle_p.set_defaults(handler=_cmd_oracle)

    scan_p = sub.add_parser("scan", help="solve and check every instance in a range")
    scan_p.add_argument("--n-max", type=int, required=True)
    scan_p.add_argument("--n-min", type=int, default=1)
    scan_p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    scan_p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse prints and exits: 0 after --help, 2 on a usage error
            code = EXIT_OK if exc.code == 0 else EXIT_INVALID
        else:
            code = args.handler(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except OSError as exc:  # an --out path or a stdout that cannot be written
        if not isinstance(exc, BrokenPipeError):  # a reader that went away is not reported
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
    """Process entry point, for the console script and ``python -m equipart``."""
    # A command builds trees of tuples, lists, dicts and scalars that reference
    # counting frees; left on, the cyclic collector walks them as they grow.
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # stdout fails: send its buffer to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
