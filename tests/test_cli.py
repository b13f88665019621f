import contextlib
import csv
import gc
import io
import json
import os
import resource
import subprocess
import sys

import pytest

from equipart import cli, oracle, scan, solver
from equipart.cli import main, run
from equipart.core import N_MAX, enumerate_instances, triangular, validate_instance
from equipart.oracle import brute_force_partition
from equipart.solver import plan, solve
from equipart.trace import render_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve ------------------------------------------------------------


def test_solve_text_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "9", "--k", "3")
    assert code == 0
    assert out.splitlines() == [
        "n=9 k=3 t=15",
        "trace: go m",
        "set 1: 6 9",
        "set 2: 7 8",
        "set 3: 1 2 3 4 5",
    ]


def test_solve_derives_t_and_reports_golden_trace(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "1337", "--k", "7")
    assert code == 0
    assert "trace: s^94 go m" in out


def test_solve_rejects_nondivisible_k(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "5", "--k", "2")
    assert code == 1
    assert "not divisible" in err


def test_solve_with_nonpositive_k_reports_positivity(capsys):
    # no t can be derived from k = 0, so the instance's positivity check speaks
    code, _, err = run_cli(capsys, "solve", "--n", "5", "--k", "0")
    assert code == 1
    assert "error: all of n, k, t must be positive" in err


@pytest.mark.parametrize("command", ["solve", "trace", "oracle"])
def test_instance_options_are_listed_in_help(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert all(option in out for option in ("--n N", "--k K", "--t T"))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["verify"],
        ["frobnicate"],
        ["solve", "--n", "x", "--k", "3"],
        ["scan", "--n-max", "5", "--out"],
    ],
    ids=["no-command", "verify-no-path", "unknown-command", "non-integer-n", "out-without-path"],
)
def test_usage_error_is_invalid_input(capsys, argv):
    # argparse's own exit code, 2, is the code of a failed verification
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: equipart") and "error:" in err


def test_usage_error_exits_1_as_a_process():
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "verify"], capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("usage: equipart verify") and "Traceback" not in done.stderr


def test_solve_rejects_invalid_explicit_t(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "9", "--k", "3", "--t", "5")
    assert code == 1
    assert "error:" in err


def test_solve_json_round_trips_through_verify(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve", "--n", "15", "--k", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 15 and payload["k"] == 5 and payload["t"] == 24
    assert payload["trace"] == "ge^2 m"
    assert len(payload["sets"]) == 5
    path = tmp_path / "partition.json"
    path.write_text(out)
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 0

    # single-set edge of the JSON writer round-trips too
    code, out, _ = run_cli(capsys, "solve", "--n", "4", "--k", "1", "--format", "json")
    assert code == 0
    path.write_text(out)
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 0


@pytest.mark.parametrize("n,k", [(4, 1), (9, 3), (9999, 3), (10000, 2500)])
def test_solve_json_is_the_stdlib_encoding(capsys, n, k):
    # (9999, 3): three long sets in one window; (10000, 2500):
    # many windows of tiny sets
    instance = validate_instance(n, k, triangular(n) // k)
    partition, trace = solve(instance)
    payload = {"n": n, "k": k, "t": instance.t, "trace": render_trace(trace), "sets": partition.sets}
    code, out, _ = run_cli(capsys, "solve", "--n", str(n), "--k", str(k), "--format", "json")
    assert code == 0
    assert out == json.dumps(payload) + "\n"


def _rows(sets):
    return "".join(f"set {i}: {' '.join(map(str, s))}\n" for i, s in enumerate(sets, start=1))


@pytest.mark.parametrize("n,k", [(1, 1), (9, 3), (9999, 3), (10000, 2500), (1000000, 500000)])
def test_solve_text_is_the_row_rendering(capsys, n, k):
    # (9999, 3): three long rows in one window; (10000, 2500) and (10^6, 500000): many
    # windows of tiny sets, numbered on across each window's edge
    instance = validate_instance(n, k, triangular(n) // k)
    partition, trace = solve(instance)
    header = f"n={n} k={k} t={instance.t}\ntrace: {render_trace(trace)}\n"
    code, out, _ = run_cli(capsys, "solve", "--n", str(n), "--k", str(k))
    assert code == 0
    assert out == header + _rows(partition.sets)


def _eager_rendering(instance, json_format):
    partition, trace = solve(instance)
    n, k, t = instance
    if json_format:
        payload = {"n": n, "k": k, "t": t, "trace": render_trace(trace), "sets": partition.sets}
        return json.dumps(payload) + "\n"
    return f"n={n} k={k} t={t}\ntrace: {render_trace(trace)}\n" + _rows(partition.sets)


@pytest.fixture(scope="module")
def eager_renderings_up_to_400():
    """Every instance with n <= 400 and its eager solve rendered whole, in
    JSON and in text, rendered once for every window tried."""
    return [
        (instance, [(json_format, _eager_rendering(instance, json_format)) for json_format in (True, False)])
        for n in range(1, 401)
        for instance in (validate_instance(n, k, t) for k, t in enumerate_instances(n))
    ]


@pytest.mark.parametrize("window", [1, 2, 3, 17, cli._WINDOW])
def test_windowed_solve_writes_the_eager_partition(monkeypatch, eager_renderings_up_to_400, window):
    # every instance with n <= 400, composed and written a window of about
    # `window` elements at a time, against the eager solve rendered whole; a
    # set of an s or m top larger than the window is written in chunks of
    # window // 2 blocks (one block at windows 1, 2 and 3)
    monkeypatch.setattr(cli, "_WINDOW", window)
    for instance, renderings in eager_renderings_up_to_400:
        for json_format, want in renderings:
            out = io.StringIO()
            cli._write_solution(out, plan(instance), json_format)
            assert out.getvalue() == want, (instance.n, instance.k, json_format)


@pytest.mark.parametrize("n,k,trace", [(99999, 3, "s^16665 go m"), (65536, 2, "m"), (65535, 2, "m")])
def test_sets_larger_than_the_window_are_written_in_chunks_of_the_eager_partition(n, k, trace):
    # an s top, an even and an odd m top, each set more than a window: the
    # top column in chunks, after the child's part of the set
    instance = validate_instance(n, k, triangular(n) // k)
    assert render_trace(plan(instance)) == trace and n // k > cli._WINDOW
    for json_format in (True, False):
        out = io.StringIO()
        cli._write_solution(out, plan(instance), json_format)
        assert out.getvalue() == _eager_rendering(instance, json_format), json_format


def test_solve_counts_the_elements_it_writes(capsys, monkeypatch):
    real = solver.compose_window

    def dropping(trace, a, b):  # the window's last set loses its last element
        sets, size = real(trace, a, b)
        return [*sets[:-1], sets[-1][:-1]], size - 1

    monkeypatch.setattr(solver, "compose_window", dropping)
    monkeypatch.setattr(cli, "_WINDOW", 4)
    code, out, err = run_cli(capsys, "solve", "--n", "15", "--k", "5")
    assert code == 3
    assert err == "internal invariant violation: wrote 10 elements of the partition of 1..15\n"
    # the stream was written before the count fell short
    assert out.startswith("n=15 k=5 t=24\ntrace: ge^2 m\nset 1: 9\n")


def test_every_level_returns_its_windows_sets(capsys, monkeypatch):
    real = solver.greater

    def losing(sets, n, t, a, b, pairs):  # a window past the first loses its last set
        composed = real(sets, n, t, a, b, pairs)
        return composed[:-1] if a > 0 else composed

    monkeypatch.setattr(solver, "greater", losing)
    monkeypatch.setattr(cli, "_WINDOW", 6)  # sets [0, 2), [2, 4), [4, 5) of (15, 5, 24)
    code, out, err = run_cli(capsys, "solve", "--n", "15", "--k", "5", "--format", "json")
    assert code == 3
    assert err == (
        "internal invariant violation: level (15, 5, 24) made (sets, elements) (1, 0), "
        "expected (2, 0) in sets [2, 4)\n"
    )
    assert out == '{"n": 15, "k": 5, "t": 24, "trace": "ge^2 m", "sets": [[9, 15], [10, 14]'


# ru_maxrss, in KiB (bytes on macOS), of one `equipart` child of this small
# process: the child's own high-water mark, not that of the test process
_SPAWN_AND_REPORT_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "equipart", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("form", ["json", "text"])
def test_solve_memory_follows_the_window_not_n(form):
    # all 10^6 elements at once peaked at 83 MB; one window at a time is the
    # interpreter and about 2^14 elements. A window of whole sets held each
    # set of 333,333 elements of (999999, 3) (50 MB) and of 200,000 of
    # (999999, 5) (36 MB); chunks of their columns peak near 16 MB
    for n, k, bound in ((1000000, 500000, 40), (999999, 3, 25), (999999, 5, 25)):
        done = subprocess.run(
            [sys.executable, "-c", _SPAWN_AND_REPORT_RSS, "solve", "--n", str(n), "--k", str(k)]
            + ["--format", form],
            capture_output=True,
            text=True,
            check=True,
        )
        code, maxrss = map(int, done.stdout.split())
        rss_mb = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
        assert code == 0
        assert rss_mb < bound, f"({n}, {k}) peak RSS {rss_mb:.1f} MB"


def test_oracle_text_is_the_row_rendering(capsys):
    partition = brute_force_partition(validate_instance(16, 4, 34))
    code, out, _ = run_cli(capsys, "oracle", "--n", "16", "--k", "4")
    assert code == 0
    assert out == "n=16 k=4 t=34\n" + _rows(partition.sets)


@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        (["solve", "--n", "100000", "--k", "50000"], False),
        (["solve", "--n", "100000", "--k", "50000", "--format", "json"], False),
        (["solve", "--n", "9", "--k", "3"], False),
        (["trace", "--n", "9999", "--k", "12"], False),
        (["enumerate", "--n", "1337"], False),
        (["solve", "--help"], False),
        # unbuffered, the help text fails in its own write, which argparse's
        # own print_help would swallow
        (["solve", "--help"], True),
    ],
    ids=["solve-text", "solve-json", "solve-small", "trace", "enumerate", "help", "help-unbuffered"],
)
def test_closed_stdout_exits_1_silently(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    # stdout buffered, as by default, so a small output fails only when flushed
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "equipart", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


def _limit_address_space(limit=1 << 30):
    # 1 GiB by default, far below the 8 GB that the sets of n = 10^9 take
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def test_trace_of_an_instance_too_large_for_memory_plans_it():
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "trace", "--n", "1000000000", "--k", "1"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
    )
    # only the plan: no sets, nothing per element
    assert (done.returncode, done.stdout, done.stderr) == (0, "m\n", "")


def test_solve_of_a_set_too_large_for_memory_streams_it_until_the_reader_leaves():
    # the one set of 10^9 elements (8 GB as tuples) is written in chunks of its
    # column under 1 GiB; a reader that closes the pipe ends it with exit 1
    with subprocess.Popen(
        [sys.executable, "-m", "equipart", "solve", "--n", "1000000000", "--k", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        preexec_fn=_limit_address_space,
    ) as child:
        try:
            head = child.stdout.read(1 << 20)
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()  # a no-op once it has exited
    want = "n=1000000000 k=1 t=500000000500000000\ntrace: m\nset 1: " + " ".join(map(str, range(1, 200000)))
    assert len(head) == 1 << 20 and head == want.encode()[: 1 << 20]
    assert (code, err) == (1, b"")


@pytest.mark.parametrize(
    "stand_in,argv",
    [("meander_columns", ["--n", "1000000000", "--k", "1"]), ("compose_window", ["--n", "15", "--k", "5"])],
)
def test_memory_error_while_composing_the_first_piece_exits_1_and_writes_nothing(
    capsys, monkeypatch, stand_in, argv
):
    # the first part of a set that solver.set_parts cuts into column chunks, or
    # a window of whole sets: the header waits for the first piece
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(solver, stand_in, exhausted)
    code, out, err = run_cli(capsys, "solve", *argv)
    assert (code, out) == (1, "")
    assert err == "error: not enough memory for this instance\n"


# --- verify -----------------------------------------------------------


def _write(tmp_path, payload):
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_accepts_valid_file(capsys, tmp_path):
    path = _write(tmp_path, {"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]})
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    assert "ok" in out


def test_verify_flags_duplicate_element(capsys, tmp_path):
    path = _write(tmp_path, {"n": 9, "k": 3, "t": 15, "sets": [[6, 9], [7, 8], [1, 2, 3, 4, 5, 5]]})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "more than once" in err


def test_verify_flags_wrong_arity(capsys, tmp_path):
    path = _write(tmp_path, {"n": 4, "k": 2, "t": 5, "sets": [[1, 2, 3, 4]]})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "subsets" in err


def test_verify_rejects_truncated_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 4, "k": 1, "t": 10, "sets": [[1, 2')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "malformed" in err


def test_verify_rejects_missing_key_and_bad_types(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "verify", _write(tmp_path, {"n": 4, "k": 1, "sets": [[1]]}))
    assert code == 1
    code, _, _ = run_cli(
        capsys, "verify", _write(tmp_path, {"n": 4, "k": 1, "t": 10, "sets": [[1.5, 2, 3, 4]]})
    )
    assert code == 1


def test_verify_rejects_non_integer_elements(capsys, tmp_path):
    for sets in ([[1.5, 2, 3, 4]], [[True, 2, 3, 4]], [[1.0, 2, 3, 4]]):
        path = _write(tmp_path, {"n": 4, "k": 1, "t": 10, "sets": sets})
        code, out, err = run_cli(capsys, "verify", path)
        assert code == 1, sets
        assert "malformed partition file" in err and not out


@pytest.mark.parametrize("header", [{"n": 4.0, "k": 1, "t": 10}, {"n": 4, "k": True, "t": 10}])
def test_verify_rejects_non_integer_header(capsys, tmp_path, header):
    path = _write(tmp_path, {**header, "sets": [[1, 2, 3, 4]]})
    code, out, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "malformed partition file" in err and not out


def test_verify_rejects_deep_nesting_without_traceback(tmp_path):
    depth = 100_000  # far beyond the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"n": 4, "k": 1, "t": 10, "sets": ' + "[" * depth + "]" * depth + "}")
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "verify", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert "malformed partition file" in done.stderr
    assert "Traceback" not in done.stderr


def test_verify_memory_follows_the_file_not_its_claimed_n(tmp_path):
    # a 69-byte file claiming n = 2^31 - 1: a byte per claimed element is
    # 2 GiB, twice the address-space limit
    path = _write(tmp_path, {"n": N_MAX, "k": 1, "t": triangular(N_MAX), "sets": [[1, 2]]})
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "verify", path],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert done.returncode == 2
    assert f"verification failed: set 1: sum 3 != {triangular(N_MAX)}" in done.stderr


def test_verify_sizes_no_table_by_a_header_alone(capsys, tmp_path, monkeypatch):
    # a file in solve's layout claiming n = 10^9 over 300 elements: the
    # streamed path sizes no table of 10^9 bytes by its header, and the
    # file read whole gets the verdict it always got
    n = 10**9
    path = tmp_path / "candidate.json"
    path.write_text(
        f'{{"n": {n}, "k": 1, "t": {triangular(n)}, "trace": "m", "sets": [{list(range(1, 301))}]}}\n'
    )
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "verify", str(path)],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"verification failed: set 1: sum 45150 != {triangular(n)}\n"
    tables = []
    monkeypatch.setattr(cli, "table_accepts", lambda *args: tables.append(args))
    assert run_cli(capsys, "verify", str(path))[::2] == (2, done.stderr)
    assert tables == []


def test_verify_streams_a_solve_file_in_a_fraction_of_the_memory(tmp_path):
    # (2*10^5, 10^5) as solve writes it, and a copy without spaces, against
    # a copy with its sets first, read whole; and (2*10^5, 3), whose sets of
    # 66,667 elements each span many reads: the stream holds the table of
    # n + 1 bytes and a few reads' bytes and lists (about 1.5 MB), never a set
    # (one set's ints and list alone take 2.4 MB, and the file's peak was
    # 7.2 MB when a run held whole sets)
    import tracemalloc

    def verify_peak(path, n, k, t):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["verify", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.getvalue() == f"ok: valid partition of 1..{n} into {k} sets of sum {t}\n"
        return peak

    peaks = []
    for k in (100000, 3):
        path = tmp_path / f"solve-{k}.json"
        with open(path, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
            assert main(["solve", "--n", "200000", "--k", str(k), "--format", "json"]) == 0
        peaks.append(verify_peak(path, 200000, k, triangular(200000) // k))
    payload = json.loads((tmp_path / "solve-100000.json").read_text())
    copies = {"compact.json": payload, "sets-first.json": {"sets": payload["sets"], **payload}}
    for name, copy in copies.items():
        (tmp_path / name).write_text(json.dumps(copy, separators=(",", ":")))
        peaks.append(verify_peak(tmp_path / name, 200000, 100000, 200001))
    assert peaks[0] < peaks[3] / 4 and peaks[2] < peaks[3] / 4, peaks
    assert peaks[1] < 200001 + 24 * cli._READ, peaks


@pytest.mark.parametrize(
    "content",
    [
        b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]}\xff',  # not UTF-8
        b'{"n": ' + b"1" * 5000 + b', "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]}',
    ],
    ids=["not-utf8", "5000-digit-n"],
)
def test_verify_rejects_undecodable_file(capsys, tmp_path, content):
    path = tmp_path / "candidate.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("malformed partition file: ") and not out


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_verify_of_a_path_that_cannot_be_opened_is_an_error(capsys, tmp_path, where):
    path = tmp_path / "absent.json" if where == "missing" else tmp_path
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    errno = "[Errno 2] No such file or directory" if where == "missing" else "[Errno 21] Is a directory"
    assert err == f"error: {errno}: {str(path)!r}\n"


def test_verify_rejects_invalid_instance(capsys, tmp_path):
    path = _write(tmp_path, {"n": 5, "k": 2, "t": 7, "sets": [[5, 2], [3, 4, 1]]})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "error:" in err


def _set_collector(enabled):
    gc.enable() if enabled else gc.disable()


@pytest.fixture
def collector_state():
    """Leave the cyclic collector as the test found it."""
    enabled = gc.isenabled()
    yield
    _set_collector(enabled)


_JSON_SOLVE = ["solve", "--n", "10000", "--k", "5000", "--format", "json"]


@pytest.mark.parametrize("command", ["verify", "solve-json"])
def test_run_starts_no_collection(capsys, tmp_path, monkeypatch, collector_state, command):
    partition, _ = solve(validate_instance(10**4, 5000, 10001))
    inst = partition.instance
    path = _write(tmp_path, {"n": inst.n, "k": inst.k, "t": inst.t, "sets": partition.sets})
    argv = ["verify", path] if command == "verify" else _JSON_SOLVE
    monkeypatch.setattr(sys, "argv", ["equipart", *argv])
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.collect()  # start from empty generations, so the count is the command's own
    gc.callbacks.append(record)
    try:
        with pytest.raises(SystemExit) as exited:
            run()
    finally:
        gc.callbacks.remove(record)
    assert exited.value.code == 0 and capsys.readouterr().out.startswith(("ok: ", '{"n": 10000'))
    assert starts == []


_VERIFY_PAYLOADS = {
    "ok": {"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]},
    "verification-failure": {"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 3]]},
    "wrong-arity": {"n": 4, "k": 2, "t": 5, "sets": [[1, 2, 3, 4]]},
    "malformed": {"n": 4, "k": 1, "sets": [[1, 2, 3, 4]]},
    "invalid-instance": {"n": 5, "k": 2, "t": 7, "sets": [[5, 2], [3, 4, 1]]},  # raised to main
}


@pytest.fixture
def verify_payloads(tmp_path, monkeypatch):
    """Each of _VERIFY_PAYLOADS as <name>.json in the working directory."""
    monkeypatch.chdir(tmp_path)
    for name, payload in _VERIFY_PAYLOADS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv,code",
    [
        (["verify", "ok.json"], 0),
        (["verify", "verification-failure.json"], 2),
        (["verify", "wrong-arity.json"], 2),
        (["verify", "malformed.json"], 1),
        (["verify", "invalid-instance.json"], 1),
        (["solve", "--n", "9", "--k", "3"], 0),
        (["solve", "--n", "9", "--k", "3", "--format", "json"], 0),
        (["solve", "--n", "5", "--k", "2"], 1),
        (["trace", "--n", "9999", "--k", "12"], 0),
        (["enumerate", "--n", "1337"], 0),
        (["oracle", "--n", "16", "--k", "4"], 0),
        (["oracle", "--n", "31", "--k", "16"], 1),
        (["scan", "--n-max", "30"], 0),
        (["verify"], 1),
    ],
    ids=[*_VERIFY_PAYLOADS, "solve", "solve-json", "solve-invalid"]
    + ["trace", "enumerate", "oracle", "oracle-cap", "scan", "usage-error"],
)
def test_verify_restores_the_collector_state(capsys, verify_payloads, collector_state, enabled, argv, code):
    """main() leaves the collector as it found it, for every command and on
    every exit; only run() turns it off."""
    _set_collector(enabled)
    assert run_cli(capsys, *argv)[0] == code
    assert gc.isenabled() is enabled


def test_commands_leave_no_cycles_behind(capsys, tmp_path, collector_state):
    # with the collector off, what a command leaves to it is the argument
    # parser's own cycles: the same for every command and every size
    path = str(tmp_path / "p.json")
    commands = [["enumerate", "--n", "1"], _JSON_SOLVE, ["verify", path], ["scan", "--n-max", "300"]]
    gc.disable()
    found = []
    for argv in commands:
        gc.collect()
        code = main(argv)
        found.append((code, gc.collect()))
        out = capsys.readouterr().out
        if argv is _JSON_SOLVE:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(out)
    assert found == [(0, found[0][1])] * len(commands)


# --- enumerate / trace / oracle ----------------------------------------


def test_enumerate_lists_pairs(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1337")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "1 894453"
    assert "7 127779" in lines


def test_trace_command_prints_compact_trace(capsys):
    code, out, _ = run_cli(capsys, "trace", "--n", "9999", "--k", "3333")
    assert code == 0
    assert out.strip() == "ge^3 go m"
    code, out, _ = run_cli(capsys, "trace", "--n", "9999", "--k", "12")
    assert out.strip() == "s^415 go s ge^2 m"


def test_trace_near_n_max_plans_its_s_run_in_closed_form():
    # one s-run of 357913939 steps: a symbol per step would take about 2.9 GB
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "trace", "--n", "2147483643", "--k", "3"],
        capture_output=True,
        text=True,
        preexec_fn=lambda: _limit_address_space(256 << 20),
        timeout=30,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "s^357913939 go m\n", "")


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--k", "2")
    assert code == 0
    assert out.startswith("n=4 k=2 t=5\n")
    assert "set 1:" in out
    code, _, err = run_cli(capsys, "oracle", "--n", "31", "--k", "16")
    assert code == 1
    assert "cap" in err


def test_oracle_without_a_partition_is_an_invariant_violation(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "brute_force_partition", lambda instance, cap: None)
    code, out, err = run_cli(capsys, "oracle", "--n", "4", "--k", "2")
    assert (code, out, err) == (3, "", "internal invariant violation: no partition found\n")


# --- scan ---------------------------------------------------------------


def test_scan_writes_deterministic_csv(capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, _, err = run_cli(capsys, "scan", "--n-max", "60", "--out", str(out_a))
    assert code == 0
    assert "0 violations" in err
    code, _, _ = run_cli(capsys, "scan", "--n-max", "60", "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    rows = list(csv.reader(io.StringIO(out_a.read_text())))
    header, body = rows[0], rows[1:]
    assert header == [
        "n", "k", "t", "depth", "count_s", "count_ge", "count_go",
        "insertions", "depth_bound", "trace",
    ]
    # sorted by (n, k), one row per valid instance, insertions == n
    keys = [(int(r[0]), int(r[1])) for r in body]
    assert keys == sorted(keys)
    assert all(int(r[7]) == int(r[0]) for r in body)
    first = body[0]
    assert first[0] == "1" and first[1] == "1" and first[9] == "m"


def test_scan_to_stdout_and_range_validation(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n-max", "5")
    assert code == 0
    assert out.splitlines()[0].startswith("n,k,t,")
    code, _, err = run_cli(capsys, "scan", "--n-max", "0")
    assert code == 1
    assert "error:" in err


def test_scan_rejects_n_max_beyond_width_contract():
    # a subprocess with a timeout: without the up-front check the scan walks
    # every n up to N_MAX and does not return
    done = subprocess.run(
        [sys.executable, "-m", "equipart", "scan", "--n-max", str(N_MAX + 1)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert f"error: n_max={N_MAX + 1} exceeds supported maximum {N_MAX}" in done.stderr


@pytest.mark.parametrize(
    "out,stdout_path,extra_env",
    [
        (".", os.devnull, {}),  # a directory
        ("missing/scan.csv", os.devnull, {}),
        (None, "/dev/full", {}),  # buffered, as by default: the flush fails
        (None, "/dev/full", {"PYTHONUNBUFFERED": "1"}),  # the first write fails
    ],
    ids=["directory", "missing-directory", "full-stdout", "full-unbuffered-stdout"],
)
def test_output_that_cannot_be_written_exits_1_without_traceback(tmp_path, out, stdout_path, extra_env):
    if not os.path.exists(stdout_path):
        pytest.skip(f"this system has no {stdout_path}")
    argv = ["scan", "--n-max", "5"] + ([] if out is None else ["--out", str(tmp_path / out)])
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    with open(stdout_path, "w") as stdout:
        done = subprocess.run(
            [sys.executable, "-m", "equipart", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env={**env, **extra_env},
            timeout=60,
        )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert [line for line in done.stderr.splitlines() if line.startswith("error:")] != []


def test_unwritable_out_path_leaves_stdout_working(capsys, tmp_path):
    # only a failing stdout is sent to devnull; an --out failure leaves it alone
    code, _, err = run_cli(capsys, "scan", "--n-max", "5", "--out", str(tmp_path))
    assert code == 1 and err.startswith("error:")
    print("still here")
    assert capsys.readouterr().out == "still here\n"


class _BrokenStdout(io.TextIOBase):
    """A stdout whose reader went away, with no file descriptor."""

    def write(self, *args):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write


def test_failing_stdout_without_a_descriptor_is_left_to_the_caller(capsys, monkeypatch):
    def dup2(*args):
        pytest.fail("main() replaced a file descriptor")

    with monkeypatch.context() as patch:  # pytest's own capture calls dup2 between phases
        patch.setattr(os, "dup2", dup2)
        patch.setattr(sys, "stdout", _BrokenStdout())
        code = main(["enumerate", "--n", "5"])
    assert (code, capsys.readouterr().err) == (1, "")


def test_unwritable_out_path_fails_before_the_scan(capsys, tmp_path, monkeypatch):
    def run_scan(*args):
        pytest.fail("the scan ran before --out was opened")

    monkeypatch.setattr(scan, "run_scan", run_scan)
    out_path = str(tmp_path / "missing" / "x.csv")
    code, out, err = run_cli(capsys, "scan", "--n-max", "1000", "--out", out_path)
    assert (code, out) == (1, "") and err.startswith("error:")


def test_failed_scan_leaves_an_existing_out_file_unchanged(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    path.write_bytes(b"n,k\r\nkept\n")
    code, _, err = run_cli(capsys, "scan", "--n-max", "0", "--out", str(path))
    assert code == 1 and err.startswith("error: need 1 <= n_min")
    assert path.read_bytes() == b"n,k\r\nkept\n"
    # a scan that succeeds replaces the whole file
    assert run_cli(capsys, "scan", "--n-max", "5", "--out", str(path))[0] == 0
    assert path.read_bytes() == run_cli(capsys, "scan", "--n-max", "5")[1].encode()


def test_failed_scan_leaves_no_new_out_file(capsys, tmp_path):
    path = tmp_path / "new.csv"
    code, _, err = run_cli(capsys, "scan", "--n-max", "0", "--out", str(path))
    assert code == 1 and err.startswith("error: need 1 <= n_min")
    assert not path.exists()


def test_scan_out_may_be_a_device(capsys):
    # a device cannot be truncated; it is written as it is
    code, out, err = run_cli(capsys, "scan", "--n-max", "5", "--out", os.devnull)
    assert (code, out) == (0, "") and "0 violations" in err
