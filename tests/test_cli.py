import csv
import io
import json
import resource
import subprocess
import sys

import pytest

from equipart.cli import main
from equipart.core import triangular, validate_instance
from equipart.solver import solve
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
    # (9999, 3): sets near the writer's chunk size; (10000, 2500): many chunks
    # of tiny sets
    instance = validate_instance(n, k, triangular(n) // k)
    partition, trace = solve(instance)
    payload = {"n": n, "k": k, "t": instance.t, "trace": render_trace(trace), "sets": partition.sets}
    code, out, _ = run_cli(capsys, "solve", "--n", str(n), "--k", str(k), "--format", "json")
    assert code == 0
    assert out == json.dumps(payload) + "\n"


def _limit_address_space():
    # 1 GiB, far below the 8 GB label array of n = 10^9
    limit = 1 << 30
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


@pytest.mark.parametrize("command", ["solve", "trace"])
def test_instance_too_large_for_memory_exits_1_without_traceback(command):
    done = subprocess.run(
        [sys.executable, "-m", "equipart", command, "--n", "1000000000", "--k", "1"],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 1
    assert "error: not enough memory" in done.stderr
    assert "Traceback" not in done.stderr


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


def test_verify_rejects_invalid_instance(capsys, tmp_path):
    path = _write(tmp_path, {"n": 5, "k": 2, "t": 7, "sets": [[5, 2], [3, 4, 1]]})
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 1
    assert "error:" in err


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


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "4", "--k", "2")
    assert code == 0
    assert out.startswith("n=4 k=2 t=5\n")
    assert "set 1:" in out
    code, _, err = run_cli(capsys, "oracle", "--n", "31", "--k", "16")
    assert code == 1
    assert "cap" in err


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
