"""Differential check: ``equipart verify`` against the frozen whole-file reference.

``verify`` streams a JSON object whose last member is its sets, in any JSON
whitespace, one run at a time, each cut at the last comma of a read, so a
run may start or end inside a set; it reads any other file, and any file
the stream does not accept, whole. ``reference_verify`` is ``verify`` as it
was when it read every file whole. Both must print the same and exit with
the same code on every file tried: at read sizes down to one byte, in every
layout, valid or not, and on every malformed file the CLI tests pin.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_verify
from equipart import cli
from equipart.core import enumerate_instances, validate_instance
from equipart.solver import solve
from equipart.trace import render_trace


def verify_both(path, read):
    """(cli.main's code, stdout, stderr), the reference's, and whether
    cli.main accepted the file as it streamed it."""
    streamed = []
    stream = cli._streamed_instance

    def spy(*args):
        instance = stream(*args)  # what raises here is read whole as well
        streamed.append(instance is not None)
        return instance

    outputs = []
    for verify in (lambda: cli.main(["verify", path]), lambda: reference_verify.main(path)):
        with contextlib.ExitStack() as stack:
            patch = stack.enter_context(pytest.MonkeyPatch.context())
            patch.setattr(cli, "_READ", read)
            patch.setattr(cli, "_streamed_instance", spy)
            out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            code = verify()
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs[0], outputs[1], streamed == [True]


def check_file(content, read):
    """Assert that both verdicts agree on the file; return it and whether it streamed."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "candidate.json")
        with open(path, "wb") as handle:
            handle.write(content)
        got, want, streamed = verify_both(path, read)
    assert got == want, (content[:300], read)
    return got, streamed


def sets_text(sets, sep=", "):
    """The JSON array of the sets; an element may be a JSON token as a str."""
    return "[" + sep.join("[" + sep.join(map(str, members)) + "]" for members in sets) + "]"


# name -> (whether its sets close the object, so it streams, a template):
# {h} is solve's header without its trace, {s} the sets as solve writes
# them, {c} the sets without spaces, {nl} with a newline after each comma,
# {ind} as json.dumps(..., indent=1) writes them and {tc} with tabs and CRLF
LAYOUTS = {
    "solve": (True, '{{{h}, "trace": "{tr}", "sets": {s}}}\n'),
    "no-trace": (True, '{{{h}, "sets": {s}}}'),
    "whitespace-tail": (True, '{{{h}, "sets": {s}}} \r\n\t '),
    "compact-sets": (True, '{{{h}, "sets": {c}}}'),
    "compact": (True, '{{"n":{n},"k":{k},"t":{t},"sets":{c}}}'),
    "reordered": (True, '{{"k": {k}, "n": {n}, "t": {t}, "sets": {s}}}'),
    # json.dumps(dict(k=k, t=t, n=n, sets=sets), indent=1)
    "indent": (True, '{{\n "k": {k},\n "t": {t},\n "n": {n},\n "sets": {ind}\n}}'),
    "tabs-crlf": (True, '{{\t"n": {n},\r\n\t"k": {k},\r\n\t"t": {t},\r\n\t"sets":\t{tc}\r\n}}\r\n'),
    "sets-first": (False, '{{"sets": {s}, {h}}}'),
    "extra-key-before": (True, '{{{h}, "x": 1, "sets": {s}}}'),
    "extra-key-after": (False, '{{{h}, "sets": {s}, "x": 1}}'),
    "duplicate-sets-first": (False, '{{{h}, "sets": [[1]], "sets": {s}}}'),
    "duplicate-sets-last": (False, '{{{h}, "sets": {s}, "sets": [[1]]}}'),
    "trailing-data": (False, '{{{h}, "sets": {s}}} {{}}'),
    "trailing-bracket": (False, '{{{h}, "sets": {s}}}]'),
    "nested-sets-before": (False, '{{{h}, "meta": {{"sets": [[1]]}}, "sets": {s}}}'),
    "nested-sets-after": (False, '{{{h}, "sets": {s}, "meta": {{"sets": [[1]]}}}}'),
    "nested-file": (False, '{{"file": {{{h}, "sets": {s}}}}}'),
    "leading-space": (True, ' {{{h}, "sets": {s}}}'),
    "newline-in-sets": (True, '{{{h}, "sets": {nl}}}'),
    "escaped-trace": (True, '{{{h}, "trace": "\\u006d", "sets": {s}}}'),
    # JSON text must be UTF-8 without a BOM, or json.load of the file rejects it
    "utf8-bom": (False, '\ufeff{{{h}, "sets": {s}}}'),
    "utf16": (False, '{{{h}, "sets": {s}}}'),
    # in key order "sets" comes last, but the member that closes the object is "x"
    "repeated-key": (False, '{{{h}, "x": 1, "sets": 0, "x": {s}}}'),
    # not JSON whitespace, though bytes.strip() takes it
    "form-feed-tail": (False, '{{{h}, "sets": {s}}}\x0c'),
    # a token cut at the "[" that a stand-in 0 for the sets would complete
    "minus-before-sets": (False, '{{{h}, "sets": -{s}}}'),
    "digit-before-sets": (False, '{{{h}, "sets": 1{s}}}'),
}


def indented(sets):
    """The sets as json.dumps(..., indent=1) writes them one level down; an
    element may be a JSON token as a str."""
    rows = [
        "  [\n" + ",\n".join(f"   {x}" for x in members) + "\n  ]" if members else "  []" for members in sets
    ]
    return "[\n" + ",\n".join(rows) + "\n ]" if sets else "[]"


def render(layout, n, k, t, trace, sets):
    header = f'"n": {n}, "k": {k}, "t": {t}'
    spellings = {
        "s": sets_text(sets),
        "c": sets_text(sets, ","),
        "nl": sets_text(sets, ",\n"),
        "ind": indented(sets),
        "tc": sets_text(sets, ",\r\n\t"),
    }
    text = LAYOUTS[layout][1].format(h=header, n=n, k=k, t=t, tr=trace, **spellings)
    return text.encode("utf-16" if layout == "utf16" else "utf-8")


STREAMED = sorted(name for name, (streams, _) in LAYOUTS.items() if streams)
TOKENS = ["true", "false", "null", "1.0", "1e0", "1.5", "-0", "01", '"1"', "[1]", "[]", "1" * 5000, "{}"]
INSTANCES = [(n, k, t) for n in range(1, 41) for k, t in enumerate_instances(n)]
BYTES = b'[],.- 09e"{}x\n\t\r\x0b\x0c\xff'


@st.composite
def mutated(draw):
    """A solved instance and its sets, perhaps changed by one edit."""
    n, k, t = draw(st.sampled_from(INSTANCES))
    partition, trace = solve(validate_instance(n, k, t))
    sets = [list(members) for members in partition.sets]
    edit = draw(st.sampled_from(["none"] * 6 + ["element", "token", "move", "copy", "drop", "set", "header"]))
    i = draw(st.integers(0, k - 1))
    j = draw(st.integers(0, len(sets[i]) - 1))
    other = draw(st.integers(0, k - 1))
    if edit == "element":
        sets[i][j] = draw(st.integers(-n - 2, n + 2))
    elif edit == "token":
        sets[i][j] = draw(st.sampled_from(TOKENS))
    elif edit == "move":
        sets[other].append(sets[i].pop(j))
    elif edit == "copy":
        sets[other].append(sets[i][j])
    elif edit == "drop":
        del sets[i][j]
    elif edit == "set" and draw(st.booleans()):
        sets.insert(i, [])
    elif edit == "set":
        del sets[i]
    elif edit == "header":
        field = draw(st.sampled_from("nkt"))
        value = draw(st.sampled_from([0, 1, -1, 10**9]) | st.integers(1, 2 * n * n + 2))
        n, k, t = (value if name == field else old for name, old in zip("nkt", (n, k, t)))
    return n, k, t, render_trace(trace), sets, edit


@settings(max_examples=400, deadline=None)
@given(
    mutated(),
    st.sampled_from(STREAMED) | st.sampled_from(sorted(LAYOUTS)),
    st.sampled_from(["none"] * 3 + ["truncate", "insert", "replace"]),
    st.floats(0, 1),
    st.sampled_from(BYTES),
    st.integers(1, 40) | st.just(1 << 16),
)
def test_verify_matches_the_whole_file_reference(candidate, layout, damage, where, byte, read):
    n, k, t, trace, sets, edit = candidate
    streams = LAYOUTS[layout][0]
    content = render(layout, n, k, t, trace, sets)
    at = int(where * len(content))
    if damage == "truncate":
        content = content[:at]
    elif damage == "insert":
        content = content[:at] + bytes([byte]) + content[at:]
    elif damage == "replace":
        content = content[:at] + bytes([byte]) + content[at + 1 :]
    (code, out, _), streamed = check_file(content, read)
    event(f"exit {code}, {'streamed' if streamed else 'read whole'}")
    if streams and edit == "none" and damage == "none":
        assert (code, out) == (0, f"ok: valid partition of 1..{n} into {k} sets of sum {t}\n")
    assert code == 0 or not streamed  # the stream only ever accepts
    if damage == "none" and content != render("no-trace", n, k, t, trace, sets):
        # a partition whose sets close the object streams; no other file does
        assert streamed is (streams and code == 0), layout


def _solved_file(n, k):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["solve", "--n", str(n), "--k", str(k), "--format", "json"]) == 0
    return out.getvalue().encode("ascii")


@pytest.mark.parametrize(
    "edit,expected",  # (exit code, whether the file streamed)
    [("none", (0, True)), ("element", (2, False)), ("duplicate", (2, False)), ("tail", (0, True))],
)
def test_every_read_size_cuts_a_solve_file_the_same(edit, expected):
    # n = 40, k = 10: two-digit elements, so some read cuts inside a number,
    # and others inside each "], [" between sets
    content = _solved_file(40, 10)
    if edit == "element":
        content = content.replace(b"21, 40]", b"21, 39]")
    elif edit == "duplicate":
        content = content.replace(b"]]}", b", 1]]}")
    elif edit == "tail":  # not solve's layout, but the sets still close the object
        content = content.replace(b"]]}", b"]] }")
    assert (edit == "none") is (content == _solved_file(40, 10))
    for read in range(1, len(content) + 2):
        (code, _, _), streamed = check_file(content, read)
        assert (code, streamed) == expected, read


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_read_size_cuts_each_layout_the_same(layout):
    # a partition of (9, 3, 15) in each layout, read from one byte at a time
    # to the whole file: it streams, at every size, iff its sets close the object
    n, k, t = 9, 3, 15
    partition, trace = solve(validate_instance(n, k, t))
    sets = [list(members) for members in partition.sets]
    content = render(layout, n, k, t, render_trace(trace), sets)
    if layout == "indent":
        assert content == json.dumps({"k": k, "t": t, "n": n, "sets": sets}, indent=1).encode()
    streams = LAYOUTS[layout][0]
    for read in range(1, len(content) + 2):
        (code, _, _), streamed = check_file(content, read)
        assert streamed is streams and (code == 0 or not streams), read


def _compact(content):
    """A file in solve's layout with its sets written without spaces."""
    head, sets = content.split(b'"sets": [', 1)
    return head + b'"sets": [' + sets.replace(b", ", b",")


@pytest.mark.parametrize("layout", ["solve", "compact-sets"])
@pytest.mark.parametrize("n,k", [(40, 1), (99, 3)])
def test_every_read_size_cuts_sets_larger_than_a_read(n, k, layout):
    # each set is longer than most reads, so most runs start or end inside
    # a set, or both, and some reads hold no comma at all
    content = _solved_file(n, k)
    if layout == "compact-sets":
        content = _compact(content)
    for read in range(1, len(content) + 2):
        (code, _, _), streamed = check_file(content, read)
        assert (code, streamed) == (0, True), read


@pytest.mark.parametrize("layout", ["solve", "compact-sets"])
def test_no_decoded_run_holds_more_than_a_reads_elements(monkeypatch, tmp_path, layout):
    # (99999, 3): sets of 33,333 elements against reads of 1 KiB; in either
    # spelling an element and its comma take at least two bytes
    content = _solved_file(99999, 3)
    if layout == "compact-sets":
        content = _compact(content)
    path = tmp_path / "candidate.json"
    path.write_bytes(content)
    sizes = []
    real = cli.table_accepts

    def recording(instance, runs):
        def recorded():
            for lists, left_open in runs:
                sizes.append(sum(map(len, lists)))
                yield lists, left_open

        return real(instance, recorded())

    monkeypatch.setattr(cli, "table_accepts", recording)
    monkeypatch.setattr(cli, "_READ", 1 << 10)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", str(path)]) == 0
    assert out.getvalue() == f"ok: valid partition of 1..99999 into 3 sets of sum {99999 * 100000 // 6}\n"
    assert sum(sizes) == 99999 and len(sizes) > 99999 // 512
    assert max(sizes) <= (1 << 10) // 2 + 1


# the sets [1, 4], [2, 3], [5] of (5, 3, 5), spelled so that each run, cut
# at a comma, decodes, but the runs do not agree: a run must not continue a
# set the run before closed, nor open one while a set is left open, nor
# hold an empty part at a cut. Read at one comma a time, each of the first
# seven would be accepted as that partition without the check it breaks
DISAGREEING = {
    "int-between-sets": "[[1, 4], 2, 3], [5]]",
    "list-inside-a-set": "[[1, 4], [2, [3], [5]]",
    "double-comma-in-set": "[[1, 4], [2,, 3], [5]]",
    "comma-opening-a-set": "[[1, 4], [, 2, 3], [5]]",
    "comma-closing-a-set": "[[1, 4], [2, 3, ], [5]]",
    "comma-closing-a-set-at-the-end": "[[1, 4], [2, 3], [5, ]]",
    "int-after-sets": "[[1, 4], [2, 3], 5]",
    "list-closing-a-set": "[[1, 4], [2, 3, [5]]]",
    "empty-set-between": "[[1, 4], [], [2, 3], [5]]",
    "empty-set-last": "[[1, 4], [2, 3], [5], []]",
    "double-comma-between-sets": "[[1, 4],, [2, 3], [5]]",
    "comma-closing-the-sets": "[[1, 4], [2, 3], [5], ]",
}


@pytest.mark.parametrize("name", list(DISAGREEING))
def test_runs_whose_cuts_disagree_are_read_whole(name):
    content = f'{{"n": 5, "k": 3, "t": 5, "sets": {DISAGREEING[name]}}}'.encode()
    for read in range(1, len(content) + 2):
        (code, out, _), streamed = check_file(content, read)
        assert code != 0 and not out and not streamed, read


def test_a_run_with_a_list_inside_a_set_is_not_a_run_of_sets():
    # decodes as one set holding 1 and [2]; only the count of one [ per
    # decoded list rejects it, before table_accepts sums a set holding a list
    with pytest.raises(ValueError, match="not a run of integer sets"):
        cli._set_run(b"[1, [2]]", False, json.loads)


def test_a_large_solve_file_streams_in_many_runs():
    content = _solved_file(10**4, 5000)
    for read in (1 << 10, 1 << 16):
        (code, _, _), streamed = check_file(content, read)
        assert (code, streamed) == (0, True)


DEEP = 100_000  # far beyond the JSON decoder's recursion limit
PINNED = {  # the rejected files tests/test_cli.py pins, in solve's layout where they can be, and more
    "truncated": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2',
    "truncated-tail": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]',
    "not-utf8-after": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]}\xff',
    "not-utf8-in-sets": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4\xff]]}',
    "not-utf8-in-trace": b'{"n": 4, "k": 1, "t": 10, "trace": "\xff", "sets": [[1, 2, 3, 4]]}',
    "5000-digit-n": b'{"n": ' + b"1" * 5000 + b', "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]}',
    "5000-digit-element": b'{"n": 4, "k": 1, "t": 10, "sets": [[' + b"1" * 5000 + b", 2, 3, 4]]}",
    "true-element": b'{"n": 4, "k": 1, "t": 10, "sets": [[true, 2, 3, 4]]}',
    "float-element": b'{"n": 4, "k": 1, "t": 10, "sets": [[1.0, 2, 3, 4]]}',
    "fraction-element": b'{"n": 4, "k": 1, "t": 10, "sets": [[1.5, 2, 3, 4]]}',
    "float-header": b'{"n": 4.0, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]}',
    "true-header": b'{"n": 4, "k": true, "t": 10, "sets": [[1, 2, 3, 4]]}',
    "missing-key": b'{"n": 4, "k": 1, "sets": [[1]]}',
    "invalid-instance": b'{"n": 5, "k": 2, "t": 7, "sets": [[5, 2], [3, 4, 1]]}',
    "wrong-arity": b'{"n": 4, "k": 2, "t": 5, "sets": [[1, 2, 3, 4]]}',
    "duplicate-element": b'{"n": 9, "k": 3, "t": 15, "sets": [[6, 9], [7, 8], [1, 2, 3, 4, 5, 5]]}',
    "deep-nesting": b'{"n": 4, "k": 1, "t": 10, "sets": ' + b"[" * DEEP + b"]" * DEEP + b"}",
    "deep-sets": b'{"n": 4, "k": 1, "t": 10, "sets": [' + b"[" * DEEP + b"]" * DEEP + b"]}",
    "nested-set": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, [2], 3, 4]]}',
    "int-for-set": b'{"n": 4, "k": 2, "t": 5, "sets": [[[1, 4]], 5]}',
    # -1 marks cell 4 of 1..4, and its set sums to t: only the count of sets rejects it
    "negative-alias": b'{"n": 4, "k": 2, "t": 5, "sets": [[1, 2, 3, -1]]}',
    # 1 and -1 add nothing to the sum and mark cells 1 and 4 again: only the count of elements rejects it
    "extra-pair": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4, 1, -1]]}',
    "unclosed-object": b'{"n": 4, "k": 1, "t": 10, "sets": [[1, 2, 3, 4]]]',
    "not-an-object": b"[1, 2, 3]",
    "empty": b"",
}


@pytest.mark.parametrize("read", [1, 5, 1 << 16])
@pytest.mark.parametrize("name", list(PINNED))
def test_rejected_files_get_the_reference_verdict(name, read):
    (code, out, _), _ = check_file(PINNED[name], read)
    assert code != 0 and not out
