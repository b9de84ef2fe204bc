"""``cli.main`` against the exit-code contract, fuzzed in process.

Every verb is fed generated JSON and mutated copies of the golden
corpus documents: dropped keys, values of the wrong type, booleans for
integers, odd labels and wrong document counts.  Whatever the input,
the exit code is 0, 1, 2 or 3, no exception escapes ``main``, exit codes
0 and 1 write a report with a matching verdict, exit codes 2 and 3
write nothing, and a second run gives the same bytes.

Inputs that once crashed a loader are kept below as ``@example`` cases.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cechfib import cli

from test_cli_golden import CASES, CIRCLE, circle_cocycle, milnor

VERBS = sorted(cli._VERBS)


def _seed_calls():
    """(verb, documents, extra arguments) of every golden case whose
    input files all exist and hold JSON."""
    seeds = []
    for argv, make_docs in CASES.values():
        docs = make_docs()
        names = []
        for arg in argv[2:]:
            if arg.startswith("--"):
                break
            names.append(arg)
        extra = argv[2 + len(names):]
        if "--output" in extra or not all(
                name in docs and not isinstance(docs[name], str) for name in names):
            continue
        seeds.append((argv[0], [docs[name] for name in names], extra))
    return seeds


SEEDS = _seed_calls()

KEYS = ["maximal", "base", "parts", "cover", "group", "values", "order",
        "table", "t", "g", "crossedModule", "baseGroup", "fiberGroup",
        "boundary", "action", "witnesses", "fiber", "projection", "total",
        "source", "vertexMap", "a|b", "0|1", "0|1|2"]
ODD_LABELS = ["", "|", "a|b", "a||b", "0", "-1", "1/0", "x", -1, 2**64, 1.5,
              True, False, None, [], {}, ["a"], {"a": 0}]

scalars = (st.none() | st.booleans() | st.integers(-3, 6)
           | st.sampled_from([2**64, 1.0, 0.5, -0.0])
           | st.sampled_from(["", "a", "b", "0", "1", "a|b", "1/2", "x"]))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                      max_size=4),
    max_leaves=12,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for pos, item in enumerate(value):
            yield from _paths(item, prefix + (pos,))


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        kind = draw(st.sampled_from(["drop", "retype", "bool", "label", "key"]))
        if not path:
            if kind == "retype":
                doc = draw(json_values)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if kind == "drop":
            del parent[last]
        elif kind == "retype":
            parent[last] = draw(json_values)
        elif kind == "bool":
            parent[last] = draw(st.booleans())
        elif kind == "label":
            parent[last] = copy.deepcopy(draw(st.sampled_from(ODD_LABELS)))
        elif isinstance(parent, dict):
            key = draw(st.sampled_from([k for k in ODD_LABELS if isinstance(k, str)]))
            parent[key] = parent.pop(last)
    return doc


# file contents that are no JSON text: written as they are
raw_files = st.binary(max_size=8) | st.sampled_from(
    [b"", b"{", b"\xef\xbb\xbf{}", b"[1, 2,]", b"NaN", b"{} {}"])


@st.composite
def cli_calls(draw):
    kind = draw(st.integers(0, 7))
    if kind == 0:
        verb = draw(st.sampled_from(VERBS))
        docs = draw(st.lists(json_values, min_size=1, max_size=3))
        return verb, docs, []
    if kind == 1:
        verb = draw(st.sampled_from(VERBS))
        return verb, draw(st.lists(raw_files | json_values, min_size=1, max_size=2)), []
    verb, docs, extra = draw(st.sampled_from(SEEDS))
    docs = [draw(_mutated(doc)) if draw(st.booleans()) else doc for doc in docs]
    count = draw(st.sampled_from(["keep", "keep", "keep", "drop", "repeat"]))
    if count == "drop" and len(docs) > 1:
        docs = docs[1:]
    elif count == "repeat":
        docs = docs + docs[:1]
    return verb, docs, list(extra)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cli_calls())
# once a UnicodeDecodeError traceback under exit 1
@example(("homology", [b"\xff\xfe{}"], []))
# once a RecursionError traceback under exit 1
@example(("nerve", [b"[" * 100_000 + b"]" * 100_000], []))
# once an IndexError from validate_milnor_point under exit 1
@example(("milnor-check", [{"t": ["1/2", "1/2"],
                            "g": {"0|0": 2, "1|1": 0, "0|1": 1, "1|0": 1},
                            "group": {"order": 2, "table": [[0, 1], [1, 0]]}}], []))
def test_cli_main_keeps_the_exit_code_contract(call):
    verb, docs, extra = call
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for i, doc in enumerate(docs):
            paths.append(os.path.join(d, f"doc{i}.json"))
            with open(paths[-1], "wb") as f:
                f.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        argv = [verb, "--input", *paths, *extra]
        code, out, err = _run(argv)
        assert code in (cli.EXIT_TRUE, cli.EXIT_FALSE, cli.EXIT_INPUT, cli.EXIT_BUDGET)
        if code in (cli.EXIT_TRUE, cli.EXIT_FALSE):
            report = json.loads(out)
            assert report["verdict"] is (code == cli.EXIT_TRUE)
            assert report["command"] == verb
            assert err == ""
        else:
            assert out == ""
            assert err.startswith("cechfib: ")
        assert _run(argv) == (code, out, err)


def test_cli_input_that_is_a_directory_is_an_input_error(tmp_path):
    """Once an IsADirectoryError traceback under exit 1."""
    code, out, err = _run(["homology", "--input", str(tmp_path)])
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err.startswith(f"cechfib: input error: input file {str(tmp_path)!r} "
                          "is not readable UTF-8: ")


def test_cli_output_that_cannot_be_written_is_an_input_error(tmp_path):
    """Once a FileNotFoundError or IsADirectoryError traceback under
    exit 1, which says a report was written."""
    doc = tmp_path / "x.json"
    doc.write_text('{"maximal": [["a", "b"]]}', encoding="utf-8")
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        code, out, err = _run(["homology", "--input", str(doc),
                               "--output", str(target)])
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err.startswith(f"cechfib: input error: cannot write report "
                              f"to {str(target)!r}: ")
        assert err.count("\n") == 1


def test_every_verb_checks_its_document_count(tmp_path):
    """A wrong number of documents is an input error for every verb,
    validate-complex included (it once reported a false verdict)."""
    path = tmp_path / "x.json"
    path.write_text('{"maximal": [["a"]]}', encoding="utf-8")
    for verb in VERBS:
        wanted = cli._VERBS[verb].inputs
        for count in {1, 2, 3} - {wanted}:
            noun = "document" if wanted == 1 else "documents"
            assert _run([verb, "--input", *[str(path)] * count]) == (
                cli.EXIT_INPUT, "",
                f"cechfib: input error: expected {wanted} input {noun}, got {count}\n")


Z3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}


def _cocycle_with(**changes):
    return {**circle_cocycle(), **changes}


REFUSALS = {
    "group-empty-table": (
        "bar-homology", [{"table": []}], "group table is empty"),
    "group-short-row": (
        "bar-homology", [{"table": [[0, 1], [1]]}],
        "table row 1 has length 1, want 2"),
    "group-entry-out-of-range": (
        "bar-homology", [{"table": [[0, 1], [1, 2]]}],
        "table entry 2 out of range 0..1"),
    "group-order-mismatch": (
        "bar-homology", [{"order": 3, "table": [[0, 1], [1, 0]]}],
        "declared order does not match the table"),
    "cocycle-key-three-indices": (
        "cocycle-check", [_cocycle_with(values={"a|b": 0, "b|c": 0, "a|b|c": 1})],
        "key 'a|b|c' does not name 2 indices"),
    "milnor-t-not-a-list": (
        "milnor-check", [{**milnor(), "t": "1/2"}],
        '"t" must be a list of rationals'),
    "cover-without-parts": (
        "nerve", [{"base": CIRCLE, "parts": {}}], "cover has no parts"),
    "bundle-build-action-shape": (
        "bundle-build",
        [_cocycle_with(action={"fiber": ["x", "y"], "table": [[0, 1]]})],
        "action table has wrong shape"),
    "cocycle-equiv-different-groups": (
        "cocycle-equiv", [circle_cocycle(), circle_cocycle(0, Z3)],
        "cocycles take values in different groups"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_cli_refusal_names_the_fault(case, tmp_path):
    """Each input fault exits 2 with nothing on stdout and one stderr
    line that names it."""
    verb, docs, message = REFUSALS[case]
    paths = []
    for i, doc in enumerate(docs):
        paths.append(str(tmp_path / f"doc{i}.json"))
        with open(paths[-1], "w", encoding="utf-8") as f:
            json.dump(doc, f)
    assert _run([verb, "--input", *paths]) == (
        cli.EXIT_INPUT, "", f"cechfib: input error: {message}\n")
