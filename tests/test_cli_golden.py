"""Golden command-line runs: exit code, report bytes and stderr per verb.

Each case writes small documents into a fresh directory, runs
``cli.main`` there with relative paths, and compares the exit code, the
exact stdout (or ``--output`` file) and the exact stderr with the values
recorded in ``cli_golden.json``.  The report's ``toolVersion`` is stored
as ``@VERSION@`` so a version bump alone does not change the file.

To record the file again after a deliberate change to the output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from cechfib import (
    abelian_coefficients, cech_nerve, cli, closed_star_cover,
    regular_action, star_cover, total_space, validate_gerbe_cocycle,
)
from cechfib import io as docio

import corpus

GOLDEN = Path(__file__).with_name("cli_golden.json")
VERSION_MARK = "@VERSION@"

Z2 = {"order": 2, "table": [[0, 1], [1, 0]]}
CIRCLE = {"maximal": [["a", "b"], ["a", "c"], ["b", "c"]]}


def circle_cocycle(twist=1, group=Z2):
    return {"cover": docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE)),
            "group": group, "values": {"a|b": 0, "b|c": 0, "a|c": twist}}


def circle_bundle():
    cocycle = docio.cocycle_from_doc(circle_cocycle())
    return docio.bundle_to_doc(total_space(cocycle, regular_action(corpus.Z2)))


def tetrahedron_gerbe(broken=False):
    cover = star_cover(corpus.FULL_3SIMPLEX)
    nerve = cech_nerve(cover)
    doc = docio.gerbe_to_doc(validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in nerve.keys(2)}, {t: 0 for t in nerve.keys(3)},
    ))
    if broken:
        doc["witnesses"]["0|1|2"] = 1
    return doc


def milnor(g10=1, group=Z2):
    return {"t": ["1/2", "1/2"], "g": {"0|0": 0, "1|1": 0, "0|1": 1, "1|0": g10},
            "group": group}


S3 = docio.group_to_doc(corpus.S3)
# a hexagon wrapping twice around the circle
DOUBLE_WRAP = {"source": {"maximal": [[f"h{i}", f"h{(i + 1) % 6}"] for i in range(6)]},
               "vertexMap": {f"h{i}": "abc"[i % 3] for i in range(6)}}


def docs(*named):
    return lambda: dict(named)


# case id -> (argv with document names, documents by name).  A name not
# among the documents is a file that does not exist; a string document is
# written as raw text.
CASES = {
    "validate-complex-true": (
        ["validate-complex", "--input", "x.json"], docs(("x.json", CIRCLE))),
    "validate-complex-false-repeat": (
        ["validate-complex", "--input", "x.json"],
        docs(("x.json", {"maximal": [["a", "a"]]}))),
    "validate-complex-false-shape": (
        ["validate-complex", "--input", "x.json"],
        docs(("x.json", {"maximal": "abc"}))),
    "homology-true": (
        ["homology", "--input", "x.json"],
        docs(("x.json", docio.complex_to_doc(corpus.RP2_SIX)))),
    "nerve-true": (
        ["nerve", "--input", "cover.json"],
        docs(("cover.json", docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE))))),
    "cover-check-true": (
        ["cover-check", "--input", "cover.json"],
        docs(("cover.json", docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE))))),
    "cover-check-false": (
        ["cover-check", "--input", "cover.json"],
        docs(("cover.json",
              docio.cover_to_doc(closed_star_cover(corpus.HOLLOW_TRIANGLE))))),
    "cocycle-check-true": (
        ["cocycle-check", "--input", "c.json"], docs(("c.json", circle_cocycle()))),
    "cocycle-check-false": (
        ["cocycle-check", "--input", "c.json"],
        docs(("c.json", {
            "cover": docio.cover_to_doc(star_cover(corpus.FULL_TRIANGLE)),
            "group": Z2, "values": {"a|b": 0, "b|c": 0, "a|c": 1}}))),
    "cocycle-equiv-true": (
        ["cocycle-equiv", "--input", "c1.json", "c2.json"],
        docs(("c1.json", circle_cocycle()), ("c2.json", circle_cocycle()))),
    "cocycle-equiv-false": (
        ["cocycle-equiv", "--input", "c1.json", "c2.json"],
        docs(("c1.json", circle_cocycle(1)), ("c2.json", circle_cocycle(0)))),
    "cocycle-equiv-budget": (
        ["cocycle-equiv", "--input", "c1.json", "c2.json", "--budget", "2"],
        docs(("c1.json", circle_cocycle(3, S3)), ("c2.json", circle_cocycle(0, S3)))),
    "bundle-build-direct": (
        ["bundle-build", "--input", "c.json"], docs(("c.json", circle_cocycle()))),
    "bundle-build-skeletal-output": (
        ["bundle-build", "--input", "c.json", "--mode", "skeletal",
         "--output", "report.json"],
        docs(("c.json", circle_cocycle()))),
    "pullback-true": (
        ["pullback", "--input", "bundle.json", "map.json"],
        docs(("bundle.json", circle_bundle()), ("map.json", DOUBLE_WRAP))),
    "classify-true": (
        ["classify", "--input", "cover.json", "group.json"],
        docs(("cover.json", docio.cover_to_doc(star_cover(corpus.HOLLOW_TRIANGLE))),
             ("group.json", Z2))),
    "classify-budget": (
        ["classify", "--input", "cover.json", "group.json", "--budget", "1"],
        docs(("cover.json", docio.cover_to_doc(star_cover(corpus.TORUS_SEVEN))),
             ("group.json", S3))),
    "gerbe-check-true": (
        ["gerbe-check", "--input", "g.json"], docs(("g.json", tetrahedron_gerbe()))),
    "gerbe-check-false": (
        ["gerbe-check", "--input", "g.json"],
        docs(("g.json", tetrahedron_gerbe(broken=True)))),
    "gerbe-class-true": (
        ["gerbe-class", "--input", "g.json"], docs(("g.json", tetrahedron_gerbe()))),
    "bar-homology-true": (
        ["bar-homology", "--input", "z2.json", "--max-degree", "3"],
        docs(("z2.json", Z2))),
    "milnor-check-true": (
        ["milnor-check", "--input", "m.json"], docs(("m.json", milnor()))),
    "milnor-check-false-context": (
        ["milnor-check", "--input", "m.json"], docs(("m.json", milnor(0, S3)))),
    "one-input-verb-given-two": (
        ["homology", "--input", "x.json", "y.json"],
        docs(("x.json", CIRCLE), ("y.json", CIRCLE))),
    "two-input-verb-given-one": (
        ["classify", "--input", "group.json"], docs(("group.json", Z2))),
    "two-input-verb-given-three": (
        ["pullback", "--input", "a.json", "a.json", "a.json"],
        docs(("a.json", CIRCLE))),
    "missing-file": (
        ["nerve", "--input", "nope.json"], docs()),
    "missing-second-file": (
        ["homology", "--input", "x.json", "nope.json"], docs(("x.json", CIRCLE))),
    "not-json": (
        ["gerbe-class", "--input", "x.json"], docs(("x.json", "not json"))),
}


def run_case(case_id, directory: Path, capsys) -> dict:
    argv, make_docs = CASES[case_id]
    for name, doc in make_docs().items():
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / name).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    captured = capsys.readouterr()
    out = directory / "report.json"
    result = {
        "code": code,
        "stdout": captured.out,
        "stderr": captured.err,
        "output": out.read_text(encoding="utf-8") if out.exists() else None,
    }
    for key in ("stdout", "output"):
        if result[key]:
            result[key] = result[key].replace(
                f'"toolVersion": "{cli.__version__}"',
                f'"toolVersion": "{VERSION_MARK}"')
    return result


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_verb_has_a_passing_case():
    recorded = golden()
    passing = {CASES[c][0][0] for c in recorded if recorded[c]["code"] == 0}
    assert passing == set(cli._VERBS)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_cli_run_matches_golden(case_id, tmp_path, capsys):
    assert run_case(case_id, tmp_path, capsys) == golden()[case_id]


def _record() -> None:
    import tempfile

    class Capture:
        """Just enough of pytest's ``capsys`` to record outside pytest."""

        def __init__(self):
            import io
            self.out, self.err = io.StringIO(), io.StringIO()

        def readouterr(self):
            captured = type("Captured", (), {
                "out": self.out.getvalue(), "err": self.err.getvalue()})
            self.out.seek(0), self.out.truncate()
            self.err.seek(0), self.err.truncate()
            return captured

    recorded = {}
    for case_id in sorted(CASES):
        capture = Capture()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = capture.out, capture.err
        try:
            with tempfile.TemporaryDirectory() as d:
                recorded[case_id] = run_case(case_id, Path(d), capture)
        finally:
            sys.stdout, sys.stderr = saved
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    _record()
