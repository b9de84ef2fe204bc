import json

import pytest

from cechfib import (
    build_complex, cli, from_homomorphism, star_cover, trivial_cocycle,
)
from cechfib import io as docio

import corpus


HOLLOW_DOC = {"maximal": [["a", "b"], ["a", "c"], ["b", "c"]]}
Z2_DOC = {"order": 2, "table": [[0, 1], [1, 0]]}


def star_cover_doc(x):
    return docio.cover_to_doc(star_cover(x))


def circle_cocycle_doc(g02=1):
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    return {
        "cover": docio.cover_to_doc(cover),
        "group": Z2_DOC,
        "values": {"a|b": 0, "b|c": 0, "a|c": g02},
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_complex_round_trip():
    x = corpus.RP2_SIX
    doc = docio.complex_to_doc(x)
    back = docio.complex_from_doc(doc)
    assert {tuple(sorted(map(str, s))) for s in back.maximal_simplices} == \
        {tuple(sorted(map(str, s))) for s in x.maximal_simplices}


def test_cover_round_trip():
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    doc = docio.cover_to_doc(cover)
    back = docio.cover_from_doc(doc)
    assert sorted(back.parts) == ["a", "b", "c"]


def test_group_round_trip():
    doc = docio.group_to_doc(corpus.S3)
    back = docio.group_from_doc(doc)
    assert back.table == corpus.S3.table


def test_cocycle_round_trip():
    doc = circle_cocycle_doc()
    cocycle = docio.cocycle_from_doc(doc)
    assert docio.cocycle_to_doc(cocycle)["values"] == doc["values"]

    # integer labels: "10" sorts before "9" once the cover is reloaded
    dodecagon = build_complex([[i, (i + 1) % 12] for i in range(12)])
    cover = star_cover(dodecagon)
    for cocycle in (trivial_cocycle(cover, corpus.Z2),
                    from_homomorphism((1,), cover, corpus.Z3)):
        back = docio.cocycle_from_doc(docio.cocycle_to_doc(cocycle))
        assert {
            pair: back.value(*pair) for pair in back.values
        } == {
            pair: cocycle.value(*map(int, pair)) for pair in back.values
        }


def test_gerbe_round_trip():
    from cechfib import abelian_coefficients, cech_nerve, validate_gerbe_cocycle

    cover = star_cover(corpus.BOUNDARY_3SIMPLEX)
    nerve = cech_nerve(cover)
    pairs = sorted(k for k in nerve.witnesses if len(k) == 2)
    triples = sorted(k for k in nerve.witnesses if len(k) == 3)
    data = validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in pairs},
        {t: (1 if t == triples[0] else 0) for t in triples},
    )
    doc = docio.gerbe_to_doc(data)
    back = docio.gerbe_from_doc(doc)
    assert len(back.witnesses) == 4
    assert sum(back.witnesses.values()) == 1


def test_gerbe_round_trip_over_integer_labels():
    from cechfib import adjoint_crossed_module, validate_gerbe_cocycle

    # "10" sorts before "9" once the cover is reloaded; the hollow
    # triangle's nerve has no triple, so its edges alone must be re-keyed
    cover = star_cover(build_complex([[9, 10], [10, 11], [9, 11]]))
    values = {(9, 10): 1, (10, 11): 2, (9, 11): 1}
    for module in (adjoint_crossed_module(corpus.Z3),
                   adjoint_crossed_module(corpus.Z2)):
        data = validate_gerbe_cocycle(
            cover, module, {p: v % module.base.order for p, v in values.items()}, {})
        back = docio.gerbe_from_doc(docio.gerbe_to_doc(data))
        assert {(a, b): back.edge(str(a), str(b))
                for a in (9, 10, 11) for b in (9, 10, 11)} == \
            {(a, b): data.edge(a, b) for a in (9, 10, 11) for b in (9, 10, 11)}


def test_gerbe_to_doc_refuses_a_triple_that_strings_reorder():
    from cechfib import ValidationError, abelian_coefficients, validate_gerbe_cocycle

    cover = star_cover(build_complex(
        [[9, 10, 11], [9, 10, 12], [9, 11, 12], [10, 11, 12]]))
    data = validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in cover.nerve.keys(2)}, {t: 0 for t in cover.nerve.keys(3)})
    with pytest.raises(ValidationError) as info:
        docio.gerbe_to_doc(data)
    assert str(info.value) == (
        "cannot write the witness at (9, 10, 11): its labels sort "
        "differently as strings")
    assert info.value.details == {"triple": (9, 10, 11)}


def test_bundle_round_trip():
    from cechfib import regular_action, total_space, validate_cocycle

    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    c = validate_cocycle(
        cover, corpus.Z2, {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1}
    )
    bundle = total_space(c, regular_action(corpus.Z2))
    doc = docio.bundle_to_doc(bundle)
    back = docio.bundle_from_doc(doc)
    assert len(back.total.vertices) == 6
    assert len(back.fiber) == 2


def test_cli_homology_verbs(tmp_path, capsys):
    path = write(tmp_path, "x.json", HOLLOW_DOC)
    code, report = run(capsys, "homology", "--input", path)
    assert code == cli.EXIT_TRUE
    assert report["details"]["betti"] == [1, 1]
    assert report["verdict"] is True


def test_cli_validate_complex_rejects_repeat(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"maximal": [["a", "a"]]})
    code, report = run(capsys, "validate-complex", "--input", path)
    assert code == cli.EXIT_FALSE
    assert report["verdict"] is False


def test_cli_nerve(tmp_path, capsys):
    path = write(tmp_path, "cover.json", star_cover_doc(corpus.HOLLOW_TRIANGLE))
    code, report = run(capsys, "nerve", "--input", path)
    assert code == cli.EXIT_TRUE
    assert report["details"]["nerve"]["maximal"] == [
        ["a", "b"], ["a", "c"], ["b", "c"]
    ]


def test_cli_cover_check_good_and_bad(tmp_path, capsys):
    good = write(tmp_path, "good.json", star_cover_doc(corpus.HOLLOW_TRIANGLE))
    code, report = run(capsys, "cover-check", "--input", good)
    assert code == cli.EXIT_TRUE and report["verdict"] is True

    square = build_complex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    bad_doc = {
        "base": docio.complex_to_doc(square),
        "parts": {
            "A": {"maximal": [["a", "b"], ["b", "c"]]},
            "B": {"maximal": [["c", "d"], ["a", "d"]]},
        },
    }
    bad = write(tmp_path, "bad.json", bad_doc)
    code, report = run(capsys, "cover-check", "--input", bad)
    assert code == cli.EXIT_FALSE
    assert report["details"]["failures"][0]["intersection"] == ["A", "B"]


def test_cli_cocycle_check_valid(tmp_path, capsys):
    path = write(tmp_path, "c.json", circle_cocycle_doc())
    code, report = run(capsys, "cocycle-check", "--input", path)
    assert code == cli.EXIT_TRUE


def test_cli_cocycle_check_broken_triple(tmp_path, capsys):
    cover = star_cover(corpus.FULL_TRIANGLE)
    doc = {
        "cover": docio.cover_to_doc(cover),
        "group": Z2_DOC,
        "values": {"a|b": 0, "b|c": 0, "a|c": 1},
    }
    path = write(tmp_path, "broken.json", doc)
    code, report = run(capsys, "cocycle-check", "--input", path)
    assert code == cli.EXIT_FALSE
    assert report["details"]["context"]["triple"] == ["a", "b", "c"]


def test_cli_cocycle_equiv(tmp_path, capsys):
    p1 = write(tmp_path, "c1.json", circle_cocycle_doc(1))
    p2 = write(tmp_path, "c2.json", circle_cocycle_doc(0))
    code, report = run(capsys, "cocycle-equiv", "--input", p1, p2)
    assert code == cli.EXIT_FALSE and report["verdict"] is False
    code, report = run(capsys, "cocycle-equiv", "--input", p1, p1)
    assert code == cli.EXIT_TRUE and "bridge" in report["details"]


def test_cli_bundle_build_modes_agree(tmp_path, capsys):
    path = write(tmp_path, "c.json", circle_cocycle_doc())
    code, direct = run(capsys, "bundle-build", "--input", path, "--mode", "direct")
    assert code == cli.EXIT_TRUE
    code, skeletal = run(
        capsys, "bundle-build", "--input", path, "--mode", "skeletal"
    )
    assert code == cli.EXIT_TRUE
    assert direct["details"]["bundle"]["total"] == \
        skeletal["details"]["bundle"]["total"]


def test_cli_pullback(tmp_path, capsys):
    path = write(tmp_path, "c.json", circle_cocycle_doc())
    code, built = run(capsys, "bundle-build", "--input", path)
    bundle_doc = built["details"]["bundle"]
    bpath = write(tmp_path, "bundle.json", bundle_doc)
    map_doc = {
        "source": {"maximal": [["z"]]},
        "vertexMap": {"z": "a"},
    }
    mpath = write(tmp_path, "map.json", map_doc)
    code, report = run(capsys, "pullback", "--input", bpath, mpath)
    assert code == cli.EXIT_TRUE
    assert len(report["details"]["bundle"]["fiber"]) == 2


def test_cli_classify(tmp_path, capsys):
    cpath = write(tmp_path, "cover.json", star_cover_doc(corpus.HOLLOW_TRIANGLE))
    gpath = write(tmp_path, "group.json", Z2_DOC)
    code, report = run(capsys, "classify", "--input", cpath, gpath)
    assert code == cli.EXIT_TRUE
    assert report["details"]["classes"] == 2
    assert report["details"]["homClasses"] == 2


def test_cli_gerbe_verbs(tmp_path, capsys):
    from cechfib import abelian_coefficients, cech_nerve, validate_gerbe_cocycle

    cover = star_cover(corpus.BOUNDARY_3SIMPLEX)
    nerve = cech_nerve(cover)
    pairs = sorted(k for k in nerve.witnesses if len(k) == 2)
    triples = sorted(k for k in nerve.witnesses if len(k) == 3)
    data = validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in pairs},
        {t: (1 if t == triples[0] else 0) for t in triples},
    )
    path = write(tmp_path, "gerbe.json", docio.gerbe_to_doc(data))
    code, report = run(capsys, "gerbe-check", "--input", path)
    assert code == cli.EXIT_TRUE
    code, report = run(capsys, "gerbe-class", "--input", path)
    assert code == cli.EXIT_TRUE
    assert report["details"]["classCount"] == 2
    assert any(report["details"]["classLabel"])


def test_cli_gerbe_class_builds_one_classifier(tmp_path, capsys, monkeypatch):
    """The label and the class count come from one classifier; data over
    a nontrivial base exit 2 with the library's message."""
    from cechfib import (
        abelian_coefficients, adjoint_crossed_module, cech_nerve, gerbes,
        validate_gerbe_cocycle,
    )

    built = []
    real_init = gerbes.CechClassifier.__init__

    def counting(self, nerve, coefficients):
        built.append(coefficients)
        real_init(self, nerve, coefficients)

    monkeypatch.setattr(gerbes.CechClassifier, "__init__", counting)
    cover = star_cover(corpus.BOUNDARY_3SIMPLEX)
    nerve = cech_nerve(cover)
    pairs, triples = nerve.keys(2), nerve.keys(3)
    data = validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2), {p: 0 for p in pairs},
        {t: (1 if t == triples[0] else 0) for t in triples},
    )
    path = write(tmp_path, "gerbe.json", docio.gerbe_to_doc(data))
    code, report = run(capsys, "gerbe-class", "--input", path)
    assert code == cli.EXIT_TRUE
    assert report["details"] == {"classCount": 2, "classLabel": [0, 0, 0, 1]}
    assert len(built) == 1

    data = validate_gerbe_cocycle(
        cover, adjoint_crossed_module(corpus.Z2), {p: 0 for p in pairs},
        {t: 0 for t in triples},
    )
    path = write(tmp_path, "bad.json", docio.gerbe_to_doc(data))
    assert cli.main(["gerbe-class", "--input", path]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "cechfib: input error: base group must be trivial\n"
    )
    assert len(built) == 1


def test_cli_bar_homology(tmp_path, capsys):
    path = write(tmp_path, "z2.json", Z2_DOC)
    code, report = run(capsys, "bar-homology", "--input", path, "--max-degree", "3")
    assert code == cli.EXIT_TRUE
    assert report["details"]["betti"] == [1, 0, 0, 0]
    assert report["details"]["torsion"] == [[], [2], [], [2]]


def test_cli_milnor_check(tmp_path, capsys):
    good = write(tmp_path, "m.json", {
        "t": ["1/2", "1/2"],
        "g": {"0|0": 0, "1|1": 0, "0|1": 1, "1|0": 1},
        "group": Z2_DOC,
    })
    code, report = run(capsys, "milnor-check", "--input", good)
    assert code == cli.EXIT_TRUE
    bad = write(tmp_path, "mbad.json", {
        "t": ["1/2", "1/2"],
        "g": {"0|0": 0, "1|1": 0, "0|1": 1, "1|0": 0},
        "group": docio.group_to_doc(corpus.S3),
    })
    code, report = run(capsys, "milnor-check", "--input", bad)
    assert code == cli.EXIT_FALSE


def test_cli_missing_file_is_input_error(tmp_path, capsys):
    code = cli.main(["homology", "--input", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_INPUT


def test_cli_budget_exit_code(tmp_path, capsys):
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    s3_doc = docio.group_to_doc(corpus.S3)
    c1 = {
        "cover": docio.cover_to_doc(cover),
        "group": s3_doc,
        "values": {"a|b": 0, "b|c": 0, "a|c": 3},
    }
    c2 = {
        "cover": docio.cover_to_doc(cover),
        "group": s3_doc,
        "values": {"a|b": 0, "b|c": 0, "a|c": 0},
    }
    p1 = write(tmp_path, "c1.json", c1)
    p2 = write(tmp_path, "c2.json", c2)
    code = cli.main(["cocycle-equiv", "--input", p1, p2, "--budget", "2"])
    assert code == cli.EXIT_BUDGET


def test_cli_cocycle_equiv_over_different_covers(tmp_path, capsys):
    from cechfib import closed_star_cover

    star = star_cover(corpus.HOLLOW_TRIANGLE)
    arcs = closed_star_cover(star.base)
    p1 = write(tmp_path, "c1.json", circle_cocycle_doc())
    p2 = write(tmp_path, "c2.json",
               docio.cocycle_to_doc(trivial_cocycle(arcs, corpus.Z2)))
    out = tmp_path / "report.json"
    code = cli.main(["cocycle-equiv", "--input", p1, p2, "--output", str(out)])
    assert code == cli.EXIT_INPUT
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_cli_check_verbs_split_input_errors_from_broken_laws(tmp_path, capsys):
    """A malformed cover is an input error (exit 2, no report); a broken
    law is a validated false (exit 1) whose report names the law."""
    from cechfib import abelian_coefficients, cech_nerve, validate_gerbe_cocycle

    cover = star_cover(corpus.FULL_3SIMPLEX)
    nerve = cech_nerve(cover)
    witnesses = {t: 0 for t in nerve.keys(3)}
    gerbe = docio.gerbe_to_doc(validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in nerve.keys(2)}, witnesses,
    ))
    cocycle = circle_cocycle_doc()
    stray_part = {"maximal": [["zz"]]}
    for verb, doc in (("cocycle-check", cocycle), ("gerbe-check", gerbe)):
        bad = json.loads(json.dumps(doc))
        bad["cover"]["parts"]["a" if verb == "cocycle-check" else "0"] = stray_part
        code, report = run(capsys, verb, "--input", write(tmp_path, "bad.json", bad))
        assert (code, report) == (cli.EXIT_INPUT, None)
        del bad["cover"]["base"]
        code, report = run(capsys, verb, "--input", write(tmp_path, "bad.json", bad))
        assert (code, report) == (cli.EXIT_INPUT, None)

    broken = json.loads(json.dumps(gerbe))
    broken["witnesses"]["0|1|2"] = 1
    code, report = run(capsys, "gerbe-check", "--input",
                       write(tmp_path, "broken.json", broken))
    assert code == cli.EXIT_FALSE and report["verdict"] is False
    assert report["details"]["context"] == {
        "law": "tetrahedron", "tuple": ["0", "1", "2", "3"]}


def test_cli_reports_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "x.json", HOLLOW_DOC)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["homology", "--input", path, "--output", str(out1)]) == 0
    assert cli.main(["homology", "--input", path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_writes_no_output_on_input_error(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main([
        "homology", "--input", str(tmp_path / "nope.json"),
        "--output", str(out),
    ])
    assert code == cli.EXIT_INPUT
    assert not out.exists()


def test_cli_matches_library_results(tmp_path, capsys):
    """Golden parity: the CLI verb reproduces the library call exactly."""
    from cechfib import homology

    for x in (corpus.RP2_SIX, corpus.TORUS_SEVEN):
        path = write(tmp_path, "x.json", docio.complex_to_doc(x))
        code, report = run(capsys, "homology", "--input", path,
                           "--max-degree", "2")
        direct = homology(x, 2)
        assert report["details"]["betti"] == list(direct.betti_numbers())
        assert report["details"]["torsion"] == [
            list(t) for t in direct.torsion()
        ]


@pytest.mark.parametrize("maximal", [
    "abc",                # a string, not a list of simplices
    [["a", "b"], "c"],    # one simplex is a string
    5,                    # not a list at all
    [[1, [2]]],           # a vertex label that is a list
    [[1], ["a"]],         # labels that cannot be ordered together
], ids=["string", "string-simplex", "number", "list-label", "mixed-labels"])
def test_cli_complex_documents_keep_the_input_contract(tmp_path, capsys, maximal):
    """A malformed "maximal" is validated false by validate-complex and an
    input error (exit 2, no report) for every other verb."""
    path = write(tmp_path, "bad.json", {"maximal": maximal})
    code, report = run(capsys, "validate-complex", "--input", path)
    assert code == cli.EXIT_FALSE
    assert report["verdict"] is False
    out = tmp_path / "report.json"
    code = cli.main(["homology", "--input", path, "--output", str(out)])
    assert code == cli.EXIT_INPUT
    assert not out.exists()


def test_cli_cocycle_equiv_checks_one_nerve_per_pair(tmp_path, capsys, monkeypatch):
    """Two documents over one cover share the first one's nerve, so its
    goodness is checked once."""
    from cechfib import covers

    calls = []
    real = covers.is_good_cover

    def counting(cover):
        calls.append(cover)
        return real(cover)

    monkeypatch.setattr(covers, "is_good_cover", counting)
    p1 = write(tmp_path, "c1.json", circle_cocycle_doc(1))
    p2 = write(tmp_path, "c2.json", circle_cocycle_doc(0))
    code, report = run(capsys, "cocycle-equiv", "--input", p1, p2)
    assert code == cli.EXIT_FALSE and report["verdict"] is False
    assert len(calls) == 1



def test_cli_cocycle_equiv_reads_a_shared_cover_once(tmp_path, capsys, monkeypatch):
    """Equal "cover" entries are parsed once (JSON objects are equal in
    any key order); a base listing its simplices in another order is
    parsed again, found equal, and still shares the nerve."""
    from cechfib import covers

    parsed, checked = [], []
    real_parse, real_good = docio.cover_from_doc, covers.is_good_cover
    monkeypatch.setattr(docio, "cover_from_doc",
                        lambda doc: parsed.append(doc) or real_parse(doc))
    monkeypatch.setattr(covers, "is_good_cover",
                        lambda cover: checked.append(cover)
                        or real_good(cover))
    p1 = write(tmp_path, "c1.json", circle_cocycle_doc(1))
    p2 = write(tmp_path, "c2.json", circle_cocycle_doc(1))
    code, report = run(capsys, "cocycle-equiv", "--input", p1, p2)
    assert (code, report["verdict"]) == (cli.EXIT_TRUE, True)
    assert (len(parsed), len(checked)) == (1, 1)

    reordered = circle_cocycle_doc(1)
    parts = reordered["cover"]["parts"]
    reordered["cover"]["parts"] = dict(reversed(parts.items()))
    p3 = write(tmp_path, "c3.json", reordered)
    parsed.clear()
    checked.clear()
    assert run(capsys, "cocycle-equiv", "--input", p1, p3) == (code, report)
    assert (len(parsed), len(checked)) == (1, 1)

    reordered["cover"]["base"]["maximal"].reverse()
    p4 = write(tmp_path, "c4.json", reordered)
    parsed.clear()
    checked.clear()
    assert run(capsys, "cocycle-equiv", "--input", p1, p4) == (code, report)
    assert (len(parsed), len(checked)) == (2, 1)


def test_cli_cocycle_equiv_reads_a_shared_group_once(tmp_path, capsys, monkeypatch):
    """Equal "group" entries are parsed and validated once; a group
    document written another way is parsed again, over either cover."""
    parsed = []
    real_parse = docio.group_from_doc
    monkeypatch.setattr(docio, "group_from_doc",
                        lambda doc: parsed.append(doc) or real_parse(doc))
    p1 = write(tmp_path, "c1.json", circle_cocycle_doc(1))
    p2 = write(tmp_path, "c2.json", circle_cocycle_doc(0))
    code, report = run(capsys, "cocycle-equiv", "--input", p1, p2)
    assert (code, report["verdict"]) == (cli.EXIT_FALSE, False)
    assert len(parsed) == 1

    unordered = circle_cocycle_doc(0)
    unordered["group"] = {"table": Z2_DOC["table"]}
    p3 = write(tmp_path, "c3.json", unordered)
    parsed.clear()
    assert run(capsys, "cocycle-equiv", "--input", p1, p3) == (code, report)
    assert len(parsed) == 2

    moved = circle_cocycle_doc(0)
    moved["cover"]["base"]["maximal"].reverse()
    p4 = write(tmp_path, "c4.json", moved)
    parsed.clear()
    assert run(capsys, "cocycle-equiv", "--input", p1, p4) == (code, report)
    assert len(parsed) == 1


@pytest.mark.parametrize("label", [1.0, True], ids=["float", "bool"])
def test_cli_cocycle_equiv_compares_covers_as_json(tmp_path, capsys, label):
    """A label that equals 1 in Python but is no JSON integer is still an
    input error in the second document."""
    def doc(second):
        return {
            "cover": {"base": {"maximal": [[0, second]]},
                      "parts": {"U": {"maximal": [[0, second]]}}},
            "group": Z2_DOC,
            "values": {},
        }

    p1 = write(tmp_path, "c1.json", doc(1))
    p2 = write(tmp_path, "c2.json", doc(label))
    assert run(capsys, "cocycle-equiv", "--input", p1, p1) == (
        cli.EXIT_TRUE, {"command": "cocycle-equiv", "details": {"bridge": {"U|U": 0}},
                        "toolVersion": cli.__version__, "verdict": True})
    assert run(capsys, "cocycle-equiv", "--input", p1, p2) == (cli.EXIT_INPUT, None)


def gerbe_doc():
    from cechfib import abelian_coefficients, cech_nerve, validate_gerbe_cocycle

    cover = star_cover(corpus.FULL_TRIANGLE)
    nerve = cech_nerve(cover)
    return docio.gerbe_to_doc(validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in nerve.keys(2)}, {t: 0 for t in nerve.keys(3)},
    ))


def milnor_doc(**changes):
    doc = {"t": ["1/2", "1/2"], "g": {"0|0": 0, "1|1": 0, "0|1": 1, "1|0": 1},
           "group": Z2_DOC}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("verb, make_doc", [
    ("bar-homology", lambda: {"order": 2, "table": 5}),
    ("bar-homology", lambda: {"table": [[0, 1], [1, "a"]]}),
    ("bar-homology", lambda: {"order": "x", "table": [[0, 1], [1, 0]]}),
    ("cocycle-check", lambda: dict(circle_cocycle_doc(), values=[])),
    ("gerbe-check", lambda: dict(gerbe_doc(), witnesses=[])),
    ("milnor-check", lambda: milnor_doc(t=["1/0", "1"])),
    ("milnor-check", lambda: milnor_doc(g={"a|b": 0})),
], ids=["table-number", "table-string-entry", "order-string",
        "cocycle-values-list", "gerbe-witnesses-list", "milnor-zero-denominator",
        "milnor-key-not-indices"])
def test_cli_group_cocycle_gerbe_and_milnor_documents_keep_the_input_contract(
        tmp_path, capsys, verb, make_doc):
    """A document that does not decode is an input error: exit 2, no report."""
    path = write(tmp_path, "bad.json", make_doc())
    code, report = run(capsys, verb, "--input", path)
    assert (code, report) == (cli.EXIT_INPUT, None)


def with_module(**changes):
    doc = gerbe_doc()
    doc["crossedModule"].update(changes)
    return doc


def with_action(**changes):
    action = {"fiber": ["x", "y"], "table": [[0, 1], [1, 0]]}
    action.update(changes)
    return dict(circle_cocycle_doc(), action=action)


def circle_bundle_doc(**changes):
    from cechfib import regular_action, total_space

    cocycle = docio.cocycle_from_doc(circle_cocycle_doc())
    doc = docio.bundle_to_doc(total_space(cocycle, regular_action(corpus.Z2)))
    doc.update(changes)
    return doc


def listed_projection(bundle_doc):
    projection = bundle_doc["projection"]
    bundle_doc["projection"] = {v: [b] for v, b in projection.items()}
    return bundle_doc


POINT_MAP = {"source": {"maximal": [["z"]]}, "vertexMap": {"z": "a"}}


@pytest.mark.parametrize("verb, make_docs", [
    ("nerve", lambda: [{"base": {"maximal": [["a"]]}, "parts": []}]),
    ("nerve", lambda: [[]]),
    ("gerbe-check", lambda: [with_module(boundary=["x"])]),
    ("gerbe-check", lambda: [with_module(boundary=0)]),
    ("gerbe-check", lambda: [with_module(action=[[0, "a"]])]),
    ("bundle-build", lambda: [with_action(table=[[0, 1], 5])]),
    ("bundle-build", lambda: [with_action(fiber=5)]),
    ("pullback", lambda: [circle_bundle_doc(),
                          dict(POINT_MAP, vertexMap=["z", "a"])]),
    ("pullback", lambda: [circle_bundle_doc(),
                          dict(POINT_MAP, vertexMap={"z": ["a"]})]),
    ("pullback", lambda: [listed_projection(circle_bundle_doc()), POINT_MAP]),
    ("pullback", lambda: [circle_bundle_doc(fiber=2), POINT_MAP]),
], ids=["cover-parts-list", "cover-not-object", "boundary-string-entry",
        "boundary-number", "module-action-string-entry", "action-table-row",
        "action-fiber-number", "vertex-map-list", "vertex-map-list-image",
        "projection-list-image", "bundle-fiber-number"])
def test_cli_cover_module_action_map_and_bundle_documents_keep_the_input_contract(
        tmp_path, capsys, verb, make_docs):
    """A document that does not decode is an input error: exit 2, no report."""
    paths = [write(tmp_path, f"bad{i}.json", doc)
             for i, doc in enumerate(make_docs())]
    code, report = run(capsys, verb, "--input", *paths)
    assert (code, report) == (cli.EXIT_INPUT, None)


def test_cli_classify_budget_exit_code(tmp_path, capsys):
    """Hom enumeration on the torus star cover cannot finish in one guess:
    exit 3, no report, and the message says how far the search got."""
    cpath = write(tmp_path, "cover.json", star_cover_doc(corpus.TORUS_SEVEN))
    gpath = write(tmp_path, "group.json", docio.group_to_doc(corpus.S3))
    out = tmp_path / "report.json"
    code = cli.main(["classify", "--input", cpath, gpath, "--budget", "1",
                     "--output", str(out)])
    assert code == cli.EXIT_BUDGET
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hom enumeration exceeded budget 1 after 1 branch guesses" in captured.err
