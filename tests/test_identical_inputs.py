"""Identical inputs are decided by equality.

``bundle_isomorphism`` returns the identity at once for two bundles with
the same total and the same fibers, spending no budget; it must be the
witness that ``reference_bundles.bundle_isomorphism`` finds.  Every
other pair still goes through the search, with its witness, its None
and its budget error unchanged.

``cocycle-equiv`` reuses the first cover for a second ``"cover"`` equal
to it under ``==`` when every base label is a string.  Exit codes,
stderr and reports must equal those of
``reference_checks.run_cocycle_equiv``, which compares every second
cover as JSON text.

Documents write labels as strings, so a round trip through a document
relabels a complex or a cover by ``str``, and a second round trip
writes the same document.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    Bundle,
    BudgetExceededError,
    Cochain0,
    Cover,
    SimplicialMap,
    build_complex,
    bundle_isomorphism,
    cli,
    closed_star_cover,
    coboundary_transform,
    from_homomorphism,
    product_bundle,
    pullback,
    regular_action,
    restrict_bundle,
    section_map,
    skeletal_construction,
    total_space,
    trivial_cocycle,
)
from cechfib import io as docio
from cechfib.classifying import pullback_universal
from cechfib.cocycles import monodromy_representatives

import corpus
import reference_bundles
import reference_checks


# ------------------------------------------------------- identical bundles

def identical_pairs():
    """(name, b1, b2): equal bundles, built twice where a builder is
    deterministic, so the two are equal but not the same object."""
    for name in ("hollow_triangle", "boundary_3simplex", "rp2", "torus"):
        cover, nerve, _ = corpus.cached_star_cover(name)
        for group in (corpus.Z2, corpus.S3):
            action = regular_action(group)
            cocycle = from_homomorphism(corpus.cached_homs(name, group)[-1],
                                        cover, group)
            built = total_space(cocycle, action)
            yield name, built, total_space(cocycle, action)
            yield name, skeletal_construction(cocycle, action), \
                skeletal_construction(cocycle, action)
            product = product_bundle(corpus.SURFACES[name], group.elements())
            yield name, product, product
            if group is corpus.Z2:
                pulled = pullback(built, section_map(cover, nerve))
                yield name, pulled, pulled
            stars = closed_star_cover(built.base)
            part = stars.parts[stars.indices[0]]
            yield name, restrict_bundle(built, part), restrict_bundle(built, part)


def classify_pairs():
    """(name, pulled, direct) for every monodromy representative that
    ``classification_check`` compares, on 4 surfaces and 4 groups."""
    for name in corpus.SURFACES:
        cover, _, _ = corpus.cached_star_cover(name)
        for group_name in ("z2", "s3", "z2xz2", "z4"):
            group = corpus.GROUPS[group_name]
            _, representatives = monodromy_representatives(cover, group)
            for rep in representatives:
                yield ((name, group_name), pullback_universal(rep),
                       total_space(rep, regular_action(group)))


def test_identical_bundles_get_the_reference_witness_with_no_budget():
    count = 0
    for name, b1, b2 in identical_pairs():
        expected = reference_bundles.bundle_isomorphism(b1, b2)
        assert expected == {e: e for e in b1.total.vertices}, name
        witness = bundle_isomorphism(b1, b2, budget=0)
        assert witness == expected, name
        # the dict lists total vertices in branch order, as the search's does
        assert list(witness) == [e for v in b1.base.vertices
                                 for e in b1.fiber_over(v)], name
        count += 1
    assert count == 36


def test_classify_pullbacks_are_identical_to_their_quotient_totals():
    count = 0
    for case, pulled, direct in classify_pairs():
        assert pulled.total == direct.total, case
        assert pulled._fibers == direct._fibers, case
        witness = bundle_isomorphism(pulled, direct, budget=0)
        assert witness == reference_bundles.bundle_isomorphism(pulled, direct), case
        count += 1
    assert count == 71


def swapped_projection_pair():
    """Two disjoint lifts of an edge, projected the usual way and with
    the first lift's ends swapped: one total, two sets of fibers."""
    base = build_complex([["a", "b"]])
    total = build_complex([["a0", "b0"], ["a1", "b1"]])
    usual = {"a0": "a", "b0": "b", "a1": "a", "b1": "b"}
    swapped = {"a0": "b", "b0": "a", "a1": "a", "b1": "b"}
    return tuple(
        Bundle(total, base, SimplicialMap(total, base, m), fiber=(0, 1))
        for m in (usual, swapped)
    )


def test_one_total_with_other_fibers_is_searched():
    b1, b2 = swapped_projection_pair()
    assert b1.total == b2.total and b1._fibers != b2._fibers
    witness = bundle_isomorphism(b1, b2)
    assert witness == {"a0": "a1", "a1": "b0", "b0": "b1", "b1": "a0"}
    assert witness == reference_bundles.bundle_isomorphism(b1, b2)
    with pytest.raises(BudgetExceededError) as info:
        bundle_isomorphism(b1, b2, budget=0)
    assert str(info.value) == (
        "isomorphism search exceeded budget 0 after 0 guesses, "
        "with 0 of 4 total vertices assigned"
    )


def test_twisted_pairs_keep_their_witness():
    """A gauge twist keeps the fibers and changes the total."""
    cover, _, _ = corpus.cached_star_cover("torus")
    group = corpus.Z3
    action = regular_action(group)
    cocycle = from_homomorphism(corpus.cached_homs("torus", group)[-1], cover, group)
    gauge = Cochain0(cover, group, {idx: i % group.order
                                    for i, idx in enumerate(cover.indices)})
    b1 = total_space(cocycle, action)
    b2 = total_space(coboundary_transform(cocycle, gauge), action)
    assert b1._fibers == b2._fibers and b1.total != b2.total
    witness = bundle_isomorphism(b1, b2)
    assert witness is not None
    assert witness != {e: e for e in b1.total.vertices}
    assert witness == reference_bundles.bundle_isomorphism(b1, b2)


def test_non_isomorphic_pairs_keep_none_and_the_budget_error():
    cover, _, _ = corpus.cached_star_cover("hollow_triangle")
    action = regular_action(corpus.Z2)
    trivial = total_space(trivial_cocycle(cover, corpus.Z2), action)
    double = total_space(
        from_homomorphism(corpus.cached_homs("hollow_triangle", corpus.Z2)[1],
                          cover, corpus.Z2),
        action,
    )
    assert trivial._fibers == double._fibers and trivial.total != double.total
    assert bundle_isomorphism(trivial, double) is None
    assert reference_bundles.bundle_isomorphism(trivial, double) is None
    with pytest.raises(BudgetExceededError) as info:
        bundle_isomorphism(trivial, double, budget=0)
    assert str(info.value) == (
        "isomorphism search exceeded budget 0 after 0 guesses, "
        f"with 0 of {len(trivial.total.vertices)} total vertices assigned"
    )


# ------------------------------------------- the second cover of a pair

def hexagon_doc(label):
    """A Z2 cocycle over a hand-written good cover of a hexagon by three
    paths of two edges, its labels written by ``label``."""
    def cx(*edges):
        return {"maximal": [[label(u), label(v)] for u, v in edges]}

    return {
        "cover": {
            "base": cx((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)),
            "parts": {"U0": cx((0, 1), (1, 2)), "U1": cx((2, 3), (3, 4)),
                      "U2": cx((4, 5), (5, 0))},
        },
        "group": {"order": 2, "table": [[0, 1], [1, 0]]},
        "values": {"U0|U1": 0, "U1|U2": 0, "U0|U2": 1},
    }


FIRST = {"integer": hexagon_doc(int), "string": hexagon_doc(str)}


def relabel_one(doc, value):
    """The base's label 1 (or "1") written as ``value``."""
    doc["cover"]["base"]["maximal"][0][1] = value


def reorder(doc):
    cover = doc["cover"]
    doc["cover"] = {"parts": dict(reversed(list(cover["parts"].items()))),
                    "base": cover["base"]}


def reshape(doc):
    """A different good cover of the same hexagon, with the same nerve."""
    parts = doc["cover"]["parts"]
    parts["U0"]["maximal"].insert(0, copy.deepcopy(parts["U2"]["maximal"][1]))
    del parts["U2"]["maximal"][1]


SECOND = {
    "identical": lambda doc: None,
    "keys reordered": reorder,
    "label as 1.0": lambda doc: relabel_one(doc, 1.0),
    "label as true": lambda doc: relabel_one(doc, True),
    "another cover": reshape,
}


def write_pair(tmp_path, first, second, extra=None):
    d1 = copy.deepcopy(FIRST[first])
    d2 = copy.deepcopy(d1)
    if extra is None:
        SECOND[second](d2)
    else:
        # an extra key the parser ignores, equal under == but not as JSON text
        d1["cover"]["note"], d2["cover"]["note"] = extra
    paths = []
    for name, doc in (("a.json", d1), ("b.json", d2)):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    return paths


def call(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_both(monkeypatch, capsys, paths):
    """(library outcome, reference outcome) of one cocycle-equiv call."""
    argv = ["cocycle-equiv", "--input", *paths]
    got = call(capsys, argv)
    with monkeypatch.context() as m:
        verb = cli._VERBS["cocycle-equiv"]
        m.setitem(cli._VERBS, "cocycle-equiv",
                  verb._replace(run=reference_checks.run_cocycle_equiv))
        expected = call(capsys, argv)
    return got, expected


CASES = [(first, second) for first in FIRST for second in SECOND]


@pytest.mark.parametrize("first,second", CASES)
def test_second_covers_match_the_json_text_rule(tmp_path, monkeypatch, capsys,
                                                first, second):
    got, expected = run_both(monkeypatch, capsys,
                             write_pair(tmp_path, first, second))
    assert got == expected
    code, out, err = got
    if second in ("identical", "keys reordered"):
        assert code == cli.EXIT_TRUE and "bridge" in json.loads(out)["details"]
    elif second.startswith("label"):
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert err == ("cechfib: input error: \"maximal\" must be a list of "
                       "lists of string or integer labels\n")
    else:
        assert (code, out) == (cli.EXIT_INPUT, "")
        assert "different covers" in err, err


@pytest.mark.parametrize("first", list(FIRST))
@pytest.mark.parametrize("extra", [(1, 1.0), (1.0, 1), (1, True)])
def test_ignored_keys_match_the_json_text_rule(tmp_path, monkeypatch, capsys,
                                               first, extra):
    got, expected = run_both(monkeypatch, capsys,
                             write_pair(tmp_path, first, None, extra))
    assert got == expected
    assert got[0] == cli.EXIT_TRUE


def count_cover_parses(monkeypatch):
    calls = []
    parse = docio.cover_from_doc

    def counted(doc):
        calls.append(doc)
        return parse(doc)

    monkeypatch.setattr(docio, "cover_from_doc", counted)
    return calls


def count_texts(monkeypatch):
    """The first argument of every ``_same_json`` call."""
    texts = []
    same_json = cli._same_json
    monkeypatch.setattr(cli, "_same_json",
                        lambda a, b: texts.append(a) or same_json(a, b))
    return texts


@pytest.mark.parametrize("first,second,text", [
    ("string", "identical", ["group"]),
    ("string", "keys reordered", ["group"]),
    ("integer", "identical", ["cover", "group"]),
])
def test_a_shared_cover_is_parsed_once(tmp_path, monkeypatch, capsys,
                                       first, second, text):
    """Only integer labels send the shared cover through JSON text; the
    group is always compared as text."""
    calls = count_cover_parses(monkeypatch)
    texts = count_texts(monkeypatch)
    paths = write_pair(tmp_path, first, second)
    assert call(capsys, ["cocycle-equiv", "--input", *paths])[0] == cli.EXIT_TRUE
    assert len(calls) == 1
    assert ["cover" if "base" in a else "group" for a in texts] == text


# ------------------------------------------------ labels in documents

def maximal_lists(labels):
    return st.lists(
        st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=6,
    )


LABELS = st.one_of(maximal_lists(list(range(8))), maximal_lists(list("abcdefgh")))


def strings(maximal):
    return [[str(v) for v in s] for s in maximal]


@given(LABELS)
@settings(max_examples=200, deadline=None)
def test_complexes_reload_with_string_labels(maximal):
    x = build_complex(maximal)
    doc = docio.complex_to_doc(x)
    again = docio.complex_from_doc(doc)
    assert again == build_complex(strings(maximal))
    assert docio.complex_to_doc(again) == doc


@given(LABELS, st.lists(st.integers(0, 2), min_size=6, max_size=6))
@settings(max_examples=200, deadline=None)
def test_covers_reload_with_string_labels(maximal, owners):
    """Each maximal simplex goes to one of three parts, so the parts
    cover the base; a part may be empty."""
    base = build_complex(maximal)
    tops = sorted(base._top_sets())
    parts = {
        f"U{k}": build_complex(
            [t for i, t in enumerate(tops) if owners[i % len(owners)] == k])
        for k in range(3)
    }
    cover = Cover(base, parts)
    doc = docio.cover_to_doc(cover)
    again = docio.cover_from_doc(doc)
    assert again == Cover(
        build_complex(strings(tops)),
        {k: build_complex(strings(part._top_sets())) for k, part in parts.items()},
    )
    assert docio.cover_to_doc(again) == doc
