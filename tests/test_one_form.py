"""Complexes hold one form: per dimension, a set of sorted label tuples.

Every library operation runs on those layers, and the frozenset family
behind ``simplices`` is only an on-demand view: no CLI verb builds it.
The layer-wise subset, equality, intersection and cover checks agree
with ``reference_complexes.ReferenceComplex``, which works on frozensets.
Bundles are checked over every maximal base simplex, and coordinate-point
values are checked as integers, not coerced.
"""

from __future__ import annotations

import contextlib
import enum
import io
import json
import random

import pytest
from hypothesis import given, settings

from cechfib import (
    Bundle,
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    build_complex,
    cli,
    closed_star_cover,
    mapping_cylinder_bundle,
    patch_bundles,
    regular_action,
    restrict_bundle,
    total_space,
    validate_bundle,
)
from cechfib import io as docio
from cechfib.classifying import validate_milnor_point
from cechfib.complexes import intersect_complexes
from cechfib.covers import Cover

import corpus
from reference_complexes import ReferenceComplex, reference_build_complex
from test_check_once import LIBRARY_BUNDLES
from test_cli_golden import CASES
from test_construction_reference import LABELLED_PAIRS


# -- no library path builds the family -------------------------------------

VERBS = {"validate-complex", "homology", "nerve", "cover-check",
         "cocycle-check", "cocycle-equiv", "classify", "bundle-build",
         "pullback", "gerbe-check", "gerbe-class"}


def test_no_cli_verb_builds_the_family(monkeypatch, tmp_path):
    builds = []
    view = SimplicialComplex.simplices

    def counted(self):
        if self._simplices is None:
            builds.append(repr(self))
        return view.fget(self)

    verbs, modes = set(), set()
    for case, (argv, make_docs) in sorted(CASES.items()):
        if argv[0] not in VERBS:
            continue
        verbs.add(argv[0])
        if argv[0] == "bundle-build":
            modes.add(argv[argv.index("--mode") + 1] if "--mode" in argv else "direct")
        directory = tmp_path / case
        directory.mkdir()
        for name, doc in make_docs().items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (directory / name).write_text(text, encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(SimplicialComplex, "simplices", property(counted))
            patch.chdir(directory)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv))
    assert verbs == VERBS and modes == {"direct", "skeletal"}
    assert builds == []


# -- layer-wise operations against the frozenset reference -----------------

def cover_outcome(make):
    try:
        make()
    except ValidationError as exc:
        return str(exc), exc.details
    return "ok"


def reference_cover_outcome(base, parts):
    for idx in sorted(parts):
        if not parts[idx] <= base:
            return (f"part {idx!r} is not a subcomplex of the base",
                    {"index": idx})
    union = frozenset().union(*parts.values())
    if union != base:
        missing = sorted(tuple(sorted(s)) for s in base - union)[:4]
        return (f"parts do not cover the base; e.g. {missing!r} uncovered",
                {"missing": missing})
    return "ok"


@given(LABELLED_PAIRS)
@settings(max_examples=200, deadline=None)
def test_layer_operations_match_the_reference(pair):
    declared, other = pair
    x, y = build_complex(declared), build_complex(other)
    fx = reference_build_complex(declared).simplices
    fy = reference_build_complex(other).simplices
    assert x.is_subcomplex_of(y) == (fx <= fy)
    assert y.is_subcomplex_of(x) == (fy <= fx)
    assert (x == y) == (fx == fy)
    assert x == SimplicialComplex(fx)
    meet = intersect_complexes(x, y)
    ref = ReferenceComplex(fx & fy)
    assert meet == SimplicialComplex(fx & fy)
    assert [meet.simplices_of_dim(k) for k in range(-1, 5)] == \
        [ref.simplices_of_dim(k) for k in range(-1, 5)]
    assert meet.maximal_simplices == ref.maximal_simplices
    # over the union, x and the meet cover exactly when y lies in x, and
    # y is a part of x exactly when it lies in x
    union = build_complex(declared + other)
    fu = fx | fy
    assert cover_outcome(lambda: Cover(union, {"x": x, "meet": meet})) == \
        reference_cover_outcome(fu, {"x": fx, "meet": fx & fy})
    assert cover_outcome(lambda: Cover(x, {"x": x, "y": y})) == \
        reference_cover_outcome(fx, {"x": fx, "y": fy})


def test_uncovered_base_names_its_least_missing_simplices():
    base = build_complex([["a", "b", "c"], ["c", "d"]])
    parts = {"A": build_complex([["a", "b"]]), "B": build_complex([["d"]])}
    with pytest.raises(ValidationError) as caught:
        Cover(base, parts)
    missing = [("a", "b", "c"), ("a", "c"), ("b", "c"), ("c",)]
    assert str(caught.value) == \
        f"parts do not cover the base; e.g. {missing!r} uncovered"
    assert caught.value.details == {"missing": missing}


def test_membership_ignores_repeats_and_unorderable_labels():
    x = build_complex([["a", "b"]])
    assert x.has_simplex(["b", "a", "b"])
    assert not x.has_simplex(["a", 1])
    assert not x.has_simplex([])


# -- a bundle has |F| lifts over every maximal base simplex ----------------

EDGE_OVER = {"a|x": "a", "b|x": "b", "a|y": "a", "b|y": "b"}


def edge_bundle_doc(maximal):
    return {"total": {"maximal": maximal}, "base": {"maximal": [["a", "b"]]},
            "projection": EDGE_OVER, "fiber": ["x", "y"]}


@pytest.mark.parametrize("maximal, message, simplex", [
    ([["a|x"], ["b|x"], ["a|y", "b|y"]],
     "base simplex ('a', 'b') has 1 lifts, want 2", ("a", "b")),
    ([["a|x", "b|x"], ["a|y", "b|y"], ["a|x", "b|y"]],
     "base simplex ('a', 'b') has 3 lifts, want 2", ("a", "b")),
    ([["a|x", "b|x"], ["a|x", "b|y"], ["a|y"]],
     "lifts of base simplex ('a', 'b') share a vertex", ("a", "b")),
], ids=["one-lift", "three-lifts", "shared-vertex"])
def test_non_bundles_do_not_load(maximal, message, simplex):
    with pytest.raises(ValidationError) as caught:
        docio.bundle_from_doc(edge_bundle_doc(maximal))
    assert str(caught.value) == message
    assert caught.value.details == {"simplex": simplex}


def test_a_maximal_total_simplex_must_lift_a_maximal_base_simplex():
    doc = {"total": {"maximal": [["a1", "b1", "c1"], ["a2", "b2", "c2"],
                                 ["a1", "b2"]]},
           "base": {"maximal": [["a", "b", "c"]]},
           "projection": {f"{v}{i}": v for v in "abc" for i in "12"},
           "fiber": ["1", "2"]}
    with pytest.raises(ValidationError) as caught:
        docio.bundle_from_doc(doc)
    assert str(caught.value) == \
        "total simplex ('a1', 'b2') lies over no maximal base simplex"


def test_the_two_lift_edge_bundle_loads():
    loaded = docio.bundle_from_doc(
        edge_bundle_doc([["a|x", "b|y"], ["a|y", "b|x"]]))
    assert len(loaded.lifts_of(["a", "b"])) == 2


def library_built_bundles():
    yield from LIBRARY_BUNDLES
    direct = dict(LIBRARY_BUNDLES)["total_space"]
    cover = closed_star_cover(direct.base)
    locals_ = {idx: restrict_bundle(direct, cover.parts[idx])
               for idx in cover.indices}
    yield "patch", patch_bundles(cover, locals_)
    double = total_space(corpus.random_cocycle("hollow_triangle", corpus.Z2,
                                               random.Random(3)),
                         regular_action(corpus.Z2))
    swap = {e: (e[0], 1 - e[1]) for e in double.total.vertices}
    yield "cylinder", mapping_cylinder_bundle(
        double, double, SimplicialMap(double.total, double.total, swap))[0]


@pytest.mark.parametrize("name, bundle", list(library_built_bundles()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_library_bundle_passes_the_lift_check(name, bundle):
    assert validate_bundle(bundle) is bundle
    checked = Bundle(bundle.total, bundle.base,
                     SimplicialMap(bundle.total, bundle.base,
                                   bundle.projection.vertex_map),
                     bundle.fiber, bundle.action)
    assert validate_bundle(checked) is checked


# -- coordinate-point values are integers ------------------------------------

@pytest.mark.parametrize("value", [0.5, "1", None, True])
def test_milnor_values_are_checked_not_coerced(value):
    with pytest.raises(ValidationError) as caught:
        validate_milnor_point((1,), {(0, 0): value}, corpus.Z2)
    assert str(caught.value) == \
        f"value {value!r} for pair (0, 0) is not an integer"
    assert caught.value.details == {"pair": (0, 0)}


def test_milnor_accepts_integer_subclasses():
    class Element(enum.IntEnum):
        IDENTITY = 0

    point = validate_milnor_point((1,), {(0, 0): Element.IDENTITY}, corpus.Z2)
    assert point.values == {(0, 0): 0}

