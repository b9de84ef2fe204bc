"""Complex construction and goodness against their reference versions.

``build_complex`` closes each declared simplex once as sorted tuples and
``SimplicialComplex`` orders them without sorting a face twice;
``is_point_like`` decides by elementary collapses and uses homology only
when they stall.  The references in ``reference_complexes`` are the
implementations these replaced.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    SimplicialComplex,
    barycentric_subdivision,
    build_complex,
    cech_nerve,
    closed_star_cover,
    homology,
    is_point_like,
    star_cover,
)

import corpus
from reference_complexes import (
    ReferenceComplex,
    reference_build_complex,
    reference_goodness_failures,
    reference_is_point_like,
)

homology_module = importlib.import_module("cechfib.homology")

LABELS = st.one_of(st.integers(0, 6), st.sampled_from(["a", "b"]))

# declared families, valid or not: empty simplices, repeated vertices and
# integer next to string labels all occur
DECLARED = st.lists(st.lists(LABELS, max_size=4), max_size=8)

# valid declared families on at most seven integer vertices
VALID = st.lists(
    st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
    max_size=10,
)

# frozenset families, mostly not closed under faces
FAMILIES = st.lists(st.frozensets(LABELS, max_size=4), max_size=10)


def outcome(make):
    """What a construction gives: its ordered views, or its error."""
    try:
        x = make()
    except Exception as exc:  # the exception itself is compared
        return ("raised", type(exc), str(exc), getattr(exc, "details", None))
    return (
        "built",
        x.simplices,
        x.vertices,
        tuple(x.simplices_of_dim(k) for k in range(x.dim + 1)),
        x.maximal_simplices,
    )


@given(DECLARED)
@settings(max_examples=300, deadline=None)
def test_build_complex_matches_reference(declared):
    assert outcome(lambda: build_complex(declared)) == outcome(
        lambda: reference_build_complex(declared))


@given(VALID)
@settings(max_examples=200, deadline=None)
def test_build_complex_matches_reference_on_valid_families(declared):
    got = outcome(lambda: build_complex(declared))
    assert got[0] == "built"
    assert got == outcome(lambda: reference_build_complex(declared))


@given(FAMILIES)
@settings(max_examples=300, deadline=None)
def test_simplicial_complex_matches_reference(family):
    assert outcome(lambda: SimplicialComplex(family)) == outcome(
        lambda: ReferenceComplex(family))


@given(VALID, st.data())
@settings(max_examples=200, deadline=None)
def test_simplicial_complex_matches_reference_on_closed_and_pruned_families(
        declared, data):
    closed = sorted(reference_build_complex(declared).simplices, key=sorted)
    # drop a few simplices: the family stays closed only if none of them
    # was a face of a kept one
    dropped = data.draw(st.sets(st.sampled_from(closed), max_size=2)
                        if closed else st.just(set()))
    family = [s for s in closed if s not in dropped]
    assert outcome(lambda: SimplicialComplex(family)) == outcome(
        lambda: ReferenceComplex(family))


def test_construction_errors_keep_their_messages():
    cases = [
        (lambda: build_complex([["a"], []]), "declared simplex is empty"),
        (lambda: build_complex([["a", "b", "a"]]),
         "repeated vertex in declared simplex ['a', 'b', 'a']"),
        (lambda: build_complex([["a", 1]]),
         "vertex identifiers must be mutually orderable"),
        (lambda: build_complex([["a", "b"], [1, 2]]),
         "vertex identifiers must be mutually orderable"),
        (lambda: SimplicialComplex([frozenset()]), "empty simplex is not allowed"),
        (lambda: SimplicialComplex([frozenset({"a"}), frozenset({1})]),
         "vertex identifiers must be mutually orderable"),
        (lambda: SimplicialComplex([frozenset({0, 1}), frozenset({0})]),
         "family is not closed under faces at (0, 1)"),
    ]
    for make, message in cases:
        kind, _, text, _ = outcome(make)
        assert (kind, text) == ("raised", message)


# -- goodness ---------------------------------------------------------------

# Eight-vertex dunce hat: a triangle whose edges are glued as a a a^-1,
# the three boundary edges running 1-2-3-1 and vertices 4-8 inside.  It
# is contractible, but every edge lies in two or three triangles, so it
# has no free face and no collapse can start.
DUNCE_HAT = build_complex([
    [1, 2, 5], [2, 3, 5], [1, 3, 6], [1, 2, 6], [2, 3, 7], [1, 3, 7],
    [1, 3, 8], [2, 3, 4], [1, 2, 4], [1, 4, 5], [3, 5, 6], [2, 6, 7],
    [1, 7, 8], [3, 4, 8], [4, 5, 6], [4, 6, 7], [4, 7, 8],
])

CORPUS = {
    name: getattr(corpus, name)
    for name in ("POINT", "EDGE", "HOLLOW_TRIANGLE", "FULL_TRIANGLE",
                 "HEXAGON", "BOUNDARY_3SIMPLEX", "FULL_3SIMPLEX", "RP2_SIX",
                 "TORUS_SEVEN", "TWO_COMPONENTS")
}


def test_dunce_hat_is_point_like_through_the_homology_fallback(monkeypatch):
    x = DUNCE_HAT
    assert (len(x.vertices), x.simplex_count(1), x.simplex_count(2)) == (8, 24, 17)
    for edge in x.simplices_of_dim(1):
        assert sum(set(edge) <= set(t) for t in x.simplices_of_dim(2)) >= 2
    assert not homology_module._collapses_to_point(x)
    calls = []
    real = homology_module.homology

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology_module, "homology", counting)
    assert is_point_like(x)
    assert len(calls) == 1
    assert reference_is_point_like(x)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_is_point_like_matches_reference_on_the_corpus(name):
    x = CORPUS[name]
    sd, _ = barycentric_subdivision(x)
    for y in (x, sd):
        assert is_point_like(y) == reference_is_point_like(y)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_goodness_matches_reference_on_corpus_covers(name):
    x = CORPUS[name]
    for cover in (star_cover(x), closed_star_cover(x)):
        nerve = cech_nerve(cover)
        for witness in nerve.witnesses.values():
            assert is_point_like(witness) == reference_is_point_like(witness)
        report = nerve.goodness
        assert report.failures == reference_goodness_failures(nerve)
        assert report.good == (not report.failures)


def test_goodness_report_of_a_non_good_cover_is_unchanged():
    # on the hollow triangle two closed vertex stars meet in an edge plus
    # the opposite vertex, and all three in the three vertices; on the
    # hexagon neighbouring stars meet in an edge and stars two apart in a
    # vertex, so that cover is good
    nerve = cech_nerve(closed_star_cover(corpus.HOLLOW_TRIANGLE))
    report = nerve.goodness
    assert not report.good
    reason = "intersection is not connected and acyclic"
    assert report.failures == (
        (("a", "b"), reason), (("a", "b", "c"), reason),
        (("a", "c"), reason), (("b", "c"), reason),
    )
    assert report.failures == reference_goodness_failures(nerve)
    assert cech_nerve(closed_star_cover(corpus.HEXAGON)).goodness.good


def test_every_star_cover_witness_collapses():
    for name in corpus.SURFACES:
        _, nerve, _ = corpus.cached_star_cover(name)
        for witness in nerve.witnesses.values():
            assert homology_module._collapses_to_point(witness)


@given(VALID)
@settings(max_examples=300, deadline=None)
def test_is_point_like_matches_reference_on_generated_complexes(declared):
    x = build_complex(declared)
    assert is_point_like(x) == reference_is_point_like(x)
    if homology_module._collapses_to_point(x):
        assert reference_is_point_like(x)
    if not x.is_empty():
        # a cone over x, with apex 7, is always point-like
        cone = build_complex([sorted(s) + [7] for s in x.maximal_simplices])
        assert is_point_like(cone)


def test_collapses_do_not_need_a_cone():
    # a path and a strip of triangles: collapsible, but no vertex lies in
    # every maximal simplex, so the collapses themselves decide
    path = build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])
    strip = build_complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
    for x in (path, strip):
        assert not frozenset.intersection(*x.maximal_simplices)
        assert homology_module._collapses_to_point(x)
        assert is_point_like(x)
    assert homology(strip).betti_numbers() == (1, 0, 0)
