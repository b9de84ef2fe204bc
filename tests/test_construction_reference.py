"""Complex construction and goodness against their reference versions.

``build_complex`` closes each declared simplex once as sorted tuples and
hands the closure and its maximal simplices to the complex, which orders
its views only when they are first read; ``is_point_like`` decides a
cone by counting and any other complex by homology, whose forest and
elimination take free faces.  The references in ``reference_complexes`` are the
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
    is_good_cover,
    is_point_like,
    star_cover,
)
from cechfib.complexes import intersect_complexes

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
        # each declared simplex sorts on its own; only the vertex set does not
        (lambda: build_complex([[1], ["a"]]),
         "vertex identifiers must be mutually orderable"),
        (lambda: build_complex([[1, 2], ["a", "b"]]),
         "vertex identifiers must be mutually orderable"),
        (lambda: SimplicialComplex([frozenset()]), "empty simplex is not allowed"),
        (lambda: SimplicialComplex([frozenset({"a"}), frozenset({1})]),
         "vertex identifiers must be mutually orderable"),
        (lambda: SimplicialComplex([frozenset({0, 1}), frozenset({0})]),
         "family is not closed under faces at (0, 1)"),
    ]
    # outcome reads every view after construction, so each error must
    # come from the constructor itself
    for make, message in cases:
        kind, _, text, _ = outcome(make)
        assert (kind, text) == ("raised", message)


# -- every view, in every read order ----------------------------------------

# pairs of valid declared families relabelled as integers, strings or
# pairs, the three kinds of label the library builds complexes from
LABELLED_PAIRS = st.tuples(VALID, VALID, st.sampled_from([
    lambda v: v, lambda v: f"v{v}", lambda v: (v % 2, v),
])).map(lambda drawn: tuple(
    [[drawn[2](v) for v in s] for s in declared] for declared in drawn[:2]
))

# each view of a complex x; twin is an equal complex built from the
# reference's family, so that equality can be the first read of x
VIEWS = {
    "vertices": lambda x, twin: x.vertices,
    "dim": lambda x, twin: x.dim,
    "layers": lambda x, twin: tuple(x.simplices_of_dim(k) for k in range(-1, 6)),
    "counts": lambda x, twin: tuple(x.simplex_count(k) for k in range(-1, 6)),
    "maximal": lambda x, twin: x.maximal_simplices,
    "simplices": lambda x, twin: x.simplices,
    "hash": lambda x, twin: hash(x),
    "equal": lambda x, twin: (x == twin, x == POINT_X),
    "repr": lambda x, twin: repr(x),
}

POINT_X = SimplicialComplex([frozenset({"x"})])

# first reads: maximal simplices, hash, equality, the ordered layers, the
# vertices, and the derived family
READ_ORDERS = [
    ("maximal", "hash", "equal", "layers", "counts", "vertices", "dim",
     "simplices", "repr"),
    ("hash", "equal", "repr", "maximal", "simplices", "vertices", "dim",
     "layers", "counts"),
    ("equal", "maximal", "layers", "hash", "vertices", "counts", "dim",
     "repr", "simplices"),
    ("layers", "counts", "dim", "maximal", "vertices", "simplices", "hash",
     "equal", "repr"),
    ("vertices", "repr", "simplices", "counts", "hash", "maximal", "dim",
     "layers", "equal"),
    ("simplices", "dim", "maximal", "equal", "layers", "hash", "vertices",
     "counts", "repr"),
]


def reference_views(ref: ReferenceComplex) -> dict:
    return {
        "vertices": ref.vertices,
        "dim": ref.dim,
        "layers": tuple(ref.simplices_of_dim(k) for k in range(-1, 6)),
        "counts": tuple(len(ref.simplices_of_dim(k)) for k in range(-1, 6)),
        "maximal": ref.maximal_simplices,
        "simplices": ref.simplices,
        "hash": hash(ref.simplices),
        "equal": (True, ref.simplices == POINT_X.simplices),
        "repr": f"SimplicialComplex({len(ref.vertices)} vertices, dim {ref.dim})",
    }


def read_in_order(x, order, ref) -> dict:
    twin = SimplicialComplex(ref.simplices)
    return {name: VIEWS[name](x, twin) for name in order}


def constructions(declared, other):
    """Each construction of one complex, with its reference."""
    ref = reference_build_complex(declared)
    ref_other = reference_build_complex(other)
    return [
        (lambda: build_complex(declared), ref),
        (lambda: intersect_complexes(build_complex(declared), build_complex(other)),
         ReferenceComplex(ref.simplices & ref_other.simplices)),
        (lambda: SimplicialComplex(ref.simplices), ref),
    ]


@pytest.mark.parametrize("order", READ_ORDERS, ids=lambda o: o[0] + "-first")
@given(LABELLED_PAIRS)
@settings(max_examples=60, deadline=None)
def test_every_view_matches_reference_in_every_read_order(order, pair):
    for make, ref in constructions(*pair):
        assert read_in_order(make(), order, ref) == reference_views(ref)


def test_star_cover_nerve_orders_no_layer(monkeypatch):
    # what the nerve verb reads: every witness's size, and the nerve's
    # maximal simplices; goodness reads each witness's family alone
    def refuse(self):
        raise AssertionError("a complex ordered its layers")

    monkeypatch.setattr(SimplicialComplex, "_ordered_layers", refuse)
    cover = star_cover(corpus.TORUS_SEVEN)
    nerve = cech_nerve(cover)
    sizes = [len(w.simplices) for w in nerve.witnesses.values()]
    assert len(sizes) == 7 + 21 + 14 and min(sizes) > 0
    assert len(nerve.complex.maximal_simplices) == 14
    assert is_good_cover(cover).good


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
        report = is_good_cover(cover)
        assert report.failures == reference_goodness_failures(nerve)
        assert report.good == (not report.failures)


def test_goodness_report_of_a_non_good_cover_is_unchanged():
    # on the hollow triangle two closed vertex stars meet in an edge plus
    # the opposite vertex, and all three in the three vertices; on the
    # hexagon neighbouring stars meet in an edge and stars two apart in a
    # vertex, so that cover is good
    cover = closed_star_cover(corpus.HOLLOW_TRIANGLE)
    nerve = cech_nerve(cover)
    report = is_good_cover(cover)
    assert not report.good
    reason = "intersection is not connected and acyclic"
    assert report.failures == (
        (("a", "b"), reason), (("a", "b", "c"), reason),
        (("a", "c"), reason), (("b", "c"), reason),
    )
    assert report.failures == reference_goodness_failures(nerve)
    assert is_good_cover(closed_star_cover(corpus.HEXAGON)).good


def test_every_star_cover_witness_collapses(monkeypatch):
    # every witness of a star cover is a cone, so the count decides
    # goodness and homology is never called
    calls = []
    real = homology_module.homology

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(homology_module, "homology", counting)
    for name in corpus.SURFACES:
        cover = star_cover(corpus.SURFACES[name])
        assert cech_nerve(cover).witnesses and is_good_cover(cover).good
    assert calls == []


@given(VALID)
@settings(max_examples=300, deadline=None)
def test_is_point_like_matches_reference_on_generated_complexes(declared):
    x = build_complex(declared)
    assert is_point_like(x) == reference_is_point_like(x)
    if not x.is_empty():
        # a cone over x, with apex 7, is always point-like
        cone = build_complex([sorted(s) + [7] for s in x.maximal_simplices])
        assert is_point_like(cone)


def test_collapses_do_not_need_a_cone():
    # a path and a strip of triangles: collapsible, but no vertex lies in
    # every maximal simplex, so homology's forest and elimination decide
    path = build_complex([[0, 1], [1, 2], [2, 3], [3, 4]])
    strip = build_complex([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]])
    for x in (path, strip):
        assert not frozenset.intersection(*x.maximal_simplices)
        assert is_point_like(x)
    assert homology(strip).betti_numbers() == (1, 0, 0)
