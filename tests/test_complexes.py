import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    barycentric_subdivision,
    build_complex,
    connected_components,
    euler_characteristic,
    homology,
    mapping_cylinder,
    pi1_presentation,
    regular_action,
    restrict_bundle,
    total_space,
)
from cechfib.complexes import intersect_complexes

import corpus
from reference_complexes import reference_subdivision


def test_hollow_triangle_closure():
    x = corpus.HOLLOW_TRIANGLE
    assert len(x.vertices) == 3
    assert x.simplex_count(1) == 3
    assert x.simplex_count(2) == 0


def test_full_triangle_closure():
    x = corpus.FULL_TRIANGLE
    assert len(x.vertices) == 3
    assert x.simplex_count(1) == 3
    assert x.simplex_count(2) == 1


def test_repeated_vertex_rejected():
    with pytest.raises(ValidationError):
        build_complex([["a", "a"]])


def test_rebuild_from_maximal_is_idempotent():
    for x in (corpus.RP2_SIX, corpus.TORUS_SEVEN, corpus.BOUNDARY_3SIMPLEX):
        rebuilt = build_complex(
            [sorted(s) for s in x.maximal_simplices]
        )
        assert rebuilt == x


@pytest.mark.parametrize(
    "complex_, expected",
    [
        ("POINT", 1),
        ("HOLLOW_TRIANGLE", 0),
        ("BOUNDARY_3SIMPLEX", 2),
        ("RP2_SIX", 1),
        ("TORUS_SEVEN", 0),
    ],
)
def test_euler_characteristic(complex_, expected):
    assert euler_characteristic(getattr(corpus, complex_)) == expected


def test_components():
    assert len(connected_components(corpus.TWO_COMPONENTS)) == 2
    assert len(connected_components(corpus.TORUS_SEVEN)) == 1


def test_subdivision_point_and_edge():
    sd, carrier = barycentric_subdivision(corpus.POINT)
    assert len(sd.vertices) == 1
    sd, carrier = barycentric_subdivision(corpus.EDGE)
    assert len(sd.vertices) == 3
    assert sd.simplex_count(1) == 2
    assert carrier[("a", "b")] == frozenset(("a", "b"))


@pytest.mark.parametrize("name", [
    "POINT", "EDGE", "HOLLOW_TRIANGLE", "FULL_TRIANGLE", "BOUNDARY_3SIMPLEX",
    "FULL_3SIMPLEX", "RP2_SIX", "TORUS_SEVEN", "TWO_COMPONENTS",
])
def test_subdivision_matches_the_face_chain_reference(name):
    x = getattr(corpus, name)
    for _ in range(2):
        sd, carrier = barycentric_subdivision(x)
        ref = reference_subdivision(x)
        assert sd.simplices == ref.simplices
        assert sd.vertices == ref.vertices
        assert sd.maximal_simplices == ref.maximal_simplices
        assert carrier == {t: frozenset(t) for t in ref.vertices}
        x = sd


def test_subdivision_of_the_empty_complex_is_empty():
    sd, carrier = barycentric_subdivision(SimplicialComplex())
    assert sd.is_empty() and carrier == {}


def test_subdivision_hollow_triangle_is_hexagon():
    sd, _ = barycentric_subdivision(corpus.HOLLOW_TRIANGLE)
    assert len(sd.vertices) == 6
    assert sd.simplex_count(1) == 6
    assert sd.simplex_count(2) == 0


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_subdivision_preserves_homology(name):
    x = corpus.SURFACES[name]
    sd, _ = barycentric_subdivision(x)
    a, b = homology(x, x.dim), homology(sd, x.dim)
    assert a.betti_numbers() == b.betti_numbers()
    assert a.torsion() == b.torsion()


def test_cylinder_of_identity_on_point_is_edge():
    m, end0, end1 = mapping_cylinder(SimplicialMap.identity(corpus.POINT))
    assert len(m.vertices) == 2
    assert m.simplex_count(1) == 1


def test_cylinder_of_constant_map_is_cone():
    x = corpus.HOLLOW_TRIANGLE
    const = SimplicialMap(x, corpus.POINT, {v: "p" for v in x.vertices})
    m, end0, end1 = mapping_cylinder(const)
    result = homology(m)
    assert result.betti_numbers() == (1, 0, 0)
    assert all(t == () for t in result.torsion())


def test_cylinder_of_identity_on_edge_is_square():
    m, _, _ = mapping_cylinder(SimplicialMap.identity(corpus.EDGE))
    assert len(m.vertices) == 4
    assert m.simplex_count(2) == 2
    assert homology(m).betti_numbers() == (1, 0, 0)


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_cylinder_has_target_homology(name):
    x = corpus.SURFACES[name]
    sd, carrier = barycentric_subdivision(x)
    # the carrier collapse sd -> x is simplicial: send a chain's barycenter
    # to the least vertex of its smallest simplex
    collapse = SimplicialMap(sd, x, {v: min(v) for v in sd.vertices})
    m, _, _ = mapping_cylinder(collapse)
    a, b = homology(m, x.dim), homology(x, x.dim)
    assert a.betti_numbers() == b.betti_numbers()
    assert a.torsion() == b.torsion()


def test_cylinder_embeds_both_ends():
    x, y = corpus.HOLLOW_TRIANGLE, corpus.POINT
    const = SimplicialMap(x, y, {v: "p" for v in x.vertices})
    m, end0, end1 = mapping_cylinder(const)
    assert end0.source == x and end1.source == y
    end0_image = {frozenset((0, v) for v in s) for s in x.simplices}
    assert end0_image <= m.simplices


def test_pi1_full_triangle_trivial():
    p = pi1_presentation(corpus.FULL_TRIANGLE, "a")
    assert p.generator_count == 1
    assert p.relations == ((1,),)


def test_pi1_hollow_triangle_infinite_cyclic():
    p = pi1_presentation(corpus.HOLLOW_TRIANGLE, "a")
    assert p.generator_count == 1
    assert p.relations == ()


def test_pi1_point():
    p = pi1_presentation(corpus.POINT, "p")
    assert p.generator_count == 0


def test_pi1_requires_connected():
    with pytest.raises(ValidationError):
        pi1_presentation(corpus.TWO_COMPONENTS, "a")


@pytest.mark.parametrize("x,basepoint,count", [
    (corpus.TWO_COMPONENTS, "a", 2),
    (corpus.TWO_COMPONENTS, "d", 2),
    (build_complex([["a", "b"], ["c"], ["d", "e", "f"]]), "c", 3),
])
def test_pi1_names_the_component_count(x, basepoint, count):
    with pytest.raises(ValidationError,
                       match=rf"^complex is disconnected \({count} components\)$"):
        pi1_presentation(x, basepoint)


def test_pi1_of_a_connected_complex_reads_no_components(monkeypatch):
    # connectivity comes from the presentation's own spanning tree; the
    # components are counted only to name a failure
    def refuse(x):
        raise AssertionError("components were computed")

    monkeypatch.setattr("cechfib.complexes.connected_components", refuse)
    for x in corpus.SURFACES.values():
        p = pi1_presentation(x, x.vertices[0])
        assert len(p.tree_edges) == len(x.vertices) - 1


def test_pi1_abelianization_matches_betti():
    """Rank of the abelianized presentation equals the first Betti number."""
    import sympy

    for name, x in corpus.SURFACES.items():
        p = pi1_presentation(x, x.vertices[0])
        rows = []
        for word in p.relations:
            row = [0] * p.generator_count
            for s in word:
                row[abs(s) - 1] += 1 if s > 0 else -1
            rows.append(row)
        if rows:
            rank = sympy.Matrix(rows).rank()
        else:
            rank = 0
        assert p.generator_count - rank == homology(x, 1).group(1).betti, name


def all_pairs_maximal(x):
    """Oracle: simplices contained in no other simplex, by a full scan."""
    simplices = x.simplices
    return sorted(
        tuple(sorted(s)) for s in simplices
        if not any(s < t for t in simplices)
    )


def sorted_maximal(x):
    return [tuple(sorted(s)) for s in x.maximal_simplices]


FAMILIES = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=1, max_size=8,
)


@given(FAMILIES, FAMILIES, st.integers(0, 2**32))
@settings(max_examples=80, deadline=None)
def test_maximal_simplices_match_all_pairs_scan(a, b, seed):
    x, y = build_complex(a), build_complex(b)
    for z in (x, y, intersect_complexes(x, y)):
        assert sorted_maximal(z) == all_pairs_maximal(z)
    # restrictions of a twisted bundle to a random subcomplex of its base
    rng = random.Random(seed)
    name, group_name = rng.choice(
        [("hollow_triangle", "s3"), ("rp2", "z2"), ("torus", "z3")]
    )
    cocycle = corpus.random_cocycle(name, corpus.GROUPS[group_name], rng)
    bundle = total_space(cocycle, regular_action(cocycle.group))
    base = bundle.base.maximal_simplices
    sub = build_complex(rng.sample(base, rng.randint(1, len(base))))
    total = restrict_bundle(bundle, sub).total
    assert sorted_maximal(total) == all_pairs_maximal(total)


@given(FAMILIES, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_family_not_closed_under_faces_is_rejected(a, seed):
    x = build_complex(a)
    faces = [s for s in x.simplices if s not in x.maximal_simplices]
    if not faces:
        return
    dropped = random.Random(seed).choice(sorted(faces, key=sorted))
    with pytest.raises(ValidationError):
        SimplicialComplex(x.simplices - {dropped})


def test_missing_dimension_is_not_closed():
    triangle_without_edges = [frozenset("abc")] + [frozenset(v) for v in "abc"]
    with pytest.raises(ValidationError):
        SimplicialComplex(triangle_without_edges)


COMPLEX_REFUSALS = {
    "presentation-at-a-missing-basepoint": (
        lambda: pi1_presentation(corpus.EDGE, "z"), "basepoint 'z' is not a vertex"),
    # a simplex given as a list cannot go in a set of simplices; the
    # refusal is the one for labels that cannot be ordered
    "simplex-that-is-not-hashable": (
        lambda: SimplicialComplex([["a", "b"]]),
        "vertex identifiers must be mutually orderable"),
}


@pytest.mark.parametrize("case", sorted(COMPLEX_REFUSALS))
def test_complex_refusal_names_the_fault(case):
    call, message = COMPLEX_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
