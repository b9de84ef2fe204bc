"""Homology isomorphism checks and class labels against their references.

``map_induces_homology_isomorphism`` compares the groups of both sides
and asks the mapping cone to have no homology; ``HomologyWorkspace``
and ``CechClassifier`` label classes through one ``LatticeQuotient``.
The references in ``reference_homology`` are the implementations these
replaced: verdicts, groups, coordinates, labels, class counts and
error messages must all agree.
"""

from __future__ import annotations

import functools
import importlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cechfib import (
    HomologyWorkspace,
    SimplicialMap,
    ValidationError,
    abelian_class,
    abelian_class_count,
    abelian_coefficients,
    barycentric_subdivision,
    build_complex,
    cech_nerve,
    chain_complex_of,
    closed_star_cover,
    cyclic_group,
    direct_product,
    map_induces_homology_isomorphism,
    section_map,
    simplicial_chain_map,
    star_cover,
    validate_gerbe_cocycle,
)
from cechfib.classifying import bar_construction
from cechfib.gerbes import CechClassifier
from cechfib.snf import sparse_multiply

import corpus
import reference_homology as ref

homology_module = importlib.import_module("cechfib.homology")

COMPLEXES = {
    "point": corpus.POINT,
    "edge": corpus.EDGE,
    "hollow_triangle": corpus.HOLLOW_TRIANGLE,
    "full_triangle": corpus.FULL_TRIANGLE,
    "hexagon": corpus.HEXAGON,
    "boundary_3simplex": corpus.BOUNDARY_3SIMPLEX,
    "full_3simplex": corpus.FULL_3SIMPLEX,
    "rp2": corpus.RP2_SIX,
    "torus": corpus.TORUS_SEVEN,
    "two_components": corpus.TWO_COMPONENTS,
}

SUBDIVIDED = {
    f"sd_{name}": barycentric_subdivision(COMPLEXES[name])[0]
    for name in ("hollow_triangle", "full_triangle", "boundary_3simplex")
}

Z2xZ4 = direct_product(cyclic_group(2), cyclic_group(4))

# H_2 = Z/2: the triangle-to-tetrahedron coboundary has an invariant
# factor 2, which the modulus 3 does not divide
SUSPENDED_RP2 = build_complex(
    [list(t) + [pole] for t in corpus.RP2_SIX.maximal_simplices
     for pole in (6, 7)]
)
# H^2 with Z/m coefficients is (Z/m)^2: two torsion factors in one quotient
TWO_SPHERES = build_complex(
    [s for t in corpus.BOUNDARY_3SIMPLEX.maximal_simplices
     for s in (sorted(t), [v + 4 for v in t])]
)


def same_outcome(run, *args):
    """The result of ``run(*args)``, or the message of its ValidationError."""
    try:
        return run(*args)
    except ValidationError as exc:
        return ("ValidationError", str(exc))


def assert_verdicts_agree(f, degrees):
    for n in degrees:
        want = ref.map_induces_homology_isomorphism(f, n)
        assert map_induces_homology_isomorphism(f, n) == want, n


# ---------------------------------------------------------------- verdicts


@pytest.mark.parametrize("name", sorted(COMPLEXES))
def test_star_cover_sections_match_reference(name):
    x = COMPLEXES[name]
    cover = star_cover(x)
    f = section_map(cover, cech_nerve(cover))
    assert_verdicts_agree(f, range(max(x.dim, 0) + 2))
    assert map_induces_homology_isomorphism(f, max(x.dim, 0) + 1)


def surface_rung(name, rung):
    x = corpus.SURFACES[name]
    for _ in range(rung):
        x, _ = barycentric_subdivision(x)
    cover = star_cover(x)
    return section_map(cover, cech_nerve(cover))


@pytest.mark.parametrize("name", ["torus", "rp2"])
def test_subdivided_surface_sections_match_reference(name):
    """Every degree at rung 0, the surface's own degree at rung 1.  The
    reference takes minutes at rung 2, whose known verdict is checked in
    the next test."""
    assert_verdicts_agree(surface_rung(name, 0), range(4))
    assert_verdicts_agree(surface_rung(name, 1), [2])


@pytest.mark.parametrize("name", ["torus", "rp2"])
def test_twice_subdivided_surface_sections_are_isomorphisms(name):
    assert map_induces_homology_isomorphism(surface_rung(name, 2), 2)


def test_equal_groups_with_a_degree_two_map_are_told_apart():
    """The hexagon wraps twice around the hollow triangle: both have the
    groups of a circle, but H_1 maps by 2, so the cone has Z/2 in
    degree 1."""
    double = SimplicialMap(
        corpus.HEXAGON, corpus.HOLLOW_TRIANGLE,
        {i: "abc"[i % 3] for i in range(6)},
    )
    assert not map_induces_homology_isomorphism(double, 1)
    assert map_induces_homology_isomorphism(double, 0)
    assert_verdicts_agree(double, range(3))


def test_maps_killing_the_torsion_of_rp2_are_not_isomorphisms():
    x = corpus.RP2_SIX
    constant = SimplicialMap(x, x, {v: 0 for v in x.vertices})
    into_triangle = SimplicialMap(x, x, {v: (0, 1, 4)[v % 3] for v in x.vertices})
    for f in (constant, into_triangle):
        assert map_induces_homology_isomorphism(f, 0)
        assert not map_induces_homology_isomorphism(f, 1)
        assert_verdicts_agree(f, range(4))


def _simplicial_vertex_map(draw, x, y):
    """A vertex map x -> y under which every simplex image is a simplex,
    one vertex at a time, each image drawn among those that keep the
    vertices placed so far simplicial; None when no image fits."""
    star = {v: [] for v in x.vertices}
    for s in x.maximal_simplices:
        for v in s:
            star[v].append(s)
    images = {}
    for v in x.vertices:
        fits = [
            w for w in y.vertices
            if all(
                y.has_simplex({images[u] for u in s if u in images} | {w})
                for s in star[v]
            )
        ]
        if not fits:
            return None
        images[v] = draw(st.sampled_from(fits))
    return images


@st.composite
def simplicial_maps(draw):
    """A map from a corpus complex, or its subdivision through a
    simplicial approximation of the identity, into a corpus complex or
    a subdivided one."""
    source = COMPLEXES[draw(st.sampled_from(sorted(COMPLEXES)))]
    targets = {**COMPLEXES, **SUBDIVIDED}
    target = targets[draw(st.sampled_from(sorted(targets)))]
    images = _simplicial_vertex_map(draw, source, target)
    assume(images is not None)
    if source.dim <= 2 and len(source.vertices) <= 7 and draw(st.booleans()):
        # each barycenter goes to a vertex of the simplex it refines
        sd, carrier = barycentric_subdivision(source)
        return SimplicialMap(sd, target, {
            t: images[draw(st.sampled_from(sorted(carrier[t])))]
            for t in sd.vertices
        })
    return SimplicialMap(source, target, images)


@given(simplicial_maps())
@settings(max_examples=300, deadline=None)
def test_generated_map_verdicts_match_reference(f):
    top = max(f.source.dim, f.target.dim, 0) + 1
    assert_verdicts_agree(f, range(top + 1))


@given(simplicial_maps(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_mapping_cone_is_a_chain_complex(f, n):
    """Cone boundaries compose to zero and C_k = Y_k + X_(k-1).  The
    verdict alone cannot show a sign slip in the cone: negating one
    block of rows keeps every boundary's invariant factors."""
    src, tgt = (
        chain_complex_of(x, min(n + 1, max(x.dim, 0)))
        for x in (f.source, f.target)
    )
    cone = homology_module._mapping_cone(
        src, tgt, simplicial_chain_map(f, n), n + 1
    )
    assert cone.ranks == tuple(
        tgt.rank(k) + src.rank(k - 1) for k in range(n + 2)
    )
    for k in range(1, n + 1):
        assert not any(sparse_multiply(cone.boundary(k), cone.boundary(k + 1)))


# ---------------------------------------------------------------- workspace


def _chains(cc, k, rng, count=6):
    """Random cycles (basis combinations plus boundaries), then random
    chains, most of which are no cycles."""
    basis = ref.cycle_basis(cc, k)
    bound = cc.boundary(k + 1)
    out = []
    for _ in range(count):
        chain = [0] * cc.rank(k)
        for vec in basis:
            c = rng.randint(-2, 2)
            for i, v in vec.items():
                chain[i] += c * v
        picks = [{0: rng.randint(-2, 2)} for _ in range(cc.rank(k + 1))]
        for i, row in enumerate(sparse_multiply(bound, picks)):
            chain[i] += row.get(0, 0)
        out.append(chain)
        out.append([rng.randint(-1, 1) for _ in range(cc.rank(k))])
    return out


def _workspace_cases():
    """(name, chain complex, top degree) for each complex and bar complex."""
    cases = [
        (name, chain_complex_of(x), max(x.dim, 0))
        for name, x in sorted({**COMPLEXES, **SUBDIVIDED}.items())
    ]
    cases.append(("suspended_rp2", chain_complex_of(SUSPENDED_RP2), 3))
    for name in ("z2", "z3", "z4", "s3", "z2xz2"):
        cases.append(
            (f"bar_{name}", bar_construction(corpus.GROUPS[name], 3).complex, 2)
        )
    return cases


WORKSPACE_CASES = _workspace_cases()


@pytest.mark.parametrize(
    "name, cc, top", WORKSPACE_CASES, ids=[case[0] for case in WORKSPACE_CASES]
)
def test_workspace_matches_reference(name, cc, top):
    rng = random.Random(name)
    want = ref.HomologyWorkspace(cc, top)
    got = HomologyWorkspace(cc, top)
    for k in range(top + 1):
        assert got.group(k) == want.group(k)
        for chain in _chains(cc, k, rng):
            assert same_outcome(got.cycle_coordinates, k, chain) == same_outcome(
                want.cycle_coordinates, k, chain
            )
            assert same_outcome(got.class_label, k, chain) == same_outcome(
                want.class_label, k, chain
            )


# ---------------------------------------------------------------- classes


@functools.cache
def _nerves():
    out = []
    for name, x in sorted(COMPLEXES.items()):
        out.append((f"star_{name}", cech_nerve(star_cover(x))))
        out.append((f"closed_star_{name}", cech_nerve(closed_star_cover(x))))
    for name, x in (("suspended_rp2", SUSPENDED_RP2), ("two_spheres", TWO_SPHERES)):
        out.append((f"star_{name}", cech_nerve(star_cover(x))))
    return tuple(out)


COEFFICIENTS = {
    "z2": corpus.Z2, "z3": corpus.Z3, "z4": corpus.Z4,
    "z2xz2": corpus.Z2xZ2, "z2xz4": Z2xZ4,
}


@pytest.mark.parametrize("coeff_name", sorted(COEFFICIENTS))
def test_cech_classifier_matches_reference(coeff_name):
    group = COEFFICIENTS[coeff_name]
    rng = random.Random(coeff_name)
    for name, nerve in _nerves():
        want = ref.CechClassifier(nerve, group)
        got = CechClassifier(nerve, group)
        assert got.class_count == want.class_count, name
        triangles = nerve.keys(3)
        pairs = nerve.keys(2)
        for _ in range(12):
            # a random assignment plus the coboundary of a random shift;
            # past the tetrahedra most of these are not cocycles
            shift = {p: rng.randrange(group.order) for p in pairs}
            witnesses = {}
            for a, b, c in triangles:
                moved = group.mul(
                    group.mul(shift[(a, b)], shift[(b, c)]),
                    group.inv(shift[(a, c)]),
                )
                noise = rng.randrange(group.order) if rng.random() < 0.5 else 0
                witnesses[(a, b, c)] = group.mul(noise, moved)
            assert same_outcome(got.label, witnesses) == same_outcome(
                want.label, witnesses
            ), name


@pytest.mark.parametrize("coeff_name", sorted(COEFFICIENTS))
def test_gerbe_class_labels_and_counts_match_reference(coeff_name):
    group = COEFFICIENTS[coeff_name]
    module = abelian_coefficients(group)
    rng = random.Random(coeff_name)
    for name in ("boundary_3simplex", "full_3simplex", "rp2", "torus"):
        cover = star_cover(COMPLEXES[name])
        nerve = cech_nerve(cover)
        want = ref.CechClassifier(nerve, group)
        assert abelian_class_count(nerve, group) == want.class_count
        for _ in range(8):
            witnesses = {t: rng.randrange(group.order) for t in nerve.keys(3)}
            try:
                data = validate_gerbe_cocycle(
                    cover, module, {p: 0 for p in nerve.keys(2)}, witnesses,
                )
            except ValidationError:
                continue
            assert abelian_class(data) == want.label(data.witnesses), name
