"""Bundle isomorphisms against the reference search.

``bundle_isomorphism`` branches on total vertices and propagates along
lifted edges; ``reference_bundles.bundle_isomorphism`` is the search it
replaced, which tries every fiber bijection at each base vertex.  Where
the reference finishes within its budget, verdicts and the exact witness
dicts must agree.  Every witness the library returns is also checked
directly: it keeps fibers, is bijective and maps simplices onto
simplices.

``io.bundle_to_doc`` flattens each total vertex once; its documents must
equal, byte for byte, those of the reference that flattened every vertex
of every simplex.
"""

from __future__ import annotations

import json
import random

import pytest

from cechfib import (
    Bundle,
    BudgetExceededError,
    Cochain0,
    SimplicialMap,
    build_complex,
    bundle_isomorphism,
    closed_star_cover,
    coboundary_transform,
    from_homomorphism,
    io,
    local_trivialization_check,
    mapping_cylinder_bundle,
    product_bundle,
    pullback,
    regular_action,
    section_map,
    restrict_bundle,
    skeletal_construction,
    total_space,
    trivial_cocycle,
)

import corpus
import reference_bundles

# the reference is slow on non-isomorphic pairs; past this many guesses
# a pair is only checked against itself
REFERENCE_BUDGET = 3_000


def reference(b1, b2):
    """(finished, witness) of the reference search."""
    try:
        return True, reference_bundles.bundle_isomorphism(
            b1, b2, budget=REFERENCE_BUDGET
        )
    except BudgetExceededError:
        return False, None


def assert_is_isomorphism(b1, b2, witness):
    assert set(witness) == set(b1.total.vertices)
    assert sorted(witness.values()) == sorted(b2.total.vertices)
    for e, w in witness.items():
        assert b2.projection(w) == b1.projection(e)
    image = {frozenset(witness[e] for e in s) for s in b1.total.simplices}
    assert image == b2.total.simplices


def check_pair(b1, b2):
    """Compare with the reference where it finishes; return whether it did."""
    witness = bundle_isomorphism(b1, b2)
    if witness is not None:
        assert_is_isomorphism(b1, b2, witness)
    finished, expected = reference(b1, b2)
    if finished:
        assert witness == expected
    return finished


def twisted(cocycle, rng):
    gauge = Cochain0(
        cocycle.cover, cocycle.group,
        {idx: rng.randrange(cocycle.group.order) for idx in cocycle.cover.indices},
    )
    return coboundary_transform(cocycle, gauge)


def test_corpus_bundles_against_reference():
    """Quotient against skeletal totals, and the circle's double cover
    against the trivial one, in both directions."""
    for name in ("hollow_triangle", "boundary_3simplex", "rp2", "torus"):
        cover, nerve, _ = corpus.cached_star_cover(name)
        for group in (corpus.Z2, corpus.Z3, corpus.S3):
            action = regular_action(group)
            for images in corpus.cached_homs(name, group)[:3]:
                cocycle = from_homomorphism(images, cover, group)
                built = total_space(cocycle, action)
                skeletal = skeletal_construction(cocycle, action)
                assert check_pair(built, skeletal), (name, images)
                assert check_pair(skeletal, built), (name, images)
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    action = regular_action(corpus.Z2)
    trivial = total_space(trivial_cocycle(cover, corpus.Z2), action)
    double = total_space(
        from_homomorphism(corpus.cached_homs("hollow_triangle", corpus.Z2)[1],
                          cover, corpus.Z2),
        action,
    )
    assert check_pair(trivial, double)
    assert check_pair(double, trivial)
    assert bundle_isomorphism(trivial, double) is None


@pytest.mark.parametrize("name", ["hollow_triangle", "boundary_3simplex", "rp2", "torus"])
@pytest.mark.parametrize("group_name", ["z2", "z4", "z2xz2", "s3"])
def test_seeded_pairs_against_reference(name, group_name):
    """Half the pairs are one cocycle against a gauge twist of itself,
    half two cocycles drawn independently."""
    group = corpus.GROUPS[group_name]
    rng = random.Random(f"{name}-{group_name}")
    action = regular_action(group)
    finished = 0
    for i in range(6):
        c1 = corpus.random_cocycle(name, group, rng)
        c2 = twisted(c1, rng) if i % 2 == 0 else corpus.random_cocycle(name, group, rng)
        b1, b2 = total_space(c1, action), total_space(c2, action)
        finished += check_pair(b1, b2)
        if i % 2 == 0:
            assert bundle_isomorphism(b1, b2) is not None
    assert finished >= 1


def test_products_and_local_trivializations_against_reference():
    for name, base in corpus.SURFACES.items():
        for group in (corpus.Z2, corpus.S3):
            product = product_bundle(base, group.elements())
            assert check_pair(product, product), name
    rng = random.Random(7)
    for name, group_name, cocycle in corpus.random_cocycle_instances(12, rng):
        group = corpus.GROUPS[group_name]
        bundle = total_space(cocycle, regular_action(group))
        cover = closed_star_cover(bundle.base)
        for idx in cover.indices:
            restricted = restrict_bundle(bundle, cover.parts[idx])
            check_pair(restricted, product_bundle(cover.parts[idx], bundle.fiber))
        # closed stars in a nerve are cones, over which every bundle is trivial
        assert set(local_trivialization_check(bundle, cover).values()) == {True}


def corpus_bundles():
    for name in ("hollow_triangle", "boundary_3simplex", "rp2", "torus"):
        cover, nerve, _ = corpus.cached_star_cover(name)
        for group in (corpus.Z2, corpus.S3):
            action = regular_action(group)
            images = corpus.cached_homs(name, group)[-1]
            cocycle = from_homomorphism(images, cover, group)
            built = total_space(cocycle, action)
            yield built
            yield skeletal_construction(cocycle, action)
            yield product_bundle(corpus.SURFACES[name], group.elements())
            if group is corpus.Z2:
                # pulled-back vertices nest: (base simplex, (index, fiber point))
                yield pullback(built, section_map(cover, nerve))
            stars = closed_star_cover(built.base)
            yield restrict_bundle(built, stars.parts[stars.indices[0]])
    # its vertices are (end, total vertex), one level deeper
    yield mapping_cylinder_bundle(
        built, built, SimplicialMap.identity(built.total)
    )[0]


def colliding_bundle():
    """Tuple labels that flatten to one string, within a simplex and
    across simplices."""
    base = build_complex([["s", "t"], ["t", "u"]])
    left, right = ("a|b", "c"), ("a", "b|c")
    total = build_complex([
        [left, ("p",)], [right, ("q",)],
        [("p",), ("x|y", "z")], [("q",), ("x", "y|z")],
    ])
    projection = SimplicialMap(total, base, {
        left: "s", right: "s", ("p",): "t", ("q",): "t",
        ("x|y", "z"): "u", ("x", "y|z"): "u",
    })
    yield Bundle(total=total, base=base, projection=projection, fiber=(0, 1))
    edge = build_complex([[left, right]])
    yield Bundle(
        total=edge, base=base,
        projection=SimplicialMap(edge, base, {left: "s", right: "t"}),
        fiber=(0,),
    )


def test_bundle_to_doc_matches_reference():
    bundles = list(corpus_bundles()) + list(colliding_bundle())
    for bundle in bundles:
        expected = json.dumps(reference_bundles.bundle_to_doc(bundle))
        assert json.dumps(io.bundle_to_doc(bundle)) == expected
    collided = io.bundle_to_doc(bundles[-2])
    assert collided["total"]["maximal"] == [
        ["a|b|c", "p"], ["a|b|c", "q"], ["p", "x|y|z"], ["q", "x|y|z"],
    ]


EDGE_BASE = build_complex([["s", "t"]])


def hand_bundle(*maximal, fiber=(0, 1)):
    """A bundle over the edge s-t built without ``validate_bundle``: the
    total vertex written "s0" is (s, 0) and lies over s.  Its projection
    need not be a covering."""
    total = build_complex([[(v[0], int(v[1:])) for v in s] for s in maximal])
    projection = SimplicialMap(total, EDGE_BASE, {v: v[0] for v in total.vertices})
    return Bundle(total=total, base=EDGE_BASE, projection=projection, fiber=fiber)


PRODUCT = product_bundle(EDGE_BASE, (0, 1))
# s0 has both lifts of t as neighbours and s1 none: same counts as the product
STAR = hand_bundle(["s0", "t0"], ["s0", "t1"], ["s1"])
# one triangle over the edge, with both lifts of t joined to both lifts of s
TRIANGLE_T0 = hand_bundle(["s0", "s1", "t0"], ["s0", "t1"], ["s1", "t1"])
TRIANGLE_T1 = hand_bundle(["s0", "s1", "t1"], ["s0", "t0"], ["s1", "t0"])

HAND_PAIRS = {
    # different bases, fiber sizes and simplex counts are refused before any search
    "other base": (PRODUCT, product_bundle(build_complex([["s", "u"]]), (0, 1)), None),
    "other fiber size": (PRODUCT, product_bundle(EDGE_BASE, (0, 1, 2)), None),
    "other edge count": (PRODUCT, hand_bundle(["s0", "t0"], ["s0", "t1"], ["s1", "t0"]), None),
    # s0 -> s0 meets two lifts of t (nothing forced), then s1 -> s1 meets none
    "lifts missing": (PRODUCT, STAR, None),
    "lifts forced twice": (STAR, PRODUCT, None),
    # edges propagate, but t0 -> t0 closes the triangle onto a non-simplex
    "triangle moved": (TRIANGLE_T0, TRIANGLE_T1, {
        ("s", 0): ("s", 0), ("s", 1): ("s", 1), ("t", 0): ("t", 1), ("t", 1): ("t", 0),
    }),
}


@pytest.mark.parametrize("case", sorted(HAND_PAIRS))
def test_hand_built_bundles_against_reference(case):
    b1, b2, want = HAND_PAIRS[case]
    assert bundle_isomorphism(b1, b2) == want
    assert check_pair(b1, b2)
