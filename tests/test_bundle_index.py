"""The bundle index against scans of the whole total.

``Bundle.fiber_over`` and ``Bundle.lifts_of`` read two indexes built once
per bundle, and ``pullback`` and ``restrict_bundle`` use them.  The
references here are the scans they replaced: every total vertex or
simplex projected and compared, once per query.
"""

from __future__ import annotations

import random

import pytest

from cechfib import (
    Bundle,
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    barycentric_subdivision,
    build_complex,
    closed_star_cover,
    product_bundle,
    pullback,
    regular_action,
    restrict_bundle,
    section_map,
    skeletal_construction,
    total_space,
    validate_bundle,
)

import corpus


def scan_fiber_over(bundle, base_vertex):
    return tuple(
        v for v in bundle.total.vertices if bundle.projection(v) == base_vertex
    )


def scan_lifts_of(bundle, base_simplex):
    target = frozenset(base_simplex)
    out = [
        s for s in bundle.total.simplices
        if bundle.projection.image_simplex(s) == target and len(s) == len(target)
    ]
    return sorted(out, key=lambda s: tuple(sorted(s)))


def scan_restrict(bundle, sub):
    kept = [
        s for s in bundle.total.simplices
        if sub.has_simplex(bundle.projection.image_simplex(s))
    ]
    return SimplicialComplex(kept)


def scan_pullback_total(bundle, f):
    pieces = []
    for s in f.source.maximal_simplices:
        for lift in scan_lifts_of(bundle, f.image_simplex(s)):
            over = {bundle.projection(e): e for e in lift}
            pieces.append({(x, over[f(x)]) for x in s})
    return build_complex(pieces) if pieces else SimplicialComplex([])


def corpus_bundles():
    rng = random.Random(7)
    bundles = []
    for base_name, group_name, cocycle in corpus.random_cocycle_instances(12, rng):
        action = regular_action(cocycle.group)
        build = total_space if len(bundles) % 2 else skeletal_construction
        bundles.append((f"{base_name}-{group_name}", build(cocycle, action)))
    bundles.append(("product-rp2", product_bundle(corpus.RP2_SIX, ("x", "y"))))
    return bundles


BUNDLES = corpus_bundles()


@pytest.mark.parametrize("name, bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_fibers_and_lifts_match_scans(name, bundle):
    for v in bundle.base.vertices:
        assert bundle.fiber_over(v) == scan_fiber_over(bundle, v)
    assert bundle.fiber_over("not a base vertex") == ()
    for k in range(bundle.base.dim + 1):
        for s in bundle.base.simplices_of_dim(k):
            lifts = bundle.lifts_of(s)
            assert lifts == scan_lifts_of(bundle, s)
            assert len(lifts) == len(bundle.fiber)
    # a vertex set that is no base simplex has no lifts
    assert bundle.lifts_of(frozenset(bundle.base.vertices)) == (
        scan_lifts_of(bundle, bundle.base.vertices))


@pytest.mark.parametrize("name, bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_restriction_matches_scan(name, bundle):
    subs = [cover_part for cover_part in
            closed_star_cover(bundle.base).parts.values()]
    subs.append(bundle.base)
    subs.append(SimplicialComplex([]))
    for sub in subs:
        restricted = restrict_bundle(bundle, sub)
        assert restricted.total == scan_restrict(bundle, sub)
        assert restricted.total.maximal_simplices == \
            scan_restrict(bundle, sub).maximal_simplices
        assert restricted.base == sub


@pytest.mark.parametrize("name, bundle", BUNDLES, ids=[n for n, _ in BUNDLES])
def test_pullback_matches_scan(name, bundle):
    sd, carrier = barycentric_subdivision(bundle.base)
    # send each barycenter to the least vertex of the simplex it refines
    least = SimplicialMap(sd, bundle.base, {v: min(carrier[v]) for v in sd.vertices})
    identity = SimplicialMap.identity(bundle.base)
    for f in (identity, least):
        pulled = pullback(bundle, f)
        assert pulled.total == scan_pullback_total(bundle, f)
        assert pulled.total.maximal_simplices == \
            scan_pullback_total(bundle, f).maximal_simplices


def test_pullback_along_the_section_of_a_star_cover():
    _, nerve, _ = corpus.cached_star_cover("rp2")
    cocycle = corpus.random_cocycle("rp2", corpus.S3, random.Random(3))
    bundle = total_space(cocycle, regular_action(corpus.S3))
    f = section_map(cocycle.cover, nerve)
    assert pullback(bundle, f).total == scan_pullback_total(bundle, f)


def test_validate_bundle_reports_an_uneven_fiber():
    # two sheets over "a" but one over "b": the total is an edge plus a vertex
    total = build_complex([[("a", 0), ("b", 0)], [("a", 1)]])
    base = build_complex([["a", "b"]])
    projection = SimplicialMap(total, base, {v: v[0] for v in total.vertices})
    bundle = Bundle(total=total, base=base, projection=projection, fiber=(0, 1))
    with pytest.raises(ValidationError) as caught:
        validate_bundle(bundle)
    assert str(caught.value) == "fiber over 'b' has 1 vertices, want 2"
