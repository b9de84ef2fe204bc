import random

import pytest

from cechfib import (
    BudgetExceededError,
    GroupAction,
    SimplicialMap,
    ValidationError,
    build_complex,
    bundle_isomorphism,
    closed_star_cover,
    connected_components,
    enumerate_homs,
    euler_characteristic,
    from_homomorphism,
    holonomy,
    homology,
    local_trivialization_check,
    map_induces_homology_isomorphism,
    mapping_cylinder_bundle,
    one_part_cover,
    patch_bundles,
    product_bundle,
    pullback,
    regular_action,
    restrict_bundle,
    section_map,
    skeletal_construction,
    star_cover,
    symmetric_group,
    total_space,
    trivial_cocycle,
    validate_cocycle,
)

import corpus


def circle_double_cover():
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    c = validate_cocycle(
        cover, corpus.Z2,
        {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1},
    )
    return c, total_space(c, regular_action(corpus.Z2))


def test_trivial_cocycle_gives_disjoint_copies():
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    c = trivial_cocycle(cover, corpus.Z2)
    bundle = total_space(c, regular_action(corpus.Z2))
    assert len(connected_components(bundle.total)) == 2
    assert homology(bundle.total).betti_numbers() == (2, 2)


def test_double_cover_is_connected_circle():
    c, bundle = circle_double_cover()
    assert euler_characteristic(bundle.total) == 0
    assert homology(bundle.total).betti_numbers() == (1, 1)
    assert len(connected_components(bundle.total)) == 1


def test_total_space_euler_multiplicativity():
    rng = random.Random(31)
    for name, group_name, cocycle in corpus.random_cocycle_instances(12, rng):
        group = corpus.GROUPS[group_name]
        bundle = total_space(cocycle, regular_action(group))
        assert euler_characteristic(bundle.total) == \
            group.order * euler_characteristic(bundle.base)


def test_total_space_components_match_holonomy_orbits():
    rng = random.Random(37)
    for name, group_name, cocycle in corpus.random_cocycle_instances(12, rng):
        action = regular_action(corpus.GROUPS[group_name])
        bundle = total_space(cocycle, action)
        orbits = action.orbits_under(holonomy(cocycle))
        assert len(connected_components(bundle.total)) == len(orbits)


def test_total_space_rejects_foreign_action():
    c, _ = circle_double_cover()
    with pytest.raises(ValidationError):
        total_space(c, regular_action(corpus.Z4))


def test_skeletal_one_vertex_nerve_is_product():
    cover = one_part_cover(corpus.FULL_TRIANGLE)
    c = trivial_cocycle(cover, corpus.Z2)
    bundle = skeletal_construction(c, regular_action(corpus.Z2))
    assert len(bundle.total.vertices) == 2


def test_skeletal_matches_direct_on_double_cover():
    c, direct = circle_double_cover()
    built = skeletal_construction(c, regular_action(corpus.Z2))
    assert bundle_isomorphism(built, direct) is not None


def test_skeletal_matches_direct_randomized():
    rng = random.Random(41)
    for name, group_name, cocycle in corpus.random_cocycle_instances(10, rng):
        action = regular_action(corpus.GROUPS[group_name])
        direct = total_space(cocycle, action)
        built = skeletal_construction(cocycle, action)
        assert bundle_isomorphism(built, direct) is not None, (name, group_name)


def test_pullback_along_identity():
    _, bundle = circle_double_cover()
    pulled = pullback(bundle, SimplicialMap.identity(bundle.base))
    assert bundle_isomorphism(pulled, bundle) is not None


def test_pullback_along_constant_map_is_product():
    _, bundle = circle_double_cover()
    point = corpus.POINT
    pulled = pullback(bundle, SimplicialMap(point, bundle.base, {"p": "a"}))
    model = product_bundle(point, bundle.fiber)
    assert bundle_isomorphism(pulled, model) is not None


def test_pullback_along_section_is_double_cover_of_subdivision():
    c, bundle = circle_double_cover()
    section = section_map(c.cover, c.nerve)
    pulled = pullback(bundle, section)
    assert homology(pulled.total).betti_numbers() == (1, 1)
    assert euler_characteristic(pulled.total) == \
        2 * euler_characteristic(section.source)


def test_pullback_euler_multiplicativity():
    _, bundle = circle_double_cover()
    arc = build_complex([["a", "b"], ["b", "c"]])
    inclusion = SimplicialMap(arc, bundle.base, {v: v for v in arc.vertices})
    pulled = pullback(bundle, inclusion)
    assert euler_characteristic(pulled.total) == \
        len(bundle.fiber) * euler_characteristic(arc)


def test_product_bundle_trivializes_everywhere():
    base = corpus.HOLLOW_TRIANGLE
    bundle = product_bundle(base, ("x", "y", "z"))
    report = local_trivialization_check(bundle, one_part_cover(base))
    assert all(report.values())


def test_double_cover_not_trivial_over_whole_base():
    _, bundle = circle_double_cover()
    report = local_trivialization_check(bundle, one_part_cover(bundle.base))
    assert not any(report.values())


def test_double_cover_trivial_over_arcs():
    _, bundle = circle_double_cover()
    arcs = closed_star_cover(bundle.base)
    report = local_trivialization_check(bundle, arcs)
    assert len(report) == 3 and all(report.values())


def test_patch_restrictions_reassemble_exactly():
    _, bundle = circle_double_cover()
    arcs = closed_star_cover(bundle.base)
    locals_ = {
        idx: restrict_bundle(bundle, arcs.parts[idx]) for idx in arcs.indices
    }
    glued = patch_bundles(arcs, locals_)
    assert glued.total == bundle.total
    assert glued.projection.vertex_map == bundle.projection.vertex_map
    for idx in arcs.indices:
        back = restrict_bundle(glued, arcs.parts[idx])
        assert back.total == locals_[idx].total


def test_patch_detects_overlap_disagreement():
    _, bundle = circle_double_cover()
    arcs = closed_star_cover(bundle.base)
    locals_ = {
        idx: restrict_bundle(bundle, arcs.parts[idx]) for idx in arcs.indices
    }
    # replace one local with a twisted relabeling that breaks the overlap
    key = arcs.indices[0]
    part = arcs.parts[key]
    twisted = product_bundle(part, (0, 1))
    locals_[key] = twisted
    with pytest.raises(ValidationError):
        patch_bundles(arcs, locals_)


def test_patch_products_over_edge_cover():
    edge = corpus.EDGE
    cover = closed_star_cover(edge)
    full = product_bundle(edge, ("x", "y"))
    locals_ = {
        idx: restrict_bundle(full, cover.parts[idx]) for idx in cover.indices
    }
    glued = patch_bundles(cover, locals_)
    assert bundle_isomorphism(glued, full) is not None


def test_cylinder_bundle_identity_over_point():
    bundle = product_bundle(corpus.POINT, ("x", "y"))
    cyl, end0, end1 = mapping_cylinder_bundle(
        bundle, bundle, SimplicialMap.identity(bundle.total)
    )
    assert len(cyl.total.vertices) == 4
    assert cyl.total.simplex_count(1) == 2


def test_cylinder_bundle_fiber_swap_over_point():
    bundle = product_bundle(corpus.POINT, (0, 1))
    swap = SimplicialMap(
        bundle.total, bundle.total,
        {("p", 0): ("p", 1), ("p", 1): ("p", 0)},
    )
    cyl, end0, end1 = mapping_cylinder_bundle(bundle, bundle, swap)
    assert len(cyl.total.vertices) == 4
    assert cyl.total.simplex_count(1) == 2
    # the two edges cross: (p,0) at end 0 connects to (p,1) at end 1
    assert cyl.total.has_simplex([(0, ("p", 0)), (1, ("p", 1))])


def test_cylinder_bundle_ends_and_homology():
    bundle = product_bundle(corpus.HOLLOW_TRIANGLE, (0, 1))
    cyl, end0, end1 = mapping_cylinder_bundle(
        bundle, bundle, SimplicialMap.identity(bundle.total)
    )
    result = homology(cyl.total)
    assert result.betti_numbers()[:2] == (2, 2)
    assert result.group(2).betti == 0
    # end restrictions are the embedded copies
    start = {frozenset((0, v) for v in s) for s in bundle.total.simplices}
    finish = {frozenset((1, v) for v in s) for s in bundle.total.simplices}
    assert start <= cyl.total.simplices
    assert finish <= cyl.total.simplices


def test_cylinder_bundle_of_deck_transformation():
    _, bundle = circle_double_cover()
    deck = {}
    for v in bundle.total.vertices:
        alpha, f = v
        deck[v] = (alpha, 1 - f)
    comparison = SimplicialMap(bundle.total, bundle.total, deck)
    cyl, _, _ = mapping_cylinder_bundle(bundle, bundle, comparison)
    a = homology(cyl.total)
    b = homology(bundle.total)
    assert a.betti_numbers()[: len(b.betti_numbers())] == b.betti_numbers()


def test_cylinder_rejects_non_fiberwise_map():
    bundle = product_bundle(corpus.EDGE, (0, 1))
    collapse = {
        ("a", 0): ("a", 0), ("a", 1): ("a", 0),
        ("b", 0): ("b", 0), ("b", 1): ("b", 0),
    }
    with pytest.raises(ValidationError):
        mapping_cylinder_bundle(
            bundle, bundle, SimplicialMap(bundle.total, bundle.total, collapse)
        )


def test_restriction_homotopy_axiom_on_cylinder_ends():
    """Restrictions of a bundle over the prism to its two ends have equal
    homology (the interval factor cannot change the fiberwise type)."""
    _, bundle = circle_double_cover()
    cyl, _, _ = mapping_cylinder_bundle(
        bundle, bundle, SimplicialMap.identity(bundle.total)
    )
    base = bundle.base
    end0 = build_complex(
        [[(0, v) for v in s] for s in base.maximal_simplices]
    )
    end1 = build_complex(
        [[(1, v) for v in s] for s in base.maximal_simplices]
    )
    r0 = restrict_bundle(cyl, end0)
    r1 = restrict_bundle(cyl, end1)
    a, b = homology(r0.total), homology(r1.total)
    assert a.betti_numbers() == b.betti_numbers()
    assert a.torsion() == b.torsion()


def test_local_equivalence_implies_global_homology_iso():
    """A fiber-preserving map that restricts to isomorphisms over every
    part of a cover induces a homology isomorphism of totals."""
    _, bundle = circle_double_cover()
    deck = SimplicialMap(
        bundle.total, bundle.total,
        {(a, f): (a, 1 - f) for a, f in bundle.total.vertices},
    )
    arcs = closed_star_cover(bundle.base)
    for idx in arcs.indices:
        restricted = restrict_bundle(bundle, arcs.parts[idx])
        image_simplices = {
            frozenset(deck(v) for v in s) for s in restricted.total.simplices
        }
        assert image_simplices == restricted.total.simplices
    assert map_induces_homology_isomorphism(deck, 1)


def torus_s3_pair():
    """The trivial S3 bundle over the torus and one with order-3 monodromy."""
    cover, nerve, _ = corpus.cached_star_cover("torus")
    group = corpus.S3
    twisted = next(
        images for images in corpus.cached_homs("torus", group)
        if {group.element_order(g) for g in images} == {1, 3}
    )
    action = regular_action(group)
    trivial = total_space(trivial_cocycle(cover, group), action)
    order3 = total_space(from_homomorphism(twisted, cover, group), action)
    return trivial, order3


def test_bundle_isomorphism_separates_torus_s3_monodromy_within_budget():
    """Propagation along lifted edges rules out every image of the first
    total vertex, so the pair is decided in a handful of guesses."""
    trivial, order3 = torus_s3_pair()
    assert bundle_isomorphism(trivial, order3, budget=10) is None
    assert bundle_isomorphism(order3, trivial, budget=10) is None


def test_bundle_isomorphism_separates_rp2_s4_monodromy_within_budget():
    """The trivial S4 bundle over RP2 against one with order-2 monodromy."""
    group = symmetric_group(4)
    cover, nerve, presentation = corpus.cached_star_cover("rp2")
    twisted = next(
        images for images in enumerate_homs(presentation, group)
        if {group.element_order(g) for g in images} == {1, 2}
    )
    action = regular_action(group)
    trivial = total_space(trivial_cocycle(cover, group), action)
    order2 = total_space(from_homomorphism(twisted, cover, group), action)
    assert bundle_isomorphism(trivial, order2, budget=100) is None


def test_bundle_isomorphism_budget_says_how_far_it_got():
    """Three guesses do not decide the torus x S3 pair."""
    trivial, order3 = torus_s3_pair()
    with pytest.raises(BudgetExceededError) as info:
        bundle_isomorphism(trivial, order3, budget=3)
    assert str(info.value) == (
        "isomorphism search exceeded budget 3 after 3 guesses, "
        "with 0 of 42 total vertices assigned"
    )
    assert info.value.budget == 3


def test_bundle_and_nerve_compare_by_their_fields():
    """Bundle and NerveComplex cache indexes, so they are plain classes,
    equal and hashed by their fields; neither equals a plain tuple."""
    from cechfib import Bundle, NerveComplex

    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    action = regular_action(corpus.Z2)
    a = total_space(trivial_cocycle(cover, corpus.Z2), action)
    fields = (a.total, a.base, a.projection, a.fiber, a.action)
    assert Bundle(*fields) == a and hash(Bundle(*fields)) == hash(a)
    assert Bundle(*fields[:4]) != a
    assert a != fields
    assert repr(a).startswith("Bundle(total=SimplicialComplex(")

    nerve = cover.nerve
    twin = NerveComplex(complex=nerve.complex, witnesses=dict(nerve.witnesses))
    assert twin == nerve and twin is not nerve
    assert nerve != (nerve.complex, nerve.witnesses)
    with pytest.raises(TypeError):
        hash(nerve)  # its witnesses are a dict
    assert repr(nerve).startswith("NerveComplex(complex=SimplicialComplex(")
