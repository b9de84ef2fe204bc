import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    HomologyWorkspace,
    ValidationError,
    bar_construction,
    bar_homology,
    bundle_isomorphism,
    chain_complex_of,
    classification_check,
    classifying_map,
    classifying_map_is_simplicial,
    coboundary_transform,
    homology_of_chain_complex,
    pullback_universal,
    regular_action,
    star_cover,
    total_space,
    trivial_cocycle,
    trivial_group,
    universal_bundle,
    validate_cocycle,
    validate_milnor_point,
    Cochain0,
)
from cechfib.classifying import classifying_chain_map

import corpus
from dense import dense, matrix_multiply


def circle_cocycle():
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    return validate_cocycle(
        cover, corpus.Z2,
        {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1},
    )


def periodic_resolution_homology(max_degree):
    """Independent oracle for the order-2 group: the 2-periodic complex
    with boundaries alternating multiplication by (g - 1) and (g + 1)
    in the regular representation."""
    from cechfib import chain_complex

    minus = [[-1, 1], [1, -1]]   # action of (g - 1)
    plus = [[1, 1], [1, 1]]      # action of (g + 1)
    # augment: degree 0 is the integers, degree k >= 1 the group ring
    # collapse via the augmentation to compute homology of the quotient
    # complex Z <- Z[G] <- Z[G] <- ...: after tensoring down, the maps
    # alternate 0 and multiplication by 2 on a rank-1 module.
    ranks = [1] * (max_degree + 2)
    boundaries = []
    for k in range(1, max_degree + 2):
        boundaries.append([[0]] if k % 2 == 1 else [[2]])
    cc = chain_complex(tuple(ranks), tuple(boundaries))
    return homology_of_chain_complex(cc, max_degree)


def test_bar_homology_of_order_two_matches_periodic_resolution():
    ours = bar_homology(corpus.Z2, 3)
    oracle = periodic_resolution_homology(3)
    assert ours.betti_numbers() == oracle.betti_numbers()
    assert ours.torsion() == oracle.torsion()
    assert ours.betti_numbers() == (1, 0, 0, 0)
    assert ours.torsion() == ((), (2,), (), (2,))


def abelianization_order(group):
    """Order of the abelianized group, via the commutator subgroup."""
    commutators = {
        group.mul(group.mul(a, b), group.mul(group.inv(a), group.inv(b)))
        for a in group.elements()
        for b in group.elements()
    }
    closure = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for c in commutators:
            nxt = group.mul(x, c)
            if nxt not in closure:
                closure.add(nxt)
                frontier.append(nxt)
    return group.order // len(closure)


def test_bar_h1_is_abelianization():
    for group in (corpus.S3, corpus.Z4, corpus.Z2xZ2):
        h1 = bar_homology(group, 1).group(1)
        order = 1
        for t in h1.torsion:
            order *= t
        assert h1.betti == 0
        assert order == abelianization_order(group)


def test_bar_of_trivial_group_is_point():
    result = bar_homology(trivial_group(), 3)
    assert result.betti_numbers() == (1, 0, 0, 0)
    assert all(t == () for t in result.torsion())


def test_bar_boundaries_compose_to_zero():
    bar = bar_construction(corpus.S3, 3)
    for k in range(1, 3):
        cc = bar.complex
        product = matrix_multiply(
            dense(cc.boundary(k), cc.rank(k)),
            dense(cc.boundary(k + 1), cc.rank(k + 1)),
        )
        assert all(not any(row) for row in product)


def test_milnor_single_support_point():
    validate_milnor_point([1], {(0, 0): 0}, corpus.Z2)


def test_milnor_inverse_forced_by_condition_four():
    with pytest.raises(ValidationError) as err:
        validate_milnor_point(
            [Fraction(1, 2), Fraction(1, 2)],
            {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 0},
            corpus.S3,
        )
    numbers = [n for n, _ in err.value.details["violations"]]
    assert 4 in numbers


def test_milnor_rejects_bad_sum():
    with pytest.raises(ValidationError) as err:
        validate_milnor_point(
            [1, 1], {(i, j): 0 for i in (0, 1) for j in (0, 1)}, corpus.Z2
        )
    assert err.value.details["violations"][0][0] == 1


def test_milnor_rejects_wrong_support_domain():
    with pytest.raises(ValidationError) as err:
        validate_milnor_point([Fraction(1, 2), Fraction(1, 2)],
                              {(0, 0): 0}, corpus.Z2)
    numbers = [n for n, _ in err.value.details["violations"]]
    assert 2 in numbers


def test_milnor_rejects_nonidentity_diagonal():
    with pytest.raises(ValidationError) as err:
        validate_milnor_point(
            [Fraction(1, 2), Fraction(1, 2)],
            {(0, 0): 1, (1, 1): 0, (0, 1): 1, (1, 0): 1},
            corpus.Z2,
        )
    numbers = [n for n, _ in err.value.details["violations"]]
    assert 3 in numbers


def test_milnor_out_of_range_values_are_violations_not_crashes():
    with pytest.raises(ValidationError) as err:
        validate_milnor_point(
            [Fraction(1, 2), Fraction(1, 2)],
            {(0, 0): 2, (1, 1): 0, (0, 1): 1, (1, 0): -1},
            corpus.Z2,
        )
    assert err.value.details["violations"] == [
        (2, "values out of range for the group"),
        (3, "diagonal value at (0, 0) is not the identity"),
    ]


def first_failing_triple(support, elements, group):
    """The composition check as three nested loops over the support."""
    for i in support:
        for j in support:
            for k in support:
                if (i, j) in elements and (j, k) in elements and (i, k) in elements:
                    if group.mul(elements[(i, j)], elements[(j, k)]) != elements[(i, k)]:
                        return (i, j, k)
    return None


@given(st.lists(st.sampled_from([0, Fraction(1, 4), Fraction(1, 2)]), min_size=1, max_size=4),
       st.data())
@settings(max_examples=200, deadline=None)
def test_milnor_names_the_first_failing_triple_of_the_nested_scan(coords, data):
    group = corpus.S3
    support = [i for i, t in enumerate(coords) if t != 0]
    values = {(i, j): data.draw(st.integers(-1, group.order))
              for i in support for j in support}
    try:
        validate_milnor_point(coords, values, group)
        violations = []
    except ValidationError as exc:
        violations = exc.details["violations"]
    in_range = {k: v for k, v in values.items() if 0 <= v < group.order}
    failing = first_failing_triple(support, in_range, group)
    assert [v for v in violations if v[0] == 4] == (
        [] if failing is None
        else [(4, f"composition fails on triple ({failing[0]}, {failing[1]}, {failing[2]})")])


def test_milnor_valid_two_point_support():
    validate_milnor_point(
        [Fraction(1, 3), Fraction(2, 3)],
        {(0, 0): 0, (1, 1): 0, (0, 1): 3, (1, 0): 4},
        corpus.S3,
    )


def test_classifying_map_of_trivial_cocycle_is_constant():
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    cmap = classifying_map(trivial_cocycle(cover, corpus.Z2))
    assert all(image == () for image in cmap.images.values())


def test_classifying_map_simpliciality_tracks_cocycle_law():
    c = circle_cocycle()
    cmap = classifying_map(c)
    assert classifying_map_is_simplicial(cmap)
    # break the data behind the validator's back and watch the check fail
    from cechfib.classifying import ClassifyingMap

    cover, nerve, _ = corpus.cached_star_cover("boundary_3simplex")
    broken_values = {
        pair: 0 for pair in
        (k for k in nerve.witnesses if len(k) == 2)
    }
    broken_values[(0, 2)] = 1
    from cechfib.cocycles import Cocycle1

    broken = Cocycle1(cover=cover, group=corpus.Z2, values=broken_values)
    images = {}
    for k in range(nerve.complex.dim + 1):
        for simplex in nerve.complex.simplices_of_dim(k):
            raw = tuple(
                broken.value(simplex[i], simplex[i + 1])
                for i in range(len(simplex) - 1)
            )
            images[simplex] = tuple(g for g in raw if g != 0)
    bad_map = ClassifyingMap(
        cocycle=broken, bar=bar_construction(corpus.Z2, 3), images=images
    )
    assert not classifying_map_is_simplicial(bad_map)


def test_classifying_map_hits_degree_one_generator():
    c = circle_cocycle()
    cmap = classifying_map(c)
    edges = dense(classifying_chain_map(cmap, 1)[1], 3)
    bar_ws = HomologyWorkspace(cmap.bar.complex, 1)
    # fundamental cycle of the nerve in the sorted edge basis
    fundamental = [1, -1, 1]
    image = [
        sum(edges[i][j] * fundamental[j] for j in range(3))
        for i in range(len(cmap.bar.chains[1]))
    ]
    generator = [0] * len(cmap.bar.chains[1])
    generator[cmap.bar.chain_index(1, (1,))] = 1
    assert bar_ws.class_label(1, image) == bar_ws.class_label(1, generator)
    assert bar_ws.class_label(1, image) != bar_ws.class_label(
        1, [0] * len(generator)
    )


def test_classifying_chain_map_commutes_with_boundaries():
    c = circle_cocycle()
    cmap = classifying_map(c)
    mats = classifying_chain_map(cmap, 1)
    nerve_cc = chain_complex_of(c.nerve.complex)
    bar_cc = cmap.bar.complex
    left = matrix_multiply(
        dense(mats[0], nerve_cc.rank(0)), dense(nerve_cc.boundary(1), nerve_cc.rank(1))
    )
    right = matrix_multiply(
        dense(bar_cc.boundary(1), bar_cc.rank(1)), dense(mats[1], nerve_cc.rank(1))
    )
    assert left == right


def test_universal_bundle_of_trivial_group_is_base():
    ub = universal_bundle(trivial_group(), 2)
    bar = bar_construction(trivial_group(), 2)
    assert len(ub.chains[0]) == 1
    assert [len(level) for level in ub.chains] == \
        [len(level) for level in bar.chains]


def test_universal_bundle_connected_at_low_truncation():
    ub = universal_bundle(corpus.Z2, 2)
    assert homology_of_chain_complex(ub.complex, 0).betti_numbers() == (1,)


def test_universal_fiber_count():
    for group in (corpus.Z2, corpus.S3):
        ub = universal_bundle(group, 1)
        assert len(ub.chains[0]) == group.order


def test_universal_edges_recover_transition_labels():
    ub = universal_bundle(corpus.S3, 2)
    for chain, f in ub.chains[1]:
        assert ub.edge_transition(chain) == chain[0]
        # the edge really runs from f to chain[0] * f
        assert ub.vertex_of(chain, f, 1) == f
        assert ub.vertex_of(chain, f, 0) == corpus.S3.mul(chain[0], f)


def test_universal_pullback_matches_total_space():
    c = circle_cocycle()
    pulled = pullback_universal(c)
    direct = total_space(c, regular_action(corpus.Z2))
    assert bundle_isomorphism(pulled, direct) is not None


def test_universal_pullback_matches_on_random_instances():
    rng = random.Random(53)
    for name, group_name, cocycle in corpus.random_cocycle_instances(8, rng):
        group = corpus.GROUPS[group_name]
        pulled = pullback_universal(cocycle)
        direct = total_space(cocycle, regular_action(group))
        assert bundle_isomorphism(pulled, direct) is not None


def test_tautological_pullback_reproduces_cocycle_up_to_coboundary():
    """Pulling the universal edge labels back along the classifying map
    gives back the cocycle values on tree-normalized representatives."""
    from cechfib import are_equivalent, from_homomorphism, holonomy

    cover, nerve, presentation = corpus.cached_star_cover("hollow_triangle")
    c = circle_cocycle()
    cmap = classifying_map(c)
    pulled_values = {}
    for pair, image in cmap.images.items():
        if len(pair) != 2:
            continue
        pulled_values[pair] = image[0] if image else 0
    rebuilt = validate_cocycle(
        cover, corpus.Z2, pulled_values
    )
    assert are_equivalent(rebuilt, c).equivalent


@pytest.mark.parametrize(
    "group_name, expected",
    [("z2", 2), ("s3", 3)],
)
def test_classification_on_circle(group_name, expected):
    cover, _, _ = corpus.cached_star_cover("hollow_triangle")
    report = classification_check(cover, corpus.GROUPS[group_name])
    assert report.verdict
    assert report.cocycle_classes == expected
    assert report.hom_classes == expected
    assert all(report.pullbacks_match)


def test_classification_simply_connected():
    cover = star_cover(corpus.FULL_TRIANGLE)
    for group in (corpus.Z2, corpus.S3, corpus.Z4):
        report = classification_check(cover, group)
        assert report.verdict and report.cocycle_classes == 1


def test_classifying_equivalent_cocycles_same_h1_action():
    c = circle_cocycle()
    lam = Cochain0(c.cover, c.group, {"a": 1, "b": 0, "c": 1})
    moved = coboundary_transform(c, lam)
    for cocycle in (c, moved):
        cmap = classifying_map(cocycle)
        edges = dense(classifying_chain_map(cmap, 1)[1], 3)
        ws = HomologyWorkspace(cmap.bar.complex, 1)
        fundamental = [1, -1, 1]
        image = [
            sum(edges[i][j] * fundamental[j] for j in range(3))
            for i in range(len(cmap.bar.chains[1]))
        ]
        label = ws.class_label(1, image)
        assert label == (1,)
