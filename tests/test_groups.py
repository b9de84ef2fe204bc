import itertools
import math
import random
import re
from typing import List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechfib import (
    BudgetExceededError,
    FiniteGroup,
    GroupAction,
    Pi1Presentation,
    ValidationError,
    abelian_coefficients,
    abelian_decomposition,
    adjoint_crossed_module,
    barycentric_subdivision,
    cech_nerve,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    enumerate_homs,
    hom_conjugacy_classes,
    pi1_presentation,
    regular_action,
    star_cover,
    symmetric_group,
    trivial_group,
    validate_crossed_module,
    validate_group,
)

import corpus


def test_validate_order_two_table():
    g = validate_group([[0, 1], [1, 0]])
    assert g.order == 2 and g.is_abelian


def test_symmetric_group_is_valid_and_nonabelian():
    s3 = symmetric_group(3)
    validate_group([list(r) for r in s3.table])
    assert not s3.is_abelian
    assert s3.order == 6


def test_non_associative_table_names_triple():
    # break associativity while keeping 0 an identity
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValidationError) as err:
        validate_group(table)
    assert "associativity" in str(err.value) or "inverse" in str(err.value)


def test_missing_identity_rejected():
    with pytest.raises(ValidationError):
        validate_group([[1, 0], [0, 1]])


@pytest.mark.parametrize("name", sorted(corpus.GROUPS))
def test_class_sizes_sum_to_order(name):
    g = corpus.GROUPS[name]
    classes = conjugacy_classes(g)
    assert sum(len(c) for c in classes) == g.order
    if g.is_abelian:
        assert all(len(c) == 1 for c in classes)


def test_s3_class_sizes():
    sizes = sorted(len(c) for c in conjugacy_classes(corpus.S3))
    assert sizes == [1, 2, 3]


def test_trivial_group_single_class():
    assert conjugacy_classes(trivial_group()) == ((0,),)


def revalidated(module):
    """The module rebuilt from its fields by the checked constructor."""
    checked = validate_crossed_module(
        module.base, module.fiber, module.boundary, module.action)
    assert (checked.boundary, checked.action) == (module.boundary, module.action)
    return checked


def test_adjoint_crossed_module_valid_for_corpus_groups():
    # the maker is trusted, so its output passes the validator here
    for g in [*corpus.GROUPS.values(), symmetric_group(4), symmetric_group(5)]:
        module = revalidated(adjoint_crossed_module(g))
        assert module.base is g and module.fiber is g
        assert module.boundary == tuple(g.elements())
        assert module.action == tuple(
            tuple(g.conjugate(x, h) for h in g.elements()) for x in g.elements())


def test_abelian_coefficient_module_valid():
    for g in (corpus.Z1, corpus.Z2, corpus.Z4, corpus.Z2xZ2):
        module = revalidated(abelian_coefficients(g))
        assert module.base.order == 1 and module.fiber is g
        assert module.boundary == (0,) * g.order
        assert module.action == (tuple(g.elements()),)


def test_trivial_action_on_nonabelian_fails_peiffer():
    s3 = corpus.S3
    with pytest.raises(ValidationError) as err:
        validate_crossed_module(
            trivial_group(), s3, [0] * 6, [list(range(6))]
        )
    assert err.value.details["axiom"] == "peiffer"


def test_broken_equivariance_is_reported():
    z4 = corpus.Z4
    # boundary x -> x mod 2 into Z2 with a non-equivariant action
    z2 = corpus.Z2
    bad_action = [[0, 1, 2, 3], [0, 3, 2, 1]]
    with pytest.raises(ValidationError) as err:
        validate_crossed_module(z2, z4, [0, 1, 0, 1], bad_action)
    assert err.value.details["axiom"] in ("equivariance", "peiffer")


def test_central_extension_style_module():
    """Boundary Z4 -> Z2 (mod 2) with trivial action is a crossed module."""
    validate_crossed_module(
        corpus.Z2, corpus.Z4, [0, 1, 0, 1],
        [[0, 1, 2, 3], [0, 1, 2, 3]],
    )


def test_enumerate_homs_free_group():
    p = pi1_presentation(corpus.HOLLOW_TRIANGLE, "a")
    for g in (corpus.Z2, corpus.S3, corpus.Z4):
        assert len(enumerate_homs(p, g)) == g.order


def test_enumerate_homs_commuting_pairs_in_s3():
    """Two commuting generators: count equals sum of centralizer orders."""
    from cechfib import Pi1Presentation

    free_aspect = Pi1Presentation(
        basepoint="x",
        generator_edges=(("x", "y"), ("x", "z")),
        tree_edges=(),
        relations=((1, 2, -1, -2),),
    )
    homs = enumerate_homs(free_aspect, corpus.S3)
    assert len(homs) == 18
    # same count through an actual surface presentation
    torus_p = pi1_presentation(corpus.TORUS_SEVEN, 0)
    assert len(enumerate_homs(torus_p, corpus.S3)) == 18


def test_enumerate_homs_free_rank_two():
    """Wedge of two circles: |Hom| = |G|^2 with no relations."""
    from cechfib import build_complex

    wedge = build_complex(
        [["a", "b"], ["b", "c"], ["a", "c"], ["a", "d"], ["d", "e"], ["a", "e"]]
    )
    p = pi1_presentation(wedge, "a")
    assert p.generator_count == 2
    for g in (corpus.Z2, corpus.S3):
        assert len(enumerate_homs(p, g)) == g.order ** 2


def test_enumerate_homs_no_generators():
    p = pi1_presentation(corpus.POINT, "p")
    assert enumerate_homs(p, corpus.S3) == [()]


def test_hom_classes_abelian_target():
    p = pi1_presentation(corpus.HOLLOW_TRIANGLE, "a")
    homs = enumerate_homs(p, corpus.Z2)
    assert len(hom_conjugacy_classes(homs, corpus.Z2)) == 2


def test_hom_classes_s3_free_generator():
    p = pi1_presentation(corpus.HOLLOW_TRIANGLE, "a")
    homs = enumerate_homs(p, corpus.S3)
    assert len(homs) == 6
    assert len(hom_conjugacy_classes(homs, corpus.S3)) == 3


def test_hom_classes_trivial():
    assert len(hom_conjugacy_classes([()], corpus.S3)) == 1


def test_regular_action_orbit_structure():
    act = regular_action(corpus.S3)
    assert act.orbits() == (tuple(range(6)),)
    # orbit-stabilizer sanity on the transitive regular action
    assert len(act.orbits()[0]) * 1 == corpus.S3.order


def test_action_validation_catches_bad_identity():
    with pytest.raises(ValidationError):
        GroupAction(corpus.Z2, ("x", "y"), [[1, 0], [0, 1]])


def test_action_orbits_partition_fiber():
    z2 = corpus.Z2
    act = GroupAction(z2, ("x", "y", "z"), [[0, 1, 2], [1, 0, 2]])
    orbits = act.orbits()
    assert sorted(sum(orbits, ())) == ["x", "y", "z"]
    assert orbits == (("x", "y"), ("z",))


@given(st.integers(1, 12))
@settings(max_examples=20, deadline=None)
def test_cyclic_group_axioms(n):
    g = cyclic_group(n)
    validate_group([list(r) for r in g.table])


def test_abelian_decomposition_recovers_orders():
    for g in (corpus.Z2, corpus.Z4, corpus.Z2xZ2,
              direct_product(corpus.Z2, cyclic_group(3))):
        factors, coords = abelian_decomposition(g)
        assert math.prod(factors) == g.order
        assert len(set(coords)) == g.order
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        # coordinates form a homomorphism
        rng = random.Random(11)
        for _ in range(20):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            combined = tuple(
                (x + y) % d
                for x, y, d in zip(coords[a], coords[b], factors)
            )
            assert combined == coords[g.mul(a, b)]


def test_abelian_decomposition_rejects_nonabelian():
    with pytest.raises(ValidationError):
        abelian_decomposition(corpus.S3)


# The generator-by-generator backtracking that preceded relation
# propagation, kept verbatim as the reference for the order and content of
# the lists `enumerate_homs` returns.
def reference_enumerate_homs(
    presentation,
    group: FiniteGroup,
    budget: Optional[int] = None,
) -> List[tuple]:
    """All homomorphisms from a presented group, as generator images.

    Backtracks over generator assignments, checking each relation as soon
    as all its generators are fixed; the budget caps the number of partial
    assignments actually visited, not the worst case.
    """
    k = presentation.generator_count
    by_last = [[] for _ in range(k + 1)]
    for word in presentation.relations:
        top = max((abs(s) for s in word), default=0)
        by_last[top].append(word)

    def evaluates_trivially(word, images):
        out = 0
        for s in word:
            g = images[abs(s) - 1]
            out = group.mul(out, g if s > 0 else group.inv(g))
        return out == 0

    homs: List[tuple] = []
    visited = 0

    def assign(i, images):
        nonlocal visited
        visited += 1
        if budget is not None and visited > budget:
            raise BudgetExceededError(
                f"hom enumeration exceeded budget {budget}", budget
            )
        if not all(evaluates_trivially(w, images) for w in by_last[i]):
            return
        if i == k:
            homs.append(tuple(images))
            return
        for g in group.elements():
            images.append(g)
            assign(i + 1, images)
            images.pop()

    assign(0, [])
    return homs


Z2xZ4 = direct_product(corpus.Z2, corpus.Z4)
Z3xZ3 = direct_product(corpus.Z3, corpus.Z3)
Z2xS3 = direct_product(corpus.Z2, corpus.S3)
S4 = symmetric_group(4)


@pytest.mark.parametrize("surface", sorted(corpus.SURFACES))
@pytest.mark.parametrize("group_name", sorted(corpus.GROUPS))
def test_homs_match_reference_on_star_cover_presentations(surface, group_name):
    _, _, presentation = corpus.cached_star_cover(surface)
    group = corpus.GROUPS[group_name]
    assert enumerate_homs(presentation, group) == \
        reference_enumerate_homs(presentation, group)


@pytest.mark.parametrize("surface, group", [
    ("torus", corpus.Z2), ("torus", corpus.S3), ("torus", corpus.Z2xZ2),
    ("torus", corpus.Z4), ("torus", Z2xZ4), ("torus", Z3xZ3),
    ("torus", Z2xS3), ("rp2", S4),
], ids=["torus-z2", "torus-s3", "torus-z2xz2", "torus-z4", "torus-z2xz4",
        "torus-z3xz3", "torus-z2xs3", "rp2-s4"])
def test_homs_match_reference_on_surface_presentations(surface, group):
    x = corpus.SURFACES[surface]
    presentation = pi1_presentation(x, x.vertices[0])
    assert enumerate_homs(presentation, group) == \
        reference_enumerate_homs(presentation, group)


def evaluates_trivially(word, images, group):
    out = 0
    for s in word:
        g = images[abs(s) - 1]
        out = group.mul(out, g if s > 0 else group.inv(g))
    return out == 0


@st.composite
def presentations(draw):
    """Up to four generators; relations of length 0-5 with repeated
    generators and inverses."""
    k = draw(st.integers(0, 4))
    letters = st.sampled_from(
        [s for i in range(1, k + 1) for s in (i, -i)] or [0]
    )
    words = st.lists(letters, min_size=0, max_size=5 if k else 0)
    relations = draw(st.lists(words.map(tuple), max_size=5))
    return Pi1Presentation(
        basepoint=None,
        generator_edges=tuple((0, i) for i in range(1, k + 1)),
        tree_edges=(),
        relations=tuple(relations),
    )


@given(presentations(),
       st.sampled_from(["z2", "z3", "s3", "z2xz2"]))
@settings(max_examples=200, deadline=None)
# the unknown between two known, non-commuting images: x = (v u)^-1
@example(Pi1Presentation(basepoint=None,
                         generator_edges=((0, 1), (0, 2), (0, 3)),
                         tree_edges=(), relations=((1, 3, 2),)), "s3")
@example(Pi1Presentation(basepoint=None,
                         generator_edges=((0, 1), (0, 2), (0, 3)),
                         tree_edges=(), relations=((1, -3, 2),)), "s3")
def test_homs_match_brute_force_on_random_presentations(presentation, name):
    group = corpus.GROUPS[name]
    brute = [
        images
        for images in itertools.product(
            group.elements(), repeat=presentation.generator_count
        )
        if all(evaluates_trivially(w, images, group)
               for w in presentation.relations)
    ]
    assert enumerate_homs(presentation, group) == brute
    assert reference_enumerate_homs(presentation, group) == brute


def commuting_pairs(group):
    return sum(
        1 for a in group.elements() for b in group.elements()
        if group.mul(a, b) == group.mul(b, a)
    )


def test_torus_homs_into_s4():
    """Hom(Z^2, S4) is the set of commuting pairs: 120 of them."""
    presentation = pi1_presentation(corpus.TORUS_SEVEN, 0)
    homs = enumerate_homs(presentation, S4)
    assert len(homs) == commuting_pairs(S4) == 120
    assert homs == sorted(homs)


def test_subdivided_torus_nerve_homs_into_s3():
    """The star-cover nerve of the once-subdivided torus has 85
    generators; its homomorphisms into S3 are the 18 commuting pairs."""
    subdivision, _ = barycentric_subdivision(corpus.TORUS_SEVEN)
    presentation = cech_nerve(star_cover(subdivision)).presentation
    assert presentation.generator_count == 85
    homs = enumerate_homs(presentation, corpus.S3)
    assert len(homs) == commuting_pairs(corpus.S3) == 18
    assert len(hom_conjugacy_classes(homs, corpus.S3)) == 8


def test_hom_budget_counts_branch_guesses():
    """A free generator costs one unit per group element tried; forced
    generators cost nothing."""
    circle = pi1_presentation(corpus.HOLLOW_TRIANGLE, "a")
    assert len(enumerate_homs(circle, corpus.S3, budget=6)) == 6
    with pytest.raises(BudgetExceededError):
        enumerate_homs(circle, corpus.S3, budget=5)
    # a relation of one generator fixes it before any guess
    fixed = Pi1Presentation(basepoint=None, generator_edges=((0, 1),),
                            tree_edges=(), relations=((1,),))
    assert enumerate_homs(fixed, corpus.S3, budget=0) == [(0,)]
    # the budget is keyword-only, as in the other searches
    with pytest.raises(TypeError):
        enumerate_homs(circle, corpus.S3, 6)


def test_hom_budget_error_says_how_far_the_search_got():
    presentation = corpus.cached_star_cover("torus")[2]
    with pytest.raises(BudgetExceededError) as err:
        enumerate_homs(presentation, corpus.S3, budget=8)
    assert err.value.budget == 8
    assert re.fullmatch(
        r"hom enumeration exceeded budget 8 after 8 branch guesses, "
        r"reaching generator \d+ of 15 \(\d+ homomorphisms found\)",
        str(err.value),
    )
