import enum
import itertools
import random

import pytest

from cechfib import (
    BudgetExceededError,
    Cochain0,
    Cover,
    ValidationError,
    are_equivalent,
    build_complex,
    cech_nerve,
    closed_star_cover,
    coboundary_transform,
    conjugacy_classes,
    count_equivalence_classes,
    disjoint_union_cover,
    from_homomorphism,
    holonomy,
    star_cover,
    trivial_cocycle,
    validate_cocycle,
)

from cechfib.cocycles import merge_equivalent, monodromy_representatives

import corpus


def circle_cover():
    return corpus.cached_star_cover("hollow_triangle")[0]


def circle_cocycle(group=None, value=1):
    group = group or corpus.Z2
    return validate_cocycle(
        circle_cover(), group,
        {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): value},
    )


def test_trivial_values_validate():
    trivial_cocycle(circle_cover(), corpus.Z2)


def test_circle_cocycle_valid_no_triple_constraints():
    c = circle_cocycle()
    assert c.value("a", "c") == 1
    assert c.value("c", "a") == 1  # inverse in Z2
    assert c.value("a", "a") == 0


def test_same_values_fail_over_disk():
    cover = star_cover(corpus.FULL_TRIANGLE)
    with pytest.raises(ValidationError) as err:
        validate_cocycle(
            cover, corpus.Z2,
            {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1},
        )
    assert err.value.details["triple"] == ("a", "b", "c")


def test_missing_pair_reported():
    with pytest.raises(ValidationError) as err:
        validate_cocycle(circle_cover(), corpus.Z2, {("a", "b"): 0})
    assert "missing value" in str(err.value)


@pytest.mark.parametrize("bad", [1.5, "1", None, True])
def test_values_must_be_integers(bad):
    with pytest.raises(ValidationError, match="is not an integer") as err:
        circle_cocycle(value=bad)
    assert err.value.details["pair"] == ("a", "c")


def test_integer_subclass_values_are_integers():
    class Element(enum.IntEnum):
        FLIP = 1

    assert circle_cocycle(value=Element.FLIP).value("a", "c") == 1


def test_non_good_cover_rejected():
    square = build_complex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    arcs = Cover(
        square,
        {
            "A": build_complex([["a", "b"], ["b", "c"]]),
            "B": build_complex([["c", "d"], ["a", "d"]]),
        },
    )
    with pytest.raises(ValidationError):
        validate_cocycle(arcs, corpus.Z2, {("A", "B"): 0})


def test_coboundary_identity_is_noop():
    c = circle_cocycle()
    lam = Cochain0(c.cover, c.group, {i: 0 for i in c.cover.indices})
    assert coboundary_transform(c, lam).values == c.values


def test_coboundary_constant_on_abelian_is_noop():
    c = circle_cocycle(corpus.Z4, value=3)
    lam = Cochain0(c.cover, c.group, {i: 2 for i in c.cover.indices})
    assert coboundary_transform(c, lam).values == c.values


def test_coboundary_moves_the_twist():
    c = circle_cocycle()
    lam = Cochain0(c.cover, c.group, {"a": 1, "b": 0, "c": 0})
    moved = coboundary_transform(c, lam)
    assert moved.values[("a", "b")] == 1
    assert moved.values[("b", "c")] == 0
    assert moved.values[("a", "c")] == 0


def test_coboundary_preserves_validity_randomized():
    rng = random.Random(3)
    for name, group_name, cocycle in corpus.random_cocycle_instances(24, rng):
        group = corpus.GROUPS[group_name]
        lam = Cochain0(
            cocycle.cover, group,
            {i: rng.randrange(group.order) for i in cocycle.cover.indices},
        )
        coboundary_transform(cocycle, lam)  # validates internally


def test_holonomy_trivial_cocycle():
    assert holonomy(trivial_cocycle(circle_cover(), corpus.Z2)) == (0,)


def test_holonomy_of_twisted_circle_is_nontrivial():
    assert holonomy(circle_cocycle()) == (1,)


def test_holonomy_over_simply_connected_nerve():
    # the disk nerve has a generator but every image is forced trivial
    c = trivial_cocycle(star_cover(corpus.FULL_TRIANGLE), corpus.S3)
    assert set(holonomy(c)) <= {0}


def test_holonomy_conjugates_under_coboundary():
    rng = random.Random(5)
    for name, group_name, cocycle in corpus.random_cocycle_instances(12, rng):
        group = corpus.GROUPS[group_name]
        lam = Cochain0(
            cocycle.cover, group,
            {i: rng.randrange(group.order) for i in cocycle.cover.indices},
        )
        moved = coboundary_transform(cocycle, lam)
        base_images = holonomy(cocycle)
        moved_images = holonomy(moved)
        conjugators = [
            g for g in group.elements()
            if all(
                group.conjugate(g, a) == b
                for a, b in zip(base_images, moved_images)
            )
        ]
        assert conjugators, (name, group_name)


def test_from_homomorphism_round_trip():
    cover, nerve, presentation = corpus.cached_star_cover("hollow_triangle")
    for group in (corpus.Z2, corpus.S3):
        for images in corpus.cached_homs("hollow_triangle", group):
            c = from_homomorphism(images, cover, group)
            assert holonomy(c) == images


def test_from_homomorphism_rejects_bad_images():
    cover, nerve, presentation = corpus.cached_star_cover("rp2")
    # the rp2 star nerve has two-torsion monodromy; an order-4 image of a
    # generator cannot satisfy the relations
    with pytest.raises(ValidationError):
        bad = tuple(
            1 if i == 0 else 0 for i in range(presentation.generator_count)
        )
        from_homomorphism(bad, cover, corpus.Z4)


def test_from_homomorphism_trivial_group():
    cover, nerve, presentation = corpus.cached_star_cover("hollow_triangle")
    c = from_homomorphism((0,), cover, corpus.Z1)
    assert set(c.values.values()) == {0}


def test_from_homomorphism_twists_exactly_one_edge():
    cover, nerve, presentation = corpus.cached_star_cover("hollow_triangle")
    c = from_homomorphism((1,), cover, corpus.Z2)
    assert sorted(c.values.values()) == [0, 0, 1]


def test_equivalent_to_own_coboundary():
    c = circle_cocycle()
    lam = Cochain0(c.cover, c.group, {"a": 1, "b": 0, "c": 1})
    result = are_equivalent(c, coboundary_transform(c, lam))
    assert result.equivalent
    assert result.bridge is not None


def test_reflexive_equivalence_with_identity_bridge():
    c = circle_cocycle()
    result = are_equivalent(c, c)
    assert result.equivalent
    diagonal = {pair for pair in result.bridge if pair[0] == pair[1]}
    assert all(result.bridge[p] == 0 for p in diagonal if p == ("a", "a"))


def test_twisted_and_trivial_are_inequivalent():
    assert not are_equivalent(
        circle_cocycle(), trivial_cocycle(circle_cover(), corpus.Z2)
    ).equivalent


def test_equivalence_is_symmetric_on_instances():
    rng = random.Random(9)
    instances = corpus.random_cocycle_instances(8, rng)
    for (n1, g1, c1), (n2, g2, c2) in zip(instances, instances[1:]):
        if n1 != n2 or g1 != g2:
            continue
        forward = are_equivalent(c1, c2).equivalent
        backward = are_equivalent(c2, c1).equivalent
        assert forward == backward


def joined_values(c1, c2, bridge) -> dict:
    """Values over the cover joined with itself: c1 on the first copy, c2
    on the second, and the bridge on every mixed pair."""
    values = {(("0", a), ("0", b)): v for (a, b), v in c1.values.items()}
    values.update({(("1", a), ("1", b)): v for (a, b), v in c2.values.items()})
    values.update({(("0", a), ("1", b)): v for (a, b), v in bridge.items()})
    return values


def test_equivalence_agrees_with_holonomy_conjugacy():
    """Independent oracle: two cocycles over one cover are equivalent iff
    their monodromies are simultaneously conjugate.  Every bridge found
    must, with both cocycles, pass validation over the joined cover."""
    rng = random.Random(13)
    group = corpus.S3
    for name in ("hollow_triangle", "rp2", "torus"):
        cover = corpus.cached_star_cover(name)[0]
        joined = disjoint_union_cover(cover, cover)
        joined_nerve = cech_nerve(joined)
        for _ in range(10):
            c1 = corpus.random_cocycle(name, group, rng)
            c2 = corpus.random_cocycle(name, group, rng)
            twisted = coboundary_transform(c1, Cochain0(
                cover, group,
                {i: rng.randrange(group.order) for i in cover.indices},
            ))
            for other in (c2, twisted):
                h1, h2 = holonomy(c1), holonomy(other)
                conjugate = any(
                    all(group.conjugate(g, a) == b for a, b in zip(h1, h2))
                    for g in group.elements()
                )
                result = are_equivalent(c1, other)
                assert result.equivalent == conjugate, name
                if result.equivalent:
                    validate_cocycle(
                        joined, group,
                        joined_values(c1, other, result.bridge),
                    )


@pytest.mark.parametrize("name", ["hollow_triangle", "boundary_3simplex"])
def test_bridge_is_least_over_all_gauges(name):
    """Brute force over all |G|^n gauges: the verdict is whether any gauge
    takes c1 to c2, and the bridge, read in sorted pair order, is the
    least sequence c1(a, b) * mu_b over the gauges mu that do."""
    rng = random.Random(21)
    group = corpus.S3
    cover = corpus.cached_star_cover(name)[0]
    indices = cover.indices
    edges = sorted(corpus.random_cocycle(name, group, rng).values)
    pairs = sorted(
        [(a, a) for a in indices] + edges + [(b, a) for a, b in edges]
    )
    for _ in range(6):
        c1 = corpus.random_cocycle(name, group, rng)
        c2 = corpus.random_cocycle(name, group, rng)
        sequences = []
        for gauge in itertools.product(group.elements(), repeat=len(indices)):
            mu = dict(zip(indices, gauge))
            if all(
                c2.value(a, b)
                == group.mul(group.mul(group.inv(mu[a]), c1.value(a, b)), mu[b])
                for a, b in edges
            ):
                sequences.append(
                    [group.mul(c1.value(a, b), mu[b]) for a, b in pairs]
                )
        result = are_equivalent(c1, c2)
        assert result.equivalent == bool(sequences)
        if sequences:
            assert sorted(result.bridge) == pairs
            assert [result.bridge[p] for p in pairs] == min(sequences)


def test_cocycles_over_different_covers_are_rejected():
    circle = circle_cocycle()
    arcs = closed_star_cover(circle.cover.base)
    assert arcs.base == circle.cover.base and arcs != circle.cover
    with pytest.raises(ValidationError, match="different covers"):
        are_equivalent(circle, trivial_cocycle(arcs, corpus.Z2))


def test_equivalence_budget_is_enforced():
    # inequivalent pair: the search must exhaust all seeds, beyond budget 2
    c = circle_cocycle(corpus.S3, value=3)
    with pytest.raises(
        BudgetExceededError,
        match=r"^equivalence search exceeded budget 2 after 2 guesses, "
              r"with 0 of 1 nerve components settled$",
    ):
        are_equivalent(c, trivial_cocycle(c.cover, corpus.S3), budget=2)


def test_equivalence_budget_error_counts_settled_components():
    """Over two circles the first pair of loops is equivalent and settles
    on the first guess; the second is not and spends the rest."""
    two_circles = star_cover(build_complex(
        [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]]
    ))
    trivial = trivial_cocycle(two_circles, corpus.S3)
    values = {pair: 0 for pair in trivial.nerve.keys(2)}
    values[("d", "f")] = 3
    twisted = validate_cocycle(two_circles, corpus.S3, values)
    with pytest.raises(BudgetExceededError) as err:
        are_equivalent(trivial, twisted, budget=4)
    assert err.value.budget == 4
    assert str(err.value) == (
        "equivalence search exceeded budget 4 after 4 guesses, "
        "with 1 of 2 nerve components settled"
    )
    assert not are_equivalent(trivial, twisted, budget=7).equivalent


@pytest.mark.parametrize(
    "group_name, expected",
    [("z2", 2), ("s3", 3), ("z4", 4), ("z3", 3)],
)
def test_circle_class_counts(group_name, expected):
    group = corpus.GROUPS[group_name]
    assert count_equivalence_classes(circle_cover(), group) == expected


def test_circle_s3_count_matches_conjugacy_classes():
    assert count_equivalence_classes(circle_cover(), corpus.S3) == len(
        conjugacy_classes(corpus.S3)
    )


def test_simply_connected_single_class():
    cover = star_cover(corpus.FULL_TRIANGLE)
    for group in (corpus.Z2, corpus.S3, corpus.Z2xZ2):
        assert count_equivalence_classes(cover, group) == 1


def test_class_count_matches_hom_classes_on_surfaces():
    from cechfib import hom_conjugacy_classes

    for name in ("rp2", "torus"):
        cover, nerve, presentation = corpus.cached_star_cover(name)
        for group in (corpus.Z2, corpus.Z3):
            homs = corpus.cached_homs(name, group)
            expected = len(hom_conjugacy_classes(homs, group))
            assert count_equivalence_classes(cover, group) == expected, (
                name, group.order)


@pytest.mark.parametrize("name", ["rp2", "torus"])
@pytest.mark.parametrize("group_name", ["z2", "s3"])
def test_merge_equivalent_puts_each_twist_with_its_representative(name, group_name):
    group = corpus.GROUPS[group_name]
    cover = corpus.cached_star_cover(name)[0]
    _, representatives = monodromy_representatives(cover, group)
    rng = random.Random(len(representatives) * 10 + group.order)
    cocycles, home = [], []
    for k, rep in enumerate(representatives):
        cocycles.append(rep)
        home.append(k)
        for _ in range(2):
            lam = Cochain0(cover, group, {i: rng.randrange(group.order) for i in cover.indices})
            cocycles.append(coboundary_transform(rep, lam))
            home.append(k)
    # interleave, so that a bucket may open with a twist rather than its representative
    order = list(range(len(cocycles)))
    rng.shuffle(order)
    cocycles = [cocycles[i] for i in order]
    home = [home[i] for i in order]

    merged = merge_equivalent(cocycles)
    first_fit = []
    for i, cocycle in enumerate(cocycles):
        bucket = next(
            (b for b in first_fit if are_equivalent(cocycles[b[0]], cocycle).equivalent),
            None,
        )
        if bucket is None:
            first_fit.append([i])
        else:
            bucket.append(i)
    assert merged == first_fit
    # one bucket per representative, holding it and exactly its two twists
    assert sorted(sorted(home[i] for i in b) for b in merged) == [
        [k] * 3 for k in range(len(representatives))
    ]


def _circle_cocycle():
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    return validate_cocycle(cover, corpus.Z2, {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1})


COCYCLE_REFUSALS = {
    "transform-by-a-cochain-of-another-cover": (
        lambda: coboundary_transform(_circle_cocycle(), Cochain0(
            star_cover(corpus.FULL_TRIANGLE), corpus.Z2, {"a": 0, "b": 0, "c": 0})),
        "cochain is over a different cover or group"),
    "transform-by-a-cochain-that-misses-an-index": (
        lambda: coboundary_transform(_circle_cocycle(), Cochain0(
            _circle_cocycle().cover, corpus.Z2, {"a": 0, "b": 0})),
        "cochain misses index 'c'"),
    "homomorphism-with-too-many-images": (
        lambda: from_homomorphism((1, 0), star_cover(corpus.HOLLOW_TRIANGLE), corpus.Z2),
        "expected 1 generator images, got 2"),
    "equivalence-across-groups": (
        lambda: are_equivalent(_circle_cocycle(), trivial_cocycle(
            _circle_cocycle().cover, corpus.Z3)),
        "cocycles take values in different groups"),
}


@pytest.mark.parametrize("case", sorted(COCYCLE_REFUSALS))
def test_cocycle_refusal_names_the_fault(case):
    call, message = COCYCLE_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message
