import itertools
import random

import pytest

from cechfib import (
    BudgetExceededError,
    GerbeCocycle,
    ValidationError,
    abelian_class,
    abelian_class_count,
    abelian_coefficients,
    adjoint_crossed_module,
    cech_nerve,
    check_coherence_faces,
    gerbe_coboundary,
    gerbes_equivalent,
    star_cover,
    trivial_cocycle,
    validate_cocycle,
    validate_crossed_module,
    validate_gerbe_cocycle,
)
from cechfib.gerbes import gerbe_from_cocycle

import corpus


def sphere_setup():
    cover, nerve, _ = corpus.cached_star_cover("boundary_3simplex")
    pairs = sorted(k for k in nerve.witnesses if len(k) == 2)
    triples = sorted(k for k in nerve.witnesses if len(k) == 3)
    return cover, nerve, pairs, triples


def tetra_setup():
    cover = star_cover(corpus.FULL_3SIMPLEX)
    nerve = cech_nerve(cover)
    pairs = sorted(k for k in nerve.witnesses if len(k) == 2)
    triples = sorted(k for k in nerve.witnesses if len(k) == 3)
    quads = sorted(k for k in nerve.witnesses if len(k) == 4)
    return cover, nerve, pairs, triples, quads


def test_identity_data_is_valid():
    cover, nerve, pairs, triples = sphere_setup()
    validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in pairs}, {t: 0 for t in triples},
    )


@pytest.mark.parametrize("bad", [1.5, "1", None, True])
def test_edge_values_and_witnesses_must_be_integers(bad):
    cover, nerve, pairs, triples = sphere_setup()
    module = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    witnesses = {t: 0 for t in triples}
    with pytest.raises(ValidationError, match="is not an integer") as err:
        validate_gerbe_cocycle(cover, module, {**edges, pairs[-1]: bad}, witnesses)
    assert err.value.details["pair"] == pairs[-1]
    with pytest.raises(ValidationError, match="is not an integer") as err:
        validate_gerbe_cocycle(cover, module, edges, {**witnesses, triples[-1]: bad})
    assert err.value.details["triple"] == triples[-1]


def test_single_witness_valid_when_no_quadruples():
    cover, nerve, pairs, triples = sphere_setup()
    assert not any(len(k) == 4 for k in nerve.witnesses)
    validate_gerbe_cocycle(
        cover, abelian_coefficients(corpus.Z2),
        {p: 0 for p in pairs},
        {t: (1 if t == triples[0] else 0) for t in triples},
    )


def test_triangle_violation_reported_with_tuple():
    cover, nerve, pairs, triples = sphere_setup()
    adj = adjoint_crossed_module(corpus.Z2)
    edges = {p: 0 for p in pairs}
    edges[(0, 2)] = 1
    with pytest.raises(ValidationError) as err:
        validate_gerbe_cocycle(
            cover, adj, edges, {t: 0 for t in triples}
        )
    assert err.value.details == {"law": "triangle", "tuple": (0, 1, 2)}


def test_tetrahedron_violation_over_full_3simplex():
    cover, nerve, pairs, triples, quads = tetra_setup()
    assert len(quads) == 1
    coeff = abelian_coefficients(corpus.Z2)
    with pytest.raises(ValidationError) as err:
        validate_gerbe_cocycle(
            cover, coeff, {p: 0 for p in pairs},
            {t: (1 if t == triples[0] else 0) for t in triples},
        )
    assert err.value.details["law"] == "tetrahedron"


def test_strict_cocycle_embeds_with_identity_witnesses():
    """With identity witnesses the triangle law is the plain cocycle law."""
    c = validate_cocycle(
        corpus.cached_star_cover("hollow_triangle")[0], corpus.Z2,
        {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1},
    )
    data = gerbe_from_cocycle(c)
    assert all(v == 0 for v in data.witnesses.values())
    assert data.edge_values == c.values


def test_gerbe_identity_coboundary_is_noop():
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    data = validate_gerbe_cocycle(
        cover, coeff, {p: 0 for p in pairs},
        {t: (1 if t == triples[0] else 0) for t in triples},
    )
    moved = gerbe_coboundary(
        data, {i: 0 for i in cover.indices}, {p: 0 for p in pairs}
    )
    assert moved.witnesses == data.witnesses
    assert moved.edge_values == data.edge_values


def test_abelian_coboundary_shifts_by_cech_coboundary():
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    data = validate_gerbe_cocycle(
        cover, coeff, {p: 0 for p in pairs}, {t: 0 for t in triples},
    )
    shift = {p: (1 if p == (0, 1) else 0) for p in pairs}
    moved = gerbe_coboundary(data, {i: 0 for i in cover.indices}, shift)
    z2 = corpus.Z2
    for (a, b, c), value in moved.witnesses.items():
        def shift_val(x, y):
            return shift[(x, y)]
        expected = (shift_val(a, b) + shift_val(b, c) - shift_val(a, c)) % 2
        assert value == expected


def test_central_gauge_fixes_adjoint_data():
    cover, nerve, pairs, triples = sphere_setup()
    z2 = corpus.Z2
    adj = adjoint_crossed_module(z2)
    edges = {p: (1 if p == (0, 1) or p == (1, 2) else 0) for p in pairs}
    edges[(0, 2)] = 0
    witnesses = {}
    for a, b, c in triples:
        def val(x, y):
            if x == y:
                return 0
            return edges[(x, y)] if (x, y) in edges else edges[(y, x)]
        witnesses[(a, b, c)] = (val(a, b) + val(b, c) + val(a, c)) % 2
    data = validate_gerbe_cocycle(cover, adj, edges, witnesses)
    moved = gerbe_coboundary(
        data, {i: 1 for i in cover.indices}, {p: 0 for p in pairs}
    )
    assert moved.edge_values == data.edge_values
    assert moved.witnesses == data.witnesses


def test_coboundary_preserves_validity_randomized():
    """Repeated random gauge moves never leave the valid locus."""
    rng = random.Random(21)
    cover, nerve, pairs, triples = sphere_setup()
    modules = [
        abelian_coefficients(corpus.Z2),
        abelian_coefficients(corpus.Z4),
        adjoint_crossed_module(corpus.Z2),
        adjoint_crossed_module(corpus.S3),
        validate_crossed_module(
            corpus.Z2, corpus.Z4, [0, 1, 0, 1],
            [[0, 1, 2, 3], [0, 1, 2, 3]],
        ),
    ]
    for module in modules:
        base, fiber = module.base, module.fiber
        data = validate_gerbe_cocycle(
            cover, module, {p: 0 for p in pairs}, {t: 0 for t in triples},
        )
        for _ in range(8):
            lam = {i: rng.randrange(base.order) for i in cover.indices}
            shift = {p: rng.randrange(fiber.order) for p in pairs}
            data = gerbe_coboundary(data, lam, shift)  # validates internally


def test_all_sphere_witness_assignments_split_into_two_classes():
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    by_label = {}
    for bits in itertools.product([0, 1], repeat=4):
        data = validate_gerbe_cocycle(
            cover, coeff, edges, dict(zip(triples, bits)),
        )
        by_label.setdefault(abelian_class(data), []).append(bits)
    assert len(by_label) == 2
    assert sorted(len(v) for v in by_label.values()) == [8, 8]
    assert abelian_class_count(nerve, corpus.Z2) == 2


def test_zero_witnesses_have_zero_class():
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    data = validate_gerbe_cocycle(
        cover, coeff, {p: 0 for p in pairs}, {t: 0 for t in triples},
    )
    assert all(x == 0 for x in abelian_class(data))


def test_trivial_second_cohomology_forces_zero_class():
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    assert abelian_class_count(nerve, corpus.Z2) == 1


def test_abelian_class_requires_trivial_base():
    c = trivial_cocycle(
        corpus.cached_star_cover("boundary_3simplex")[0], corpus.Z2
    )
    data = gerbe_from_cocycle(c)
    with pytest.raises(ValidationError):
        abelian_class(data)


def test_equivalence_matches_abelian_classes():
    """A second oracle: with trivial-base abelian coefficients, two data
    are equivalent exactly when their degree-2 classes agree.  All 16 x 16
    Z2 pairs on the sphere."""
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    data = [
        validate_gerbe_cocycle(
            cover, coeff, edges, dict(zip(triples, bits)),
        )
        for bits in itertools.product([0, 1], repeat=4)
    ]
    for d1, d2 in itertools.product(data, repeat=2):
        same_label = abelian_class(d1) == abelian_class(d2)
        assert gerbes_equivalent(d1, d2).equivalent == same_label


@pytest.mark.parametrize("name", ["torus", "rp2"])
def test_equivalence_matches_abelian_classes_on_sampled_surface_pairs(name):
    """The same oracle on sampled Z2 pairs over the torus and RP2 star
    covers, whose nerves have no tetrahedra, so every witness assignment
    is valid; one datum of each pair is a coboundary move of another, so
    both verdicts occur."""
    cover, nerve, _ = corpus.cached_star_cover(name)
    pairs, triples = nerve.keys(2), nerve.keys(3)
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    rng = random.Random(7)

    def random_data():
        return validate_gerbe_cocycle(
            cover, coeff, edges, {t: rng.randrange(2) for t in triples})

    verdicts = []
    for _ in range(6):
        d1 = random_data()
        moved = gerbe_coboundary(d1, {i: 0 for i in cover.indices},
                                 {p: rng.randrange(2) for p in pairs})
        for d2 in (random_data(), moved):
            same_label = abelian_class(d1) == abelian_class(d2)
            result = gerbes_equivalent(d1, d2)
            assert result.equivalent == same_label
            if result.equivalent:
                assert gerbe_coboundary(d1, result.gauge, result.shift) == d2
            verdicts.append(result.equivalent)
    assert set(verdicts) == {True, False}


def test_gerbe_equivalence_self_with_identity_witness():
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    data = validate_gerbe_cocycle(
        cover, coeff, {p: 0 for p in pairs}, {t: 0 for t in triples},
    )
    result = gerbes_equivalent(data, data)
    assert result.equivalent
    assert all(v == 0 for v in result.gauge.values())
    assert all(v == 0 for v in result.shift.values())


def test_gerbe_equivalence_budget():
    """Over the sphere with trivial-base Z2 coefficients the search takes
    66 guesses to decide that one witness set to 1 is not zero data: the
    four gauge entries, then shifts.  Budget 3 runs out inside the gauge."""
    cover, nerve, pairs, triples = sphere_setup()
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    d0 = validate_gerbe_cocycle(
        cover, coeff, edges, {t: 0 for t in triples}
    )
    d1 = validate_gerbe_cocycle(
        cover, coeff, edges,
        {t: (1 if t == triples[0] else 0) for t in triples},
    )
    with pytest.raises(
        BudgetExceededError,
        match=r"^gerbe equivalence search exceeded budget 3 after 3 guesses, "
              r"with 3 of 4 gauge entries and 0 of 6 shifts set$",
    ) as err:
        gerbes_equivalent(d0, d1, budget=3)
    assert err.value.budget == 3
    with pytest.raises(BudgetExceededError, match=r"after 65 guesses, "):
        gerbes_equivalent(d0, d1, budget=65)
    assert not gerbes_equivalent(d0, d1, budget=66).equivalent


def test_gerbe_budget_error_says_which_gauge_it_reached():
    """Base Z2 over the sphere's four indices gives 16 gauges, each with
    up to 2^6 shifts; a witness of order two against none runs out of
    budget 100 with the gauge set and two shifts set, and is decided in
    1,022 guesses."""
    cover, nerve, pairs, triples = sphere_setup()
    module = validate_crossed_module(
        corpus.Z2, corpus.Z4, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2, 3]],
    )
    edges = {p: 0 for p in pairs}
    d0 = validate_gerbe_cocycle(
        cover, module, edges, {t: 0 for t in triples}
    )
    d1 = validate_gerbe_cocycle(
        cover, module, edges,
        {t: (2 if t == triples[0] else 0) for t in triples},
    )
    with pytest.raises(BudgetExceededError) as err:
        gerbes_equivalent(d0, d1, budget=100)
    assert err.value.budget == 100
    assert str(err.value) == (
        "gerbe equivalence search exceeded budget 100 after 100 guesses, "
        "with 4 of 4 gauge entries and 2 of 6 shifts set"
    )
    with pytest.raises(BudgetExceededError) as err:
        gerbes_equivalent(d0, d1, budget=1021)
    assert err.value.budget == 1021
    assert not gerbes_equivalent(d0, d1, budget=1022).equivalent
    assert not gerbes_equivalent(d0, d1).equivalent


def test_coherence_faces_matches_validator_exhaustively():
    cover, nerve, pairs, triples, quads = tetra_setup()
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    agree = 0
    for bits in itertools.product([0, 1], repeat=len(triples)):
        witnesses = dict(zip(triples, bits))
        try:
            validate_gerbe_cocycle(
                cover, coeff, edges, witnesses
            )
            valid = True
        except ValidationError:
            valid = False
        raw = GerbeCocycle(
            cover=cover, module=coeff,
            edge_values=edges, witnesses=witnesses,
        )
        assert check_coherence_faces(raw) == valid
        agree += 1
    assert agree == 16


def test_coherence_faces_randomized_with_nonabelian_witnesses():
    rng = random.Random(17)
    cover, nerve, pairs, triples, quads = tetra_setup()
    module = validate_crossed_module(
        corpus.Z2, corpus.Z4, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2, 3]]
    )
    checked = 0
    for _ in range(60):
        edges = {p: 0 for p in pairs}
        witnesses = {t: rng.choice([0, 2]) for t in triples}
        raw = GerbeCocycle(
            cover=cover, module=module,
            edge_values=edges, witnesses=witnesses,
        )
        try:
            validate_gerbe_cocycle(
                cover, module, edges, witnesses
            )
            valid = True
        except ValidationError:
            valid = False
        assert check_coherence_faces(raw) == valid
        checked += 1
    assert checked == 60


def test_coherence_faces_identity_data():
    cover, nerve, pairs, triples, quads = tetra_setup()
    data = validate_gerbe_cocycle(
        cover, adjoint_crossed_module(corpus.S3),
        {p: 0 for p in pairs}, {t: 0 for t in triples},
    )
    assert check_coherence_faces(data)
