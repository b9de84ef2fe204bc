"""Each transition fact is checked once, and the answers stay the same.

``patch_bundles`` restricts the glued bundle once per part instead of
both locals per overlapping pair, ``gerbes_equivalent`` compares moved
witnesses without revalidating them, ``pullback_universal`` reads the
universal vertex rule without building universal chains, and
``from_homomorphism`` leaves its relations to the cocycle law.  The
versions in ``reference_transitions`` are the oracle for each.
"""

from __future__ import annotations

import enum
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    BudgetExceededError,
    SimplicialMap,
    ValidationError,
    abelian_class,
    abelian_coefficients,
    build_complex,
    classification_check,
    cli,
    closed_star_cover,
    from_homomorphism,
    gerbe_coboundary,
    gerbes_equivalent,
    patch_bundles,
    product_bundle,
    pullback_universal,
    regular_action,
    restrict_bundle,
    star_cover,
    total_space,
    validate_crossed_module,
    validate_gerbe_cocycle,
)
from cechfib import bundles, classifying
from cechfib import io as docio
from cechfib.bundles import Bundle, _lifted
from cechfib.gerbes import gerbe_from_cocycle

import corpus
import reference_transitions as reference


def outcome(fn, *args, **kwargs):
    """What a call returns, or the message of the error it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except (ValidationError, BudgetExceededError) as exc:
        return "error", str(exc), getattr(exc, "details", None)


# --- patch_bundles ----------------------------------------------------------

def corpus_bundles():
    """Bundles over corpus complexes: twisted totals over the surfaces'
    nerves (which are the surfaces), products over the rest."""
    rng = random.Random(5)
    out = []
    for name in corpus.SURFACES:
        for group in (corpus.Z2, corpus.S3):
            cocycle = corpus.random_cocycle(name, group, rng)
            out.append((f"{name}-{group.order}",
                        total_space(cocycle, regular_action(group))))
    for name, x in (("edge", corpus.EDGE), ("hexagon", corpus.HEXAGON),
                    ("full_3simplex", corpus.FULL_3SIMPLEX),
                    ("two_components", corpus.TWO_COMPONENTS),
                    ("point", corpus.POINT)):
        out.append((name, product_bundle(x, ("x", "y"))))
    return out


def relabeled_product(local: Bundle, rng) -> Bundle:
    """A product over the local's part with the fiber permuted at random
    over each base vertex, in the local's own vertex labels."""
    part, fiber = local.base, local.fiber
    sigma = {v: rng.sample(fiber, len(fiber)) for v in part.vertices}
    pieces = [{(v, sigma[v][i]) for v in s}
              for s in part.maximal_simplices for i in range(len(fiber))]
    return _lifted(pieces, part, fiber, local.action)


def lift_dropped(local: Bundle, rng) -> Bundle:
    tops = sorted(tuple(sorted(s)) for s in local.total.maximal_simplices)
    tops.remove(rng.choice(tops))
    total = build_complex(tops)
    projection = SimplicialMap(
        total, local.base, {v: local.projection(v) for v in total.vertices}
    )
    return Bundle(total=total, base=local.base, projection=projection,
                  fiber=local.fiber, action=local.action)


def projection_relabeled(local: Bundle, rng) -> Bundle:
    vertex_map = dict(local.projection.vertex_map)
    moved = rng.choice(local.total.vertices)
    others = [v for v in local.base.vertices if v != vertex_map[moved]]
    vertex_map[moved] = rng.choice(others)
    projection = SimplicialMap._trusted(local.total, local.base, vertex_map)
    return Bundle(total=local.total, base=local.base, projection=projection,
                  fiber=local.fiber, action=local.action)


PERTURBATIONS = {
    "relabeled product": relabeled_product,
    "lift dropped": lift_dropped,
    "projection relabeled": projection_relabeled,
}


def patch_cases():
    rng = random.Random(11)
    for name, bundle in corpus_bundles():
        cover = closed_star_cover(bundle.base)
        locals_ = {idx: restrict_bundle(bundle, cover.parts[idx])
                   for idx in cover.indices}
        yield f"{name}/as restricted", cover, locals_
        for kind, perturb in PERTURBATIONS.items():
            for idx in rng.sample(cover.indices, min(3, len(cover.indices))):
                local = locals_[idx]
                if kind == "lift dropped" and len(local.total.maximal_simplices) < 2:
                    continue
                if kind == "projection relabeled" and len(local.base.vertices) < 2:
                    continue
                yield (f"{name}/{kind} at {idx!r}", cover,
                       {**locals_, idx: perturb(local, rng)})


def assert_names_a_disagreeing_pair(cover, locals_, details):
    a, b = details["parts"]
    assert a < b
    overlap = build_complex(
        cover.parts[a].simplices & cover.parts[b].simplices
    )
    ra = restrict_bundle(locals_[a], overlap).total.simplices
    rb = restrict_bundle(locals_[b], overlap).total.simplices
    assert frozenset(details["simplex"]) in ra ^ rb


def test_patch_matches_the_pairwise_reference():
    kinds = {"accepted": 0, "rejected": 0}
    for case, cover, locals_ in patch_cases():
        want = outcome(reference.patch_bundles, cover, locals_)
        got = outcome(patch_bundles, cover, locals_)
        assert got[0] == want[0], case
        if got[0] == "ok":
            kinds["accepted"] += 1
            glued, ref = got[1], want[1]
            assert glued.total == ref.total, case
            assert glued.projection.vertex_map == ref.projection.vertex_map, case
            assert glued.fiber == ref.fiber, case
            assert glued.action is ref.action, case
            continue
        kinds["rejected"] += 1
        if "disagree at" in want[1] and "projection" not in case:
            assert "disagree at" in got[1], case
        if "disagree at" in got[1]:
            assert_names_a_disagreeing_pair(cover, locals_, got[2])
            a, b = got[2]["parts"]
            assert got[1] == (
                f"locals over {a!r} and {b!r} disagree at {got[2]['simplex']!r}"
            )
    assert kinds["accepted"] >= 13 and kinds["rejected"] >= 40, kinds


def test_patch_restricts_the_glued_bundle_once_per_part(monkeypatch):
    """The closed-star cover of the 7-vertex torus has 7 parts and 21
    overlapping pairs; the pairwise check restricted 42 times."""
    bundle = product_bundle(corpus.TORUS_SEVEN, ("x", "y"))
    cover = closed_star_cover(bundle.base)
    locals_ = {idx: restrict_bundle(bundle, cover.parts[idx])
               for idx in cover.indices}
    calls = []
    real = bundles.restrict_bundle

    def counted(b, sub):
        calls.append(sub)
        return real(b, sub)

    monkeypatch.setattr(bundles, "restrict_bundle", counted)
    glued = patch_bundles(cover, locals_)
    assert glued.total == bundle.total
    assert len(calls) <= len(cover.indices) == 7


# --- gerbes_equivalent ------------------------------------------------------

def sphere():
    cover, nerve, _ = corpus.cached_star_cover("boundary_3simplex")
    return cover, nerve.keys(2), nerve.keys(3)


def same_search(d1, d2, **kwargs):
    got = outcome(gerbes_equivalent, d1, d2, **kwargs)
    want = outcome(reference.gerbes_equivalent, d1, d2, **kwargs)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got[1].equivalent == want[1].equivalent
        assert got[1].gauge == want[1].gauge
        assert got[1].shift == want[1].shift
    else:
        assert got[1:] == want[1:]
    return got


def test_gerbe_search_matches_the_reference_on_all_z2_sphere_pairs():
    cover, pairs, triples = sphere()
    coeff = abelian_coefficients(corpus.Z2)
    data = [
        validate_gerbe_cocycle(cover, coeff, {p: 0 for p in pairs},
                               dict(zip(triples, bits)))
        for bits in itertools.product([0, 1], repeat=len(triples))
    ]
    assert len(data) == 16
    hits = sum(same_search(d1, d2)[1].equivalent
               for d1, d2 in itertools.product(data, repeat=2))
    assert hits == 2 * 8 * 8


def random_z4_data(cover, pairs, triples, module, rng):
    """Base Z2 edges with witnesses in Z4 whose boundary fixes the
    triangle law (the sphere's nerve has no tetrahedra)."""
    edges = {p: rng.randrange(2) for p in pairs}
    witnesses = {}
    for a, b, c in triples:
        parity = (edges[(a, b)] + edges[(b, c)] + edges[(a, c)]) % 2
        witnesses[(a, b, c)] = parity + 2 * rng.randrange(2)
    return validate_gerbe_cocycle(cover, module, edges, witnesses)


def test_gerbe_search_matches_the_reference_on_random_data():
    rng = random.Random(3)
    cover, pairs, triples = sphere()
    z4 = validate_crossed_module(
        corpus.Z2, corpus.Z4, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2, 3]],
    )
    verdicts = set()
    for _ in range(12):
        d1 = random_z4_data(cover, pairs, triples, z4, rng)
        d2 = random_z4_data(cover, pairs, triples, z4, rng)
        verdicts.add(same_search(d1, d2)[1].equivalent)
    assert verdicts == {True, False}
    for group in (corpus.S3, corpus.Z3):
        for _ in range(3):
            cocycle = corpus.random_cocycle("boundary_3simplex", group, rng)
            d1 = gerbe_from_cocycle(cocycle)
            lam = {i: rng.randrange(group.order) for i in cover.indices}
            shift = {p: rng.randrange(group.order) for p in pairs}
            d2 = gerbe_coboundary(d1, lam, shift)
            assert same_search(d1, d2)[1].equivalent
            assert same_search(d2, d1)[1].equivalent


def test_gerbe_search_budget_errors_match_the_reference():
    """The search spends one budget unit per guess.  For each budget it
    raises exactly when the budget is below the guesses that the
    recursive replay in ``reference.gerbe_search_trace`` counts, naming
    how many positions that replay had set at the guess it could not
    make; otherwise it gives the product search's verdict and witness."""
    rng = random.Random(4)
    cover, pairs, triples = sphere()
    z4 = validate_crossed_module(
        corpus.Z2, corpus.Z4, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2, 3]],
    )
    n, kinds = len(cover.indices), []
    for _ in range(4):
        d1 = random_z4_data(cover, pairs, triples, z4, rng)
        d2 = random_z4_data(cover, pairs, triples, z4, rng)
        found, trace = reference.gerbe_search_trace(d1, d2)
        want = reference.gerbes_equivalent(d1, d2)
        assert want.equivalent == found
        for budget in (*range(1, 12), 63, 64, 65, 129, 200, len(trace) - 1,
                       len(trace)):
            got = outcome(gerbes_equivalent, d1, d2, budget=budget)
            kinds.append(got[0])
            if budget < len(trace):
                settled = trace[budget]
                assert got == ("error", (
                    f"gerbe equivalence search exceeded budget {budget} after "
                    f"{budget} guesses, with {min(settled, n)} of {n} gauge "
                    f"entries and {max(settled - n, 0)} of {len(pairs)} "
                    f"shifts set"), None)
                with pytest.raises(BudgetExceededError) as err:
                    gerbes_equivalent(d1, d2, budget=budget)
                assert err.value.budget == budget
            else:
                assert got[0] == "ok"
                assert got[1].equivalent == want.equivalent
                assert got[1].gauge == want.gauge
                assert got[1].shift == want.shift
    assert kinds.count("error") >= 16 and kinds.count("ok") >= 16


@pytest.mark.parametrize("name, guesses, settled", [
    ("torus", 13_573, "7 of 7 gauge entries and 9 of 21 shifts"),
    ("rp2", 1_668, "6 of 6 gauge entries and 8 of 15 shifts"),
])
def test_gerbe_search_decides_the_surface_pairs(name, guesses, settled):
    """Z2 zero data against one witness set to 1 at the first triple, over
    the torus and RP2 star covers (7 and 6 parts), which ``abelian_class``
    tells apart.  The search decides both false at the default budget;
    the recursive replay counts the guesses it needs, and one guess fewer
    raises."""
    cover, nerve, _ = corpus.cached_star_cover(name)
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in nerve.keys(2)}
    triples = nerve.keys(3)
    d0 = validate_gerbe_cocycle(cover, coeff, edges, {t: 0 for t in triples})
    d1 = validate_gerbe_cocycle(
        cover, coeff, edges, {t: int(t == triples[0]) for t in triples})
    assert abelian_class(d0) != abelian_class(d1)
    found, trace = reference.gerbe_search_trace(d0, d1)
    assert (found, len(trace)) == (False, guesses)
    assert not gerbes_equivalent(d0, d1).equivalent
    assert not gerbes_equivalent(d0, d1, budget=guesses).equivalent
    with pytest.raises(BudgetExceededError) as err:
        gerbes_equivalent(d0, d1, budget=guesses - 1)
    assert err.value.budget == guesses - 1
    assert str(err.value) == (
        f"gerbe equivalence search exceeded budget {guesses - 1} after "
        f"{guesses - 1} guesses, with {settled} set")


def test_gerbe_search_revalidates_no_candidate(monkeypatch):
    from cechfib import gerbes

    def refuse(*args, **kwargs):
        raise AssertionError("a candidate was revalidated")

    cover, pairs, triples = sphere()
    coeff = abelian_coefficients(corpus.Z2)
    edges = {p: 0 for p in pairs}
    d0 = validate_gerbe_cocycle(cover, coeff, edges, {t: 0 for t in triples})
    d1 = validate_gerbe_cocycle(cover, coeff, edges,
                                {t: int(t == triples[0]) for t in triples})
    d2 = validate_gerbe_cocycle(cover, coeff, edges,
                                {t: int(t in triples[:2]) for t in triples})
    monkeypatch.setattr(gerbes, "gerbe_coboundary", refuse)
    monkeypatch.setattr(gerbes, "validate_gerbe_cocycle", refuse)
    assert not gerbes_equivalent(d0, d1).equivalent
    assert gerbes_equivalent(d0, d2).equivalent


# --- gerbe data off the nerve -----------------------------------------------

def full_triangle_gerbe():
    cover = star_cover(corpus.FULL_TRIANGLE)
    nerve = cover.nerve
    return (cover, abelian_coefficients(corpus.Z2),
            {p: 0 for p in nerve.keys(2)}, {t: 0 for t in nerve.keys(3)})


def test_gerbe_data_off_the_nerve_is_refused():
    cover, coeff, edges, witnesses = full_triangle_gerbe()
    validate_gerbe_cocycle(cover, coeff, edges, witnesses)
    with pytest.raises(
        ValidationError,
        match=r"^edge values given for non-overlapping pairs \[\('a', 'zz'\)\]$",
    ):
        validate_gerbe_cocycle(cover, coeff, {**edges, ("a", "zz"): 0}, witnesses)
    with pytest.raises(
        ValidationError,
        match=r"^witnesses given for non-overlapping triples "
              r"\[\('x', 'y', 'z'\)\]$",
    ):
        validate_gerbe_cocycle(cover, coeff, edges,
                               {**witnesses, ("x", "y", "z"): 0})


def test_gerbe_check_gives_a_false_verdict_for_data_off_the_nerve(tmp_path, capsys):
    cover, coeff, edges, witnesses = full_triangle_gerbe()
    doc = docio.gerbe_to_doc(validate_gerbe_cocycle(cover, coeff, edges, witnesses))

    def check(name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        code = cli.main(["gerbe-check", "--input", str(path)])
        return code, json.loads(capsys.readouterr().out)

    code, report = check("control.json", doc)
    assert (code, report["verdict"]) == (0, True)
    code, report = check("edge.json", {**doc, "values": {**doc["values"], "a|zz": 0}})
    assert (code, report["verdict"]) == (1, False)
    assert report["details"]["error"] == (
        "edge values given for non-overlapping pairs [('a', 'zz')]"
    )
    code, report = check(
        "witness.json", {**doc, "witnesses": {**doc["witnesses"], "x|y|z": 0}}
    )
    assert (code, report["verdict"]) == (1, False)
    assert report["details"]["error"] == (
        "witnesses given for non-overlapping triples [('x', 'y', 'z')]"
    )


# --- pullback_universal and the classification check ------------------------

def test_universal_pullback_matches_the_reference():
    for base, group, cocycle in corpus.random_cocycle_instances(
            24, random.Random(9)):
        got = pullback_universal(cocycle)
        want = reference.pullback_universal(cocycle)
        assert got.total == want.total, (base, group)
        assert got.projection.vertex_map == want.projection.vertex_map
        assert got.fiber == want.fiber
        assert got.action.table == want.action.table


def test_classification_check_builds_no_universal_chains(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("universal chains were built")

    monkeypatch.setattr(classifying, "universal_bundle", refuse)
    cover, _, _ = corpus.cached_star_cover("rp2")
    report = classification_check(cover, corpus.S3)
    assert report.verdict
    assert report.cocycle_classes == report.hom_classes == 2


# --- from_homomorphism --------------------------------------------------------

def test_out_of_range_generator_images_are_refused_on_rp2():
    cover = star_cover(corpus.RP2_SIX)
    assert cover.nerve.presentation.generator_count == 10
    with pytest.raises(ValidationError, match=r"^value 7 out of range for pair "):
        from_homomorphism((7,) * 10, cover, corpus.Z2)


def test_images_breaking_a_relation_fail_the_cocycle_law():
    cover = star_cover(corpus.RP2_SIX)
    with pytest.raises(ValidationError, match=r"^cocycle law fails on triple "):
        from_homomorphism((1,) + (0,) * 9, cover, corpus.Z2)


# --- document labels ------------------------------------------------------------

class Name(str):
    pass


class Count(int):
    pass


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


VALUES = st.one_of(
    st.booleans(), st.floats(allow_nan=False), st.none(),
    st.text(max_size=3), st.integers(),
    st.lists(st.integers(), max_size=2),
    st.lists(st.lists(st.text(max_size=1), max_size=1), max_size=1),
    st.text(max_size=3).map(Name), st.integers().map(Count),
    st.sampled_from(list(Colour)),
)


def label_error(load, *args):
    try:
        load(*args)
    except ValidationError as exc:
        return str(exc) if "labels" in str(exc) else None
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(VALUES, max_size=6), st.integers(min_value=0, max_value=6))
def test_label_check_accepts_exactly_what_the_per_value_test_did(values, cut):
    labels = all(map(reference.is_label, values))
    assert docio._all_labels(values) == labels
    assert docio._all_labels(iter(values)) == labels
    assert (label_error(docio._labels, values, '"fiber"') is None) == labels
    assert (label_error(docio._label_map, dict(enumerate(values)), '"p"')
            is None) == labels
    maximal = [values[:cut], values[cut:]]
    error = label_error(docio.complex_from_doc, {"maximal": maximal})
    assert error in (None, '"maximal" must be a list of lists of string or '
                           'integer labels')
    assert (error is None) == labels
    for bad in (values, [values, "ab"], [values, None]):
        shaped = all(isinstance(s, list) for s in bad)
        if not shaped:
            assert label_error(docio.complex_from_doc, {"maximal": bad})
