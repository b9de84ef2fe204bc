"""Each job has one routine, checked against the routine it replaced.

Abelian coordinates come from the one lattice quotient, conjugacy
classes, hom classes and action orbits from one orbit partition, and
chain-map signs from the parity of the image's inversions; the
references in ``reference_checks`` are the routines these replaced.
``validate_gerbe_cocycle`` checks edge values and witnesses in one loop
with every message kept, library code reads complexes only in their
tuple forms, ``classify --budget`` caps every search it runs, and an
unreadable coordinate of a coordinate-model point is an input error.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    GroupAction,
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    abelian_coefficients,
    abelian_decomposition,
    adjoint_crossed_module,
    build_complex,
    classification_check,
    cli,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    hom_conjugacy_classes,
    simplicial_chain_map,
    star_cover,
    symmetric_group,
    validate_gerbe_cocycle,
)
from cechfib import classifying
from cechfib.classifying import validate_milnor_point

import corpus
import reference_checks as ref
from test_cli_golden import CASES
from test_homology_reference import simplicial_maps


# -- abelian coordinates through the lattice quotient ----------------------

# each of the 88 multisets of three cyclic orders with product <= 36
ORDER_36_PRODUCTS = [
    (a, b, c)
    for a in range(1, 37) for b in range(a, 37) for c in range(b, 37)
    if a * b * c <= 36
]


@pytest.mark.parametrize("orders", ORDER_36_PRODUCTS)
def test_abelian_decomposition_matches_its_own_smith_form(orders):
    a, b, c = orders
    group = direct_product(
        direct_product(cyclic_group(a), cyclic_group(b)), cyclic_group(c)
    )
    assert abelian_decomposition(group) == ref.abelian_decomposition(group)


# -- one orbit partition ---------------------------------------------------

GROUPS = {**corpus.GROUPS, "s4": symmetric_group(4),
          "z2xz4": direct_product(corpus.Z2, corpus.Z4)}


def test_conjugacy_classes_match_the_reference():
    for group in GROUPS.values():
        assert conjugacy_classes(group) == ref.conjugacy_classes(group)


@st.composite
def actions(draw):
    """A group acting on its own elements by left translation, by
    conjugation, or by both on two copies, with shuffled fiber labels,
    plus the elements that generate the acting subgroup."""
    group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
    n = group.order
    left = [[group.mul(g, f) for f in range(n)] for g in range(n)]
    conj = [[group.conjugate(g, f) for f in range(n)] for g in range(n)]
    kind = draw(st.sampled_from(["left", "conjugation", "both"]))
    if kind == "left":
        table = left
    elif kind == "conjugation":
        table = conj
    else:
        table = [row + [n + f for f in other] for row, other in zip(left, conj)]
    labels = draw(st.permutations([f"p{i:02d}" for i in range(len(table[0]))]))
    action = GroupAction(group, labels, table)
    elements = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return action, elements


@given(actions())
@settings(max_examples=150, deadline=None)
def test_orbits_match_the_reference(case):
    action, elements = case
    assert action.orbits_under(elements) == ref.orbits_under(action, elements)
    assert action.orbits() == ref.orbits_under(action, action.group.elements())


HOM_CASES = [(surface, name) for surface in ("hollow_triangle", "rp2", "torus")
             for name in ("z2", "z4", "z2xz2", "s3")]


def outcome(f, *args):
    try:
        return f(*args)
    except ValidationError as exc:
        return str(exc), exc.details


@given(st.sampled_from(HOM_CASES), st.data())
@settings(max_examples=150, deadline=None)
def test_hom_classes_match_the_reference(case, data):
    surface, name = case
    group = corpus.GROUPS[name]
    homs = corpus.cached_homs(surface, group)
    # a sublist may leave a conjugate out, which both must refuse alike
    chosen = data.draw(st.one_of(
        st.just(list(homs)),
        st.lists(st.sampled_from(homs), min_size=1, unique=True),
    ))
    got = outcome(hom_conjugacy_classes, chosen, group)
    assert got == outcome(ref.hom_conjugacy_classes, chosen, group)


def test_hom_classes_refuse_a_missing_conjugate():
    homs = corpus.cached_homs("hollow_triangle", corpus.S3)
    with pytest.raises(ValidationError,
                       match="conjugate of a homomorphism is missing"):
        hom_conjugacy_classes([h for h in homs if h != (1,)], corpus.S3)


# -- chain-map signs by inversions -----------------------------------------

@given(simplicial_maps())
@settings(max_examples=200, deadline=None)
def test_chain_map_signs_match_the_reference(f):
    top = max(f.source.dim, 0)
    assert simplicial_chain_map(f, top) == ref.simplicial_chain_map(f, top)


def test_chain_map_signs_of_vertex_permutations_match_the_reference():
    # every relabelling of the full 3-simplex, the order-reversing one
    # included, on every simplex of every dimension
    x = corpus.FULL_3SIMPLEX
    signs = set()
    for perm in itertools.permutations(x.vertices):
        f = SimplicialMap(x, x, dict(zip(x.vertices, perm)))
        mats = simplicial_chain_map(f, 3)
        assert mats == ref.simplicial_chain_map(f, 3)
        signs.add(mats[3][0][0])
    assert signs == {1, -1}
    reverse = SimplicialMap(x, x, dict(zip(x.vertices, reversed(x.vertices))))
    # reversing four vertices takes two transpositions
    assert simplicial_chain_map(reverse, 3)[3] == [{0: 1}]
    assert simplicial_chain_map(reverse, 2)[1][0] == {5: -1}


@given(st.permutations(range(6)))
@settings(max_examples=100, deadline=None)
def test_inversion_parity_is_the_permutation_sign(perm):
    x = build_complex([list(range(6))])
    f = SimplicialMap(x, x, dict(enumerate(perm)))
    sign = simplicial_chain_map(f, 5)[5][0][0]
    order = sorted(range(6), key=perm.__getitem__)
    assert sign == ref.permutation_sign(order)


# -- one value check in validate_gerbe_cocycle -----------------------------

def gerbe_setup(surface="boundary_3simplex"):
    cover, nerve, _ = corpus.cached_star_cover(surface)
    edges = {p: 0 for p in nerve.keys(2)}
    witnesses = {t: 0 for t in nerve.keys(3)}
    return cover, nerve, edges, witnesses


def gerbe_error(cover, edges, witnesses, module=None):
    module = module or abelian_coefficients(corpus.Z2)
    with pytest.raises(ValidationError) as err:
        validate_gerbe_cocycle(cover, module, edges, witnesses)
    return str(err.value), err.value.details


def test_every_edge_value_message_is_kept():
    cover, nerve, edges, witnesses = gerbe_setup()
    pair = nerve.keys(2)[-1]
    missing = {p: v for p, v in edges.items() if p != pair}
    assert gerbe_error(cover, missing, witnesses) == (
        f"missing edge value for {pair!r}", None)
    assert gerbe_error(cover, {**edges, pair: 0.5}, witnesses) == (
        f"edge value 0.5 at {pair!r} is not an integer", {"pair": pair})
    # the base group of Z2 coefficients is trivial, so 1 is out of range
    assert gerbe_error(cover, {**edges, pair: 1}, witnesses) == (
        f"edge value 1 out of range at {pair!r}", None)
    two = star_cover(corpus.TWO_COMPONENTS)
    off = {p: 0 for p in two.nerve.keys(2)}
    off[("a", "c")] = 0
    assert gerbe_error(two, off, {}) == (
        "edge values given for non-overlapping pairs [('a', 'c')]", None)


def test_every_witness_message_is_kept():
    cover, nerve, edges, witnesses = gerbe_setup()
    triple = nerve.keys(3)[-1]
    missing = {t: v for t, v in witnesses.items() if t != triple}
    assert gerbe_error(cover, edges, missing) == (
        f"missing witness for {triple!r}", None)
    assert gerbe_error(cover, edges, {**witnesses, triple: "1"}) == (
        f"witness '1' at {triple!r} is not an integer", {"triple": triple})
    assert gerbe_error(cover, edges, {**witnesses, triple: 2}) == (
        f"witness 2 out of range at {triple!r}", None)
    circle, circle_nerve, circle_edges, _ = gerbe_setup("hollow_triangle")
    assert circle_nerve.keys(3) == ()
    assert gerbe_error(circle, circle_edges, {("a", "b", "c"): 0}) == (
        "witnesses given for non-overlapping triples [('a', 'b', 'c')]", None)


def test_edge_values_are_checked_before_witnesses():
    cover, nerve, edges, witnesses = gerbe_setup()
    pair, triple = nerve.keys(2)[0], nerve.keys(3)[0]
    module = adjoint_crossed_module(corpus.Z2)
    assert gerbe_error(cover, {**edges, pair: 2}, {**witnesses, triple: None},
                       module) == (f"edge value 2 out of range at {pair!r}", None)


# -- library code reads the tuple forms ------------------------------------

def test_no_cli_verb_reads_a_frozenset_view(monkeypatch, tmp_path):
    reads = []

    def recorded(name, view):
        def read(self, *args):
            reads.append(name)
            return view(self, *args)
        return read

    views = {
        "maximal_simplices": SimplicialComplex.maximal_simplices.fget,
        "simplices": SimplicialComplex.simplices.fget,
    }
    verbs = set()
    for case, (argv, make_docs) in sorted(CASES.items()):
        verbs.add(argv[0])
        directory = tmp_path / case
        directory.mkdir()
        for name, doc in make_docs().items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (directory / name).write_text(text, encoding="utf-8")
        with monkeypatch.context() as patch:
            for name, view in views.items():
                patch.setattr(SimplicialComplex, name,
                              property(recorded(name, view)))
            patch.setattr(SimplicialMap, "image_simplex", recorded(
                "image_simplex", SimplicialMap.image_simplex))
            patch.chdir(directory)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
    assert verbs == set(cli._VERBS)
    assert reads == []


# -- classify --budget caps its isomorphism checks -------------------------

def test_classification_check_passes_its_budget_to_every_isomorphism_check(
        monkeypatch):
    budgets = []
    search = classifying.bundle_isomorphism

    def spy(b1, b2, **kwargs):
        budgets.append(kwargs.get("budget"))
        return search(b1, b2, **kwargs)

    monkeypatch.setattr(classifying, "bundle_isomorphism", spy)
    cover, _, _ = corpus.cached_star_cover("hollow_triangle")
    report = classification_check(cover, corpus.S3, budget=4321)
    assert report.verdict and len(report.pullbacks_match) == 3
    assert budgets == [4321] * 3


# -- coordinate-model points refuse unreadable coordinates -----------------

@pytest.mark.parametrize("bad", [None, "x", float("nan"), "1/0", float("inf"),
                                 [1]])
def test_unreadable_coordinate_is_a_validation_error(bad):
    values = {(0, 0): 0, (1, 1): 0, (0, 1): 0, (1, 0): 0}
    with pytest.raises(ValidationError) as err:
        validate_milnor_point([Fraction(1, 2), bad], values, corpus.Z2)
    assert str(err.value) == (
        f"coordinate {bad!r} at position 1 is not a rational number")
    assert err.value.details == {"coordinate": 1}


@pytest.mark.parametrize("one", [1, True, 1.0, "1", "2/2", " 1 ", Fraction(1),
                                 Decimal("1.00")])
def test_readable_coordinates_keep_their_fraction(one):
    point = validate_milnor_point([0, one], {(1, 1): 0}, corpus.Z2)
    assert point.coordinates == (Fraction(0), Fraction(1))
    assert all(type(t) is Fraction for t in point.coordinates)
