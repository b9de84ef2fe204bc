"""Faces read off vertex columns, against the per-simplex references.

``build_complex`` sorts every declared simplex in one pass and reads all
faces of a layer from its vertex columns; ``_top_sets`` of a trusted
complex and ``simplex_boundary_matrix`` read codimension-1 faces the
same way.  The references in ``reference_complexes`` and
``reference_homology`` walk one simplex at a time.  Verbs look their
library functions up when they run, so a rebound function is the one
called.
"""

from __future__ import annotations

import argparse
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    SimplicialComplex,
    ValidationError,
    barycentric_subdivision,
    build_complex,
    cli,
    star_cover,
)
from cechfib import io as docio
from cechfib.homology import simplex_boundary_matrix

import corpus
from reference_complexes import ReferenceComplex, reference_build_complex
from reference_homology import reference_simplex_boundary_matrix


def outcome(make):
    """What a construction gives: its views and maximal simplices in
    order, or its error with its details."""
    try:
        x = make()
    except Exception as exc:  # the exception itself is compared
        return ("raised", type(exc), str(exc), getattr(exc, "details", None))
    return (
        "built",
        x.simplices,
        x.vertices,
        tuple(x.simplices_of_dim(k) for k in range(x.dim + 1)),
        x.maximal_simplices,
    )


# -- build_complex ------------------------------------------------------------

# each declared simplex as a list, a tuple, a frozenset or a generator,
# and the family as a list, a tuple or a generator; a generator is read
# once, so each construction gets a fresh family
SIMPLEX_KINDS = {"list": list, "tuple": tuple, "frozenset": frozenset,
                 "generator": lambda s: (v for v in s)}
FAMILY_KINDS = {"list": list, "tuple": tuple,
                "generator": lambda f: (s for s in f)}

RELABEL = st.sampled_from([lambda v: v, lambda v: f"v{v}", lambda v: (v % 2, v)])


@st.composite
def declared_families(draw):
    """Mixed dimensions up to 4 on the labels 0..7, with declared faces
    of declared simplices, declared vertices that are faces and ones
    (8..10) that are not, in a drawn order."""
    simplices = draw(st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
        min_size=1, max_size=8))
    for s in draw(st.lists(st.sampled_from(simplices), max_size=4)):
        simplices.append(draw(st.lists(st.sampled_from(s), min_size=1,
                                       max_size=len(s), unique=True)))
    held = sorted({v for s in simplices for v in s})
    simplices += [[v] for v in draw(st.lists(st.sampled_from(held), max_size=3))]
    simplices += [[v] for v in draw(st.lists(st.integers(8, 10), max_size=2))]
    return draw(st.permutations(simplices))


def fresh(family, relabel, simplex_kind, family_kind):
    """A maker of the family in the drawn containers, new on each call."""
    wrap, outer = SIMPLEX_KINDS[simplex_kind], FAMILY_KINDS[family_kind]
    return lambda: outer([wrap([relabel(v) for v in s]) for s in family])


@given(declared_families(), RELABEL, st.sampled_from(sorted(SIMPLEX_KINDS)),
       st.sampled_from(sorted(FAMILY_KINDS)))
@settings(max_examples=300, deadline=None)
def test_build_complex_matches_reference_in_every_container(
        family, relabel, simplex_kind, family_kind):
    make = fresh(family, relabel, simplex_kind, family_kind)
    got = outcome(lambda: build_complex(make()))
    assert got[0] == "built"
    assert got == outcome(lambda: reference_build_complex(make()))


def test_an_uncovered_declared_vertex_is_maximal():
    x = build_complex([["a", "b", "c"], ["d"], ["a", "b"], ["c"]])
    assert x.maximal_simplices == (frozenset("abc"), frozenset("d"))
    assert [x.simplex_count(k) for k in range(3)] == [4, 3, 1]


# one fault of each kind; the drawn families have integer labels, so a
# simplex of string labels sorts on its own but not with the others
FAULTS = {
    "empty": [],
    "repeated": [3, 1, 3],
    "unorderable inside": ["a", 1],
    "unorderable across": ["a", "b"],
}


@given(declared_families(), st.lists(st.sampled_from(sorted(FAULTS)),
                                     min_size=1, max_size=4), st.data())
@settings(max_examples=300, deadline=None)
def test_the_first_fault_in_order_is_named(family, faults, data):
    family = list(family)
    for kind in faults:
        family.insert(data.draw(st.integers(0, len(family))), list(FAULTS[kind]))
    got = outcome(lambda: build_complex(family))
    assert got[0] == "raised"
    assert got == outcome(lambda: reference_build_complex(family))


@pytest.mark.parametrize("family, message, details", [
    ([["a", "b"], ["c", "d", "c"], []],
     "repeated vertex in declared simplex ['c', 'd', 'c']",
     {"simplex": ["c", "d", "c"]}),
    ([[1, 2], [], [3, 3]], "declared simplex is empty", None),
    ([[1, 2], ["a", 1], [3, 3]],
     "vertex identifiers must be mutually orderable", None),
    ([[1, 2], ["a", "b"], [3, 4, 3]],
     "repeated vertex in declared simplex [3, 4, 3]", {"simplex": [3, 4, 3]}),
    ([[1, 2, 3], ["a", "b"]], "vertex identifiers must be mutually orderable",
     None),
    ([[1, 2, 3], [2, 3], [2, 3, 2]],
     "repeated vertex in declared simplex [2, 3, 2]", {"simplex": [2, 3, 2]}),
])
def test_fault_messages_are_unchanged(family, message, details):
    want = ("raised", ValidationError, message, details)
    assert outcome(lambda: build_complex(family)) == want
    assert outcome(lambda: reference_build_complex(family)) == want


def test_a_simplex_that_is_no_collection_raises_after_earlier_faults():
    assert outcome(lambda: build_complex([[1], [], 5]))[2] == (
        "declared simplex is empty")
    with pytest.raises(TypeError):
        build_complex([[1], 5, []])


# -- maximal simplices of trusted complexes ------------------------------------

CORPUS = {
    name: getattr(corpus, name)
    for name in ("POINT", "EDGE", "HOLLOW_TRIANGLE", "FULL_TRIANGLE",
                 "HEXAGON", "BOUNDARY_3SIMPLEX", "FULL_3SIMPLEX", "RP2_SIX",
                 "TORUS_SEVEN", "TWO_COMPONENTS")
}


def reference_tops(x) -> list:
    return [tuple(sorted(s))
            for s in ReferenceComplex(x.simplices).maximal_simplices]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_top_sets_of_star_cover_witnesses_match_reference(name):
    witnesses = star_cover(CORPUS[name]).nerve.witnesses
    assert witnesses
    for w in witnesses.values():
        trusted = SimplicialComplex._trusted(w._layers)
        assert sorted(trusted._top_sets()) == reference_tops(w)


@given(declared_families())
@settings(max_examples=200, deadline=None)
def test_top_sets_of_trusted_layers_match_reference(family):
    x = reference_build_complex(family)
    layers = {}
    for s in x.simplices:
        layers.setdefault(len(s) - 1, set()).add(tuple(sorted(s)))
    assert sorted(SimplicialComplex._trusted(layers)._top_sets()) == (
        reference_tops(x))


# -- boundary matrices ----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def subdivided(name: str, times: int) -> SimplicialComplex:
    if times == 0:
        return CORPUS[name]
    return barycentric_subdivision(subdivided(name, times - 1))[0]


BOUNDARY_CASES = [(name, 0) for name in sorted(CORPUS)] + [
    (name, times) for name in ("RP2_SIX", "TORUS_SEVEN") for times in (1, 2, 3)
]


def assert_same_rows(got, want):
    # equal entries, and each row's keys in column order as the reference
    # fills them
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]


@pytest.mark.parametrize("name, times", BOUNDARY_CASES,
                         ids=[f"{n}-sd{t}" for n, t in BOUNDARY_CASES])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_boundary_matrix_matches_reference(name, times, k):
    x = subdivided(name, times)
    assert_same_rows(simplex_boundary_matrix(x, k),
                     reference_simplex_boundary_matrix(x, k))


@given(declared_families(), RELABEL)
@settings(max_examples=100, deadline=None)
def test_boundary_matrix_matches_reference_up_to_dimension_4(family, relabel):
    x = build_complex([[relabel(v) for v in s] for s in family])
    for k in range(1, 5):
        assert_same_rows(simplex_boundary_matrix(x, k),
                         reference_simplex_boundary_matrix(x, k))


# -- verbs read library functions when they run --------------------------------

RP2_DOC = {"maximal": [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
                       [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]}


def test_homology_verb_calls_the_functions_bound_when_it_runs(
        monkeypatch, tmp_path, capsys):
    calls = []
    load, compute = docio.complex_from_doc, cli.homology
    monkeypatch.setattr(docio, "complex_from_doc",
                        lambda doc: calls.append("load") or load(doc))
    monkeypatch.setattr(cli, "homology",
                        lambda x, degree: calls.append("homology")
                        or compute(x, degree))
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps(RP2_DOC), encoding="utf-8")
    assert cli.main(["homology", "--input", str(path)]) == cli.EXIT_TRUE
    details = json.loads(capsys.readouterr().out)["details"]
    assert (details["betti"], details["torsion"]) == ([1, 0, 0], [[], [2], []])
    assert calls == ["load", "homology"]


class Called(Exception):
    pass


# each verb that takes its functions from a table: the loader it reads
# from cechfib.io and the function of cechfib.cli it then calls
TABLE_VERBS = [
    ("validate-complex", "complex_from_doc", None),
    ("homology", "complex_from_doc", "homology"),
    ("cocycle-check", "parse_cocycle_doc", "validate_cocycle"),
    ("gerbe-check", "parse_gerbe_doc", "validate_gerbe_cocycle"),
    ("bar-homology", "group_from_doc", "bar_homology"),
    ("milnor-check", "parse_milnor_doc", "validate_milnor_point"),
]


@pytest.mark.parametrize("verb, loader, function", TABLE_VERBS,
                         ids=[v for v, _, _ in TABLE_VERBS])
def test_every_table_verb_looks_its_functions_up_when_it_runs(
        monkeypatch, verb, loader, function):
    calls = []

    def load(doc):
        calls.append((loader, doc))
        if function is None:
            raise Called
        return ("parsed",)

    def run(*args):
        calls.append((function, args))
        raise Called

    monkeypatch.setattr(docio, loader, load)
    if function is not None:
        monkeypatch.setattr(cli, function, run)
    args = argparse.Namespace(max_degree=1, budget=1, mode="direct")
    with pytest.raises(Called):
        cli._VERBS[verb].run(["doc"], args)
    assert calls[0] == (loader, "doc")
    assert [name for name, _ in calls[1:]] == ([function] if function else [])
