"""One grounded spanning forest for every chain complex.

``homology_of_chain_complex`` runs ``_forest`` before the elimination
whenever every d_1 column is v - u, +-v or 0: a one-entry column joins
its vertex to a ground node that stays a root.  ``homology`` builds the
forest's output straight from the layers, with no d_1.  The references
are the forest that read edge endpoints back from d_1
(``reference_forest``), the elimination with no forest before it
(``eliminated_homology_of_chain_complex``) and the peel followed by full
invariant factors (``reference_homology_of_chain_complex``).
"""

from __future__ import annotations

import functools
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    ChainComplex,
    HomologyGroup,
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    chain_complex_of,
    connected_components,
    homology,
    homology_of_chain_complex,
    map_induces_homology_isomorphism,
    section_map,
    simplicial_chain_map,
    star_cover,
)

import corpus
import reference_homology as ref
from test_homology_reference import simplicial_maps

homology_module = importlib.import_module("cechfib.homology")

CORPUS = {
    name: value for name, value in vars(corpus).items()
    if isinstance(value, SimplicialComplex)
}


@functools.lru_cache(maxsize=None)
def subdivided(name: str, k: int) -> SimplicialComplex:
    if k == 0:
        return CORPUS[name]
    return barycentric_subdivision(subdivided(name, k - 1))[0]


def rows_in_order(cc: ChainComplex) -> tuple:
    """Ranks and every row's entries in their stored order."""
    return cc.ranks, [[list(row.items()) for row in d] for d in cc.boundaries]


def record_eliminated(monkeypatch) -> list:
    """The complexes handed to ``_eliminate`` from now on."""
    seen = []
    eliminate = homology_module._eliminate

    def record(cc, top):
        seen.append(cc)
        return eliminate(cc, top)

    monkeypatch.setattr(homology_module, "_eliminate", record)
    return seen


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_homology_hands_the_elimination_the_reference_forest(name, k, monkeypatch):
    x = subdivided(name, k)
    seen = record_eliminated(monkeypatch)
    for max_degree in range(max(x.dim, 0) + 2):
        top = min(max_degree + 1, max(x.dim, 0))
        want = ref.reference_forest(chain_complex_of(x, top))
        seen.clear()
        got = homology(x, max_degree)
        assert len(seen) == 1
        assert rows_in_order(seen[0]) == rows_in_order(want)
        assert got == ref.reference_simplicial_homology(
            chain_complex_of(x, top), max_degree
        )


def cone_of(f, max_degree: int) -> ChainComplex:
    src, tgt = (
        chain_complex_of(x, min(max_degree + 1, max(x.dim, 0)))
        for x in (f.source, f.target)
    )
    return homology_module._mapping_cone(
        src, tgt, simplicial_chain_map(f, max_degree), max_degree + 1
    )


def assert_cone_matches_the_elimination_alone(f, max_degree: int) -> None:
    cone = cone_of(f, max_degree)
    forest = homology_module._forest(cone)
    # every source vertex's column is +1 at its image: the forest runs
    # and grounds each target component that the map reaches
    assert forest is not cone
    reached = set(f.vertex_map.values())
    assert forest.rank(0) == sum(
        not reached & set(component)
        for component in connected_components(f.target)
    )
    assert homology_of_chain_complex(cone, max_degree) == (
        ref.eliminated_homology_of_chain_complex(cone, max_degree)
    )


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("k", [0, 1])
def test_star_cover_section_cones_match_the_elimination_alone(name, k, monkeypatch):
    f = section_map(star_cover(subdivided(name, k)))
    seen = record_eliminated(monkeypatch)
    for max_degree in range(3):
        assert_cone_matches_the_elimination_alone(f, max_degree)
        # the check itself hands the elimination the cone's forest
        seen.clear()
        map_induces_homology_isomorphism(f, max_degree)
        assert seen[-1].ranks == homology_module._forest(cone_of(f, max_degree)).ranks


@given(simplicial_maps(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_generated_map_cones_match_the_elimination_alone(f, max_degree):
    assert_cone_matches_the_elimination_alone(f, max_degree)


# hand-written complexes, one for each form of a d_1 column; a, b are the
# vertices and each case's groups are checked against both references
GROUNDED = chain_complex(
    # e0 = a, e1 = a - b, e2 = -b, and one 2-cell on e0 - e1 + e2
    [2, 3, 1],
    [[[1, 1, 0], [0, -1, -1]], [[1], [-1], [1]]],
)
ZERO_COLUMNS = chain_complex(
    # two loops at a, and a 2-cell with boundary e0 - e1
    [1, 2, 1],
    [[[0, 0]], [[1], [-1]]],
)
STORED_ZERO = ChainComplex(
    # e0 = b - a and e1 = -a, with an entry 0 stored at b for e1
    ranks=(2, 2), boundaries=([{0: -1, 1: -1}, {0: 1, 1: 0}],),
)
SUM = chain_complex([2, 1], [[[1], [1]]])  # e0 = a + b
TWICE = chain_complex([1, 1], [[[2]]])  # e0 = 2a
THREE = chain_complex([3, 1], [[[1], [-1], [1]]])  # e0 = a - b + c


@pytest.mark.parametrize("cc,ranks", [
    (GROUNDED, (0, 1, 1)),
    (ZERO_COLUMNS, (1, 2, 1)),
    (STORED_ZERO, (0, 0)),
])
def test_grounded_and_zero_columns_run_the_forest(cc, ranks, monkeypatch):
    forest = homology_module._forest(cc)
    assert forest.ranks == ranks
    assert not any(forest.boundary(1))
    seen = record_eliminated(monkeypatch)
    for max_degree in range(len(cc.ranks)):
        got = homology_of_chain_complex(cc, max_degree)
        assert seen.pop().ranks == ranks
        assert got == ref.reference_homology_of_chain_complex(cc, max_degree)
        assert got == ref.eliminated_homology_of_chain_complex(cc, max_degree)


@pytest.mark.parametrize("cc,h0", [
    (SUM, HomologyGroup(1, ())),
    (TWICE, HomologyGroup(0, (2,))),
    (THREE, HomologyGroup(2, ())),
])
def test_other_columns_go_to_the_elimination_unchanged(cc, h0, monkeypatch):
    assert homology_module._forest(cc) is cc
    seen = record_eliminated(monkeypatch)
    for max_degree in range(len(cc.ranks)):
        got = homology_of_chain_complex(cc, max_degree)
        assert seen.pop() is cc
        assert got == ref.reference_homology_of_chain_complex(cc, max_degree)
        assert got.group(0) == h0
