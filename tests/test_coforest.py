"""The grounded coforest: ``_eliminate`` pairs the top degree by signed
union-find before its degree loop.

Each row of d_top with one entry +-1 joins its top cell to ground, each
with two entries +-1 joins its two top cells, and every other row
passes through; the kept rows are read through the trees.  The
reference is the elimination as it stood before, with no coforest
(``reference_homology.reference_eliminate``): homology through either
must agree on the corpus, its subdivisions, star-cover section cones
and generated simplicial maps.  Hand-written rows pin each form of a
row, and input rows must be left as they were.
"""

from __future__ import annotations

import copy
import functools
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    ChainComplex,
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    chain_complex_of,
    homology,
    homology_of_chain_complex,
    map_induces_homology_isomorphism,
    section_map,
    star_cover,
)
from cechfib.snf import sparse_multiply

import corpus
import reference_homology as ref
from test_grounded_forest import cone_of
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


def with_reference_elimination(run):
    """``run()`` with the library's homology routed through the
    elimination that has no coforest."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology_module, "_eliminate", ref.reference_eliminate)
        return run()


def assert_chain_complex(cc: ChainComplex) -> None:
    for k in range(1, len(cc.ranks) - 1):
        assert not any(sparse_multiply(cc.boundary(k), cc.boundary(k + 1)))


def assert_same_homology(cc: ChainComplex, max_degree: int) -> None:
    before = copy.deepcopy(cc.boundaries)
    got = homology_of_chain_complex(cc, max_degree)
    assert got == with_reference_elimination(
        lambda: homology_of_chain_complex(cc, max_degree)
    )
    assert got == ref.eliminated_homology_of_chain_complex(cc, max_degree)
    residue = homology_module._eliminate(cc, max_degree + 1)
    assert_chain_complex(residue)
    assert cc.boundaries == before


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_corpus_homology_matches_the_elimination_without_coforest(name, k):
    x = subdivided(name, k)
    for max_degree in range(max(x.dim, 0) + 2):
        got = homology(x, max_degree)
        assert got == with_reference_elimination(lambda: homology(x, max_degree))
        top = min(max_degree + 1, max(x.dim, 0))
        assert_same_homology(chain_complex_of(x, top), max_degree)


@pytest.mark.parametrize("name", ["BOUNDARY_3SIMPLEX", "RP2_SIX", "TORUS_SEVEN"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_closed_surfaces_join_every_triangle_in_one_tree(name, k):
    cc = homology_module._forest(chain_complex_of(subdivided(name, k)))
    coforest = homology_module._coforest(cc, 2)
    # a tree of t triangles eliminates t - 1 edges
    assert coforest.ranks == (1, cc.rank(1) - cc.rank(2) + 1, 1)
    rows = [row for row in coforest.boundary(2) if row]
    if name == "RP2_SIX":
        assert len(rows) == 1 and list(map(abs, rows[0].values())) == [2]
    else:
        assert rows == []


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("k", [0, 1])
def test_section_cones_match_the_elimination_without_coforest(name, k):
    f = section_map(star_cover(subdivided(name, k)))
    for max_degree in range(3):
        assert_same_homology(cone_of(f, max_degree), max_degree)
        assert map_induces_homology_isomorphism(f, max_degree)
        assert with_reference_elimination(
            lambda: map_induces_homology_isomorphism(f, max_degree)
        )


@given(simplicial_maps(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_generated_map_cones_match_the_elimination_without_coforest(f, max_degree):
    assert_same_homology(cone_of(f, max_degree), max_degree)
    assert map_induces_homology_isomorphism(f, max_degree) == (
        with_reference_elimination(
            lambda: map_induces_homology_isomorphism(f, max_degree)
        )
    )


# hand-written complexes in degrees 0..2 whose d_2 rows take each form;
# C_0 = Z with d_1 = 0 unless a case says otherwise, and t0, t1, ... are
# the top cells
def rows_complex(edges: int, tops: int, d2, d1=None) -> ChainComplex:
    d1 = d1 if d1 is not None else [[0] * edges]
    return chain_complex([len(d1), edges, tops], [d1, d2])


CASES = {
    # e0 = t0 grounds t0; e1 = -t0 then reads 0
    "ground": (rows_complex(2, 1, [[1], [-1]]), (1, 1, 0), [{}]),
    # e0 = t0 + t1: t0 = -t1, so e1 = t0 + t1 reads 0
    "equal signs": (rows_complex(2, 2, [[1, 1], [1, 1]]), (1, 1, 1), [{}]),
    # e0 = t0 - t1: t0 = t1, so e1 = t0 + t1 reads 2 t1
    "opposite signs": (rows_complex(2, 2, [[1, -1], [1, 1]]), (1, 1, 1), [{0: 2}]),
    # e0 = -t0 + t1 joins, e1 = t1 grounds the tree: e2 = t0 + t1 reads 0
    "grounded tree": (
        rows_complex(3, 2, [[-1, 1], [0, 1], [1, 1]]), (1, 1, 0), [{}],
    ),
    # e0 = t0 grounds t0; e1 = t0 + t1 then has ground as its first
    # end's root, so it grounds t1 and ground stays a root: e2 reads 0
    "ground first": (
        rows_complex(3, 2, [[1, 0], [1, 1], [1, -1]]), (1, 1, 0), [{}],
    ),
    # entries of 2 pass through, and e1 = 2 t0 + t1 keeps its 2
    "entry of two": (
        rows_complex(2, 2, [[2, 0], [2, 1]]), (1, 2, 2), [{0: 2}, {0: 2, 1: 1}],
    ),
    # e0 = t0 + t1 + t2 passes through; e1 = t0 - t1 joins t0 to t1 and
    # e2 = t2 grounds t2, so e0 reads 2 t1
    "three entries": (
        rows_complex(3, 3, [[1, 1, 1], [1, -1, 0], [0, 0, 1]]), (1, 1, 1), [{0: 2}],
    ),
    # e0 = t0 with a 0 stored at t1 passes through, e1 = t0 - t1 joins,
    # and e0 reads t1 once the 0 is dropped
    "stored zero": (
        ChainComplex(ranks=(1, 2, 2), boundaries=(
            [{}], [{0: 1, 1: 0}, {0: 1, 1: -1}],
        )),
        (1, 1, 1), [{0: 1}],
    ),
    # e1 = t0 grounds t0, and e0 = 2 t0 then reads 0; d_1, which bounds
    # e0 - 2 e1, loses e1's column
    "column dropped": (
        rows_complex(2, 1, [[2], [1]], d1=[[1, -2]]), (1, 1, 0), [{}],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_hand_written_rows(name):
    cc, ranks, rows = CASES[name]
    before = copy.deepcopy(cc.boundaries)
    coforest = homology_module._coforest(cc, 2)
    assert cc.boundaries == before
    assert coforest.ranks == ranks
    assert coforest.boundary(2) == rows
    assert_chain_complex(coforest)
    for max_degree in range(3):
        assert_same_homology(cc, max_degree)
        assert homology_of_chain_complex(cc, max_degree) == (
            ref.reference_homology_of_chain_complex(cc, max_degree)
        )


def test_column_dropped_from_the_degree_below():
    cc, _, _ = CASES["column dropped"]
    coforest = homology_module._coforest(cc, 2)
    assert coforest.boundary(1) == [{0: 1}]


def test_rows_that_pair_nothing_leave_the_complex_itself():
    cc, _, _ = CASES["entry of two"]
    assert homology_module._coforest(cc, 2) is cc
