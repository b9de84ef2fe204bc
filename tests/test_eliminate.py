"""One unit elimination for every chain complex.

``homology_of_chain_complex`` runs ``_eliminate`` in every degree from
the bottom, and ``homology`` runs it after the spanning forest.  The
reference is the peel it replaced followed by full invariant factors
(``reference_homology``).  Pinned here: what reaches the Smith form for
bar complexes and 3-complexes, entries stored as 0 in hand-built rows,
input rows left as they were, and mapping cones.
"""

from __future__ import annotations

import copy
import functools
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    ChainComplex,
    SimplicialComplex,
    bar_homology,
    barycentric_subdivision,
    build_complex,
    cech_nerve,
    chain_complex_of,
    homology,
    homology_of_chain_complex,
    section_map,
    simplicial_chain_map,
    star_cover,
)
from cechfib.classifying import bar_construction
from cechfib.snf import sparse_multiply

import corpus
import reference_homology as ref

homology_module = importlib.import_module("cechfib.homology")

FAMILIES = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=0, max_size=8,
)


def with_zeros(cc: ChainComplex, seed: int) -> ChainComplex:
    """The same complex with entries stored as 0 added to its rows."""
    rng = random.Random(seed)
    boundaries = []
    for k, mat in enumerate(cc.boundaries):
        cols = cc.ranks[k + 1]
        rows = [dict(row) for row in mat]
        for row in rows:
            for _ in range(rng.randrange(3)):
                j = rng.randrange(cols)
                row.setdefault(j, 0)
        boundaries.append(rows)
    return ChainComplex(ranks=cc.ranks, boundaries=tuple(boundaries))


def assert_is_chain_complex(cc: ChainComplex) -> None:
    for k in range(1, len(cc.ranks) - 1):
        assert not any(
            v for row in sparse_multiply(cc.boundary(k), cc.boundary(k + 1))
            for v in row.values()
        )


@given(FAMILIES, st.integers(0, 2**32), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_explicit_zero_entries_change_nothing(a, seed, max_degree):
    x = build_complex(a)
    cc = chain_complex_of(x)
    want = homology(x, max_degree)
    for plain in (cc, ref.augmented(cc)) if cc.rank(0) else (cc,):
        zeros = with_zeros(plain, seed)
        before = copy.deepcopy(zeros.boundaries)
        got = homology_of_chain_complex(zeros, max_degree)
        assert got == homology_of_chain_complex(plain, max_degree)
        assert got == ref.reference_homology_of_chain_complex(plain, max_degree)
        assert zeros.boundaries == before
        assert_is_chain_complex(
            homology_module._eliminate(zeros, len(zeros.ranks) - 1)
        )
    assert homology_of_chain_complex(with_zeros(cc, seed), max_degree) == want


def record_smith_shapes(monkeypatch) -> list:
    seen = []
    smith = homology_module.sparse_smith_form

    def record(rows, shape, **kwargs):
        seen.append(shape)
        return smith(rows, shape, **kwargs)

    monkeypatch.setattr(homology_module, "sparse_smith_form", record)
    return seen


@pytest.mark.parametrize("name,max_degree,shapes", [
    ("s3", 2, [(1, 1)]),
    ("z4", 3, [(1, 1), (1, 61)]),
])
def test_bar_complexes_leave_small_smith_forms(name, max_degree, shapes, monkeypatch):
    group = corpus.GROUPS[name]
    bar = bar_construction(group, max_degree + 1).complex
    want = ref.reference_homology_of_chain_complex(bar, max_degree)
    seen = record_smith_shapes(monkeypatch)
    assert bar_homology(group, max_degree) == want
    assert seen == shapes


@functools.lru_cache(maxsize=None)
def subdivided(name: str, k: int) -> SimplicialComplex:
    if k == 0:
        return {
            "sphere": build_complex(
                [[v for v in range(5) if v != drop] for drop in range(5)]
            ),
            "simplex": corpus.FULL_3SIMPLEX,
        }[name]
    return barycentric_subdivision(subdivided(name, k - 1))[0]


@pytest.mark.parametrize("name,k,residue", [
    ("sphere", 0, (1, 0, 0, 1)),
    ("sphere", 1, (1, 0, 0, 1)),
    ("sphere", 2, (1, 0, 0, 1)),
    ("simplex", 1, (1, 0, 0, 0)),
    ("simplex", 2, (1, 0, 0, 0)),
])
def test_three_complexes_leave_no_tetrahedra(name, k, residue, monkeypatch):
    # every triangle of the forest's residue pairs with a tetrahedron or
    # an edge, so nothing reaches the Smith form
    x = subdivided(name, k)
    cc = chain_complex_of(x)
    assert homology_module._eliminate(homology_module._forest(cc), 3).ranks == residue
    seen = record_smith_shapes(monkeypatch)
    assert homology(x).betti_numbers() == residue
    assert seen == []


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
@pytest.mark.parametrize("k", [0, 1])
def test_mapping_cones_match_the_peel(name, k):
    x = barycentric_subdivision(corpus.SURFACES[name])[0] if k else corpus.SURFACES[name]
    cover = star_cover(x)
    f = section_map(cover, cech_nerve(cover))
    for max_degree in range(3):
        src, tgt = (
            chain_complex_of(y, min(max_degree + 1, y.dim))
            for y in (f.source, f.target)
        )
        cone = homology_module._mapping_cone(
            src, tgt, simplicial_chain_map(f, max_degree), max_degree + 1
        )
        got = homology_of_chain_complex(cone, max_degree)
        assert got == ref.reference_homology_of_chain_complex(cone, max_degree)
        assert all(g.betti == 0 and not g.torsion for g in got.groups)
