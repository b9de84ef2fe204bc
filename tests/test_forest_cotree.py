"""Forest and unit eliminations against the augmented peel and sympy.

``homology`` shrinks a simplicial chain complex before any Smith form: a
spanning forest of the 1-skeleton leaves one vertex per component and
d_1 = 0, then each remaining cell, degree by degree, is eliminated
against a coface with entry +-1 (for edges, the cotree).  The
references are the path this replaced, the peel over the augmentation
C_0 -> Z (``reference_homology``), and sympy's Smith forms of the full
dense boundaries.
"""

from __future__ import annotations

import functools
import importlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cechfib import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    build_complex,
    cech_nerve,
    chain_complex_of,
    connected_components,
    homology,
    homology_of_chain_complex,
    map_induces_homology_isomorphism,
    section_map,
    star_cover,
)
from cechfib.snf import sparse_multiply
from dense import dense

import corpus
import reference_homology as ref

homology_module = importlib.import_module("cechfib.homology")


def sympy_homology(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Homology from sympy's invariant factors of every dense boundary."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    factors_of = {}
    for k in range(1, max_degree + 2):
        m, n = cc.rank(k - 1), cc.rank(k)
        factors = ()
        if m and n:
            s = smith_normal_form(sympy.Matrix(dense(cc.boundary(k), n)))
            factors = tuple(abs(s[i, i]) for i in range(min(m, n)) if s[i, i])
        factors_of[k] = factors
    groups = []
    for k in range(max_degree + 1):
        below, above = factors_of.get(k, ()), factors_of.get(k + 1, ())
        betti = cc.rank(k) - len(below) - len(above)
        groups.append(HomologyGroup(
            betti, tuple(sorted(int(d) for d in above if d > 1))
        ))
    return HomologyResult(groups=tuple(groups))


def truncated(x: SimplicialComplex, max_degree: int) -> ChainComplex:
    """The chain complex ``homology`` builds for this degree."""
    return chain_complex_of(x, min(max_degree + 1, max(x.dim, 0)))


def reduced(cc: ChainComplex) -> ChainComplex:
    """What the Smith form sees: the forest, then the elimination in every
    degree of the complex."""
    return homology_module._eliminate(
        homology_module._forest(cc), len(cc.ranks) - 1
    )


def assert_residue_is_reduced(x: SimplicialComplex, cc: ChainComplex) -> None:
    """One vertex per component, d_1 = 0, and d^2 = 0 on the rest."""
    residue = reduced(cc)
    assert len(residue.ranks) == len(cc.ranks)
    assert residue.rank(0) == len(connected_components(x))
    if len(cc.ranks) > 1:
        assert not any(residue.boundary(1))
    for k in range(1, len(residue.ranks) - 1):
        product = sparse_multiply(residue.boundary(k), residue.boundary(k + 1))
        assert not any(product)
    assert all(r <= c for r, c in zip(residue.ranks, cc.ranks))


def assert_matches_references(x: SimplicialComplex, max_degree: int,
                              with_sympy: bool = False) -> None:
    cc = truncated(x, max_degree)
    got = homology(x, max_degree)
    assert got == ref.augmented_simplicial_homology(cc, max_degree)
    if with_sympy:
        assert got == sympy_homology(cc, max_degree)
    assert_residue_is_reduced(x, cc)


def disjoint(a, b) -> SimplicialComplex:
    """``a`` and ``b`` on their own vertices: disconnected when both are
    nonempty."""
    return build_complex(a + [[v + 10 for v in s] for s in b])


FAMILIES = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=0, max_size=8,
)
SMALL_FAMILIES = st.lists(
    st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
    min_size=0, max_size=4,
)
# two solid tetrahedra on a shared triangle and a hollow one beside them
TETRAHEDRA = [[0, 1, 2, 3], [1, 2, 3, 4]]
HOLLOW = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


@given(FAMILIES, FAMILIES, st.integers(0, 4))
@example(TETRAHEDRA, HOLLOW, 3)
@example(TETRAHEDRA, HOLLOW, 2)
@settings(max_examples=150, deadline=None)
def test_generated_complexes_match_the_augmented_peel(a, b, max_degree):
    assert_matches_references(disjoint(a, b), max_degree)


@given(SMALL_FAMILIES, SMALL_FAMILIES, st.integers(0, 3))
@example(TETRAHEDRA, HOLLOW, 3)
@settings(max_examples=40, deadline=None)
def test_generated_complexes_match_sympy(a, b, max_degree):
    assert_matches_references(disjoint(a, b), max_degree, with_sympy=True)


def test_three_dimensional_complexes_drop_paired_rows_of_d3():
    # the boundary of the 4-simplex is a 3-sphere: every triangle lies in
    # two tetrahedra, so edges pair with triangles that d_3 has rows for
    sphere = build_complex(
        [[v for v in range(5) if v != drop] for drop in range(5)]
    )
    for x in (sphere, barycentric_subdivision(sphere)[0],
              disjoint(TETRAHEDRA, HOLLOW)):
        cc = chain_complex_of(x)
        residue = reduced(cc)
        assert residue.rank(2) < cc.rank(2)
        assert len(residue.boundary(3)) == residue.rank(2)
        for max_degree in range(5):
            assert_matches_references(x, max_degree)
    assert homology(sphere).betti_numbers() == (1, 0, 0, 1)


@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_empty_and_vertex_only_complexes(max_degree):
    empty = build_complex([])
    assert reduced(truncated(empty, max_degree)).ranks == (0,)
    assert_matches_references(empty, max_degree, with_sympy=True)
    points = build_complex([["a"], ["b"], ["c"]])
    assert reduced(truncated(points, max_degree)).ranks == (3,)
    assert_matches_references(points, max_degree, with_sympy=True)
    assert homology(points, max_degree).group(0) == HomologyGroup(3, ())


CORPUS = {
    name: value for name, value in vars(corpus).items()
    if isinstance(value, SimplicialComplex)
}


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("max_degree", [0, 1])
def test_truncated_chain_complexes_match_the_references(name, max_degree):
    x = CORPUS[name]
    assert len(truncated(x, max_degree).ranks) == min(max_degree + 2, max(x.dim, 0) + 1)
    assert_matches_references(x, max_degree, with_sympy=True)


@functools.lru_cache(maxsize=None)
def rung(name: str, k: int) -> SimplicialComplex:
    if k == 0:
        return corpus.SURFACES[name]
    return barycentric_subdivision(rung(name, k - 1))[0]


@pytest.mark.parametrize("surface", ["rp2", "torus"])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_subdivided_surfaces_match_the_references(surface, k):
    x = rung(surface, k)
    for max_degree in ((0, 1, 2, 3) if k < 3 else (2,)):
        assert_matches_references(x, max_degree, with_sympy=k == 0)


SURFACE_GROUPS = {
    "torus": HomologyResult((HomologyGroup(1, ()), HomologyGroup(2, ()),
                             HomologyGroup(1, ()))),
    "rp2": HomologyResult((HomologyGroup(1, ()), HomologyGroup(0, (2,)),
                           HomologyGroup(0, ()))),
}


@pytest.mark.parametrize("surface,residue,shapes", [
    ("torus", (1, 2, 1), []),
    ("rp2", (1, 1, 1), [(1, 1)]),
])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_closed_surfaces_leave_a_vertex_2_minus_chi_edges_and_a_triangle(
        surface, residue, shapes, k, monkeypatch):
    # one vertex, 2 - chi edges and one triangle: the torus's boundaries
    # are zero, and RP^2's Z/2 is the one 1x1 Smith form
    x = rung(surface, k)
    cc = chain_complex_of(x)
    assert reduced(cc).ranks == ref.reference_forest_cotree(cc).ranks == residue
    seen = []
    smith = homology_module.sparse_smith_form

    def record(rows, shape, **kwargs):
        seen.append(shape)
        return smith(rows, shape, **kwargs)

    monkeypatch.setattr(homology_module, "sparse_smith_form", record)
    assert homology(x) == SURFACE_GROUPS[surface]
    assert seen == shapes


def _collapse(x: SimplicialComplex) -> SimplicialMap:
    """Every vertex to one point: a homology isomorphism only for an
    acyclic connected ``x``."""
    return SimplicialMap(x, corpus.POINT, {v: "p" for v in x.vertices})


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
@pytest.mark.parametrize("k", [0, 1])
def test_isomorphism_verdicts_match_the_augmented_peel(name, k):
    # both sides' groups against the augmented peel, and every verdict
    # against the reference check, whose source groups come from it
    cover = star_cover(rung(name, k))
    maps = [section_map(cover, cech_nerve(cover)), _collapse(rung(name, k))]
    degrees = range(4) if k == 0 else (1, 2)
    verdicts = [
        [map_induces_homology_isomorphism(f, n) for n in degrees] for f in maps
    ]
    assert all(verdicts[0])
    for f in maps:
        for n in degrees:
            for x in (f.source, f.target):
                cc = truncated(x, n)
                assert homology_of_chain_complex(cc, n) == (
                    ref.augmented_simplicial_homology(cc, n)
                )
    assert verdicts == [
        [ref.map_induces_homology_isomorphism(f, n) for n in degrees]
        for f in maps
    ]
