"""Eliminated homology against the unreduced Smith form.

``homology_of_chain_complex`` eliminates unit pairs in every degree
before any Smith form runs.  The reference here is the computation with
no elimination: invariant factors of every full boundary.  The file is
named for the peel of free faces and coreductions that the elimination
replaced, kept as ``reference_homology.reference_peel``.  The
elimination also runs over the augmentation C_0 -> Z
(``reference_homology.augmented``), where degree 0 has cofaces.
"""

from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    SimplicialComplex,
    bar_homology,
    barycentric_subdivision,
    build_complex,
    chain_complex_of,
    homology,
    homology_of_chain_complex,
    is_point_like,
    sparse_smith_form,
)
from cechfib.classifying import bar_construction
from cechfib.snf import sparse_multiply

import corpus
import reference_homology as ref

homology_module = importlib.import_module("cechfib.homology")


def unpeeled_homology(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Homology from the invariant factors of every full boundary."""
    ranks_of = {}
    torsion_of = {}
    for k in range(1, max_degree + 2):
        if cc.rank(k) == 0 or cc.rank(k - 1) == 0:
            factors = ()
        else:
            form = sparse_smith_form(
                cc.boundary(k), (cc.rank(k - 1), cc.rank(k)),
                want_left=False,
            )
            factors = tuple(d for d in form.diagonal if d)
        ranks_of[k] = len(factors)
        torsion_of[k] = tuple(d for d in factors if d > 1)
    groups = []
    for k in range(max_degree + 1):
        betti = cc.rank(k) - ranks_of.get(k, 0) - ranks_of.get(k + 1, 0)
        groups.append(HomologyGroup(betti, torsion_of.get(k + 1, ())))
    return HomologyResult(groups=tuple(groups))


def unpeeled_simplicial(x: SimplicialComplex, max_degree: int) -> HomologyResult:
    cc = chain_complex_of(x, min(max_degree + 1, max(x.dim, 0)))
    return unpeeled_homology(cc, max_degree)


def assert_peel_agrees(x: SimplicialComplex, max_degree: int) -> None:
    want = unpeeled_simplicial(x, max_degree)
    assert homology(x, max_degree) == want
    # the same complex with the elimination alone, no forest
    cc = chain_complex_of(x, min(max_degree + 1, max(x.dim, 0)))
    assert homology_of_chain_complex(cc, max_degree) == want


def assert_residue_is_chain_complex(cc: ChainComplex, top: int) -> None:
    residue = homology_module._eliminate(cc, top)
    assert len(residue.ranks) == top + 1
    for k in range(1, top):
        product = sparse_multiply(residue.boundary(k), residue.boundary(k + 1))
        assert not any(product)


CORPUS = {
    name: value for name, value in vars(corpus).items()
    if isinstance(value, SimplicialComplex)
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_peel_matches_unpeeled_on_corpus(name):
    x = CORPUS[name]
    for max_degree in range(x.dim + 3):
        assert_peel_agrees(x, max_degree)


_rungs = {}


def rung(surface: str, k: int) -> SimplicialComplex:
    if (surface, k) not in _rungs:
        if k == 0:
            _rungs[surface, k] = corpus.SURFACES[surface]
        else:
            _rungs[surface, k] = barycentric_subdivision(rung(surface, k - 1))[0]
    return _rungs[surface, k]


@pytest.mark.parametrize("surface", ["rp2", "torus"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_peel_matches_unpeeled_on_subdivided_surfaces(surface, k):
    x = rung(surface, k)
    for max_degree in (0, 1, 2, 3):
        assert_peel_agrees(x, max_degree)
    augmented = ref.augmented(chain_complex_of(x))
    assert_residue_is_chain_complex(augmented, x.dim + 1)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "s3", "z2xz2"])
def test_peel_matches_unpeeled_on_bar_complexes(name):
    group = corpus.GROUPS[name]
    for max_degree in range(4):
        bar = bar_construction(group, max_degree + 1).complex
        want = unpeeled_homology(bar, max_degree)
        assert bar_homology(group, max_degree) == want
        assert_residue_is_chain_complex(bar, max_degree + 1)


FAMILIES = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
    min_size=0, max_size=8,
)


@given(FAMILIES, FAMILIES, st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_peel_matches_unpeeled_on_generated_complexes(a, b, max_degree):
    # b on its own vertices: disconnected whenever both parts are nonempty
    x = build_complex(a + [[v + 10 for v in s] for s in b])
    assert_peel_agrees(x, max_degree)
    top = max(x.dim, 0)
    point_groups = HomologyResult(
        (HomologyGroup(1, ()),) + (HomologyGroup(0, ()),) * top
    )
    point = not x.is_empty() and unpeeled_simplicial(x, top) == point_groups
    assert is_point_like(x) == point


@given(FAMILIES, st.integers(0, 2**32), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_peel_keeps_non_unit_entries(a, seed, max_degree):
    # Scaling the boundary of a cell with no cofaces keeps d^2 = 0 and
    # puts entries other than +-1 (and torsion) in front of the
    # elimination.
    x = build_complex(a)
    cc = chain_complex_of(x)
    rng = random.Random(seed)
    boundaries = [[dict(row) for row in mat] for mat in cc.boundaries]
    for k in range(1, len(cc.ranks)):
        cofaced = {j for j, row in enumerate(cc.boundary(k + 1)) if row}
        for j in range(cc.rank(k)):
            if j not in cofaced and rng.random() < 0.5:
                factor = rng.choice([-3, -2, 2, 3, 4])
                for row in boundaries[k - 1]:
                    if j in row:
                        row[j] *= factor
    scaled = ChainComplex(ranks=cc.ranks, boundaries=tuple(boundaries))
    want = unpeeled_homology(scaled, max_degree)
    assert homology_of_chain_complex(scaled, max_degree) == want
    augmented = ref.augmented(scaled) if cc.rank(0) else scaled
    assert_residue_is_chain_complex(augmented, len(augmented.ranks) - 1)


def test_empty_complex():
    empty = build_complex([])
    for max_degree in range(3):
        assert_peel_agrees(empty, max_degree)
        assert homology(empty, max_degree).betti_numbers() == (0,) * (
            max_degree + 1)
    assert not is_point_like(empty)


def test_star_cover_witnesses_peel_without_a_smith_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Smith form ran on a star-cover witness")

    _, nerve, _ = corpus.cached_star_cover("torus")
    monkeypatch.setattr(homology_module, "sparse_smith_form", refuse)
    assert all(is_point_like(w) for w in nerve.witnesses.values())


def test_closed_surfaces_peel_only_after_the_forest_and_cotree():
    # no free face and no coreduction on the surface itself, so the peel
    # the elimination replaced removes nothing
    x = rung("torus", 1)
    cc = chain_complex_of(x)
    assert ref.reference_peel(cc, x.dim).ranks == cc.ranks
    # the forest and one elimination leave one vertex, two edges and one
    # triangle, all of zero boundary, as the forest and cotree did
    residue = homology_module._eliminate(homology_module._forest(cc), x.dim)
    assert residue.ranks == ref.reference_forest_cotree(cc).ranks == (1, 2, 1)
    assert not any(residue.boundary(1)) and not any(residue.boundary(2))
    assert homology_module._eliminate(residue, x.dim).ranks == (1, 2, 1)
