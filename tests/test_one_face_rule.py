"""The bar construction reads one face rule, and the answers stay the same.

``bar_construction``, ``universal_bundle`` and
``classifying_map_is_simplicial`` all read ``classifying._faces``.  The
versions in ``reference_transitions``, which each write the face maps
out themselves, are the oracle: the chains and boundaries (dict key
order included) and every simpliciality verdict must be equal.
"""

from __future__ import annotations

import random

import pytest

from cechfib import (
    bar_construction,
    classifying_map,
    classifying_map_is_simplicial,
    star_cover,
    symmetric_group,
    universal_bundle,
)
from cechfib.classifying import ClassifyingMap, _faces
from cechfib.cocycles import Cocycle1, monodromy_representatives

import corpus
import reference_transitions as reference


S4 = symmetric_group(4)
GROUPS = {"z2": corpus.Z2, "z3": corpus.Z3, "z4": corpus.Z4,
          "s3": corpus.S3, "z2xz2": corpus.Z2xZ2, "s4": S4}
GRID = [(name, t) for name in GROUPS for t in range(3 if name == "s4" else 5)]


@pytest.mark.parametrize("name, truncation", GRID)
def test_bar_construction_matches_reference(name, truncation):
    group = GROUPS[name]
    got = bar_construction(group, truncation)
    want = reference.bar_construction(group, truncation)
    assert got == want
    assert repr(got) == repr(want)


@pytest.mark.parametrize("name, truncation", [(n, t) for n, t in GRID if t >= 1])
def test_universal_bundle_matches_reference(name, truncation):
    group = GROUPS[name]
    got = universal_bundle(group, truncation)
    want = reference.universal_bundle(group, truncation)
    assert got == want
    assert repr(got) == repr(want)


def test_faces_of_a_three_chain_in_s3():
    """Neighbours compose left to right: S3 is not abelian, so the
    reversed product would give other middle faces."""
    s3 = corpus.S3
    a, b, c = 1, 3, 4
    assert s3.mul(a, b) != s3.mul(b, a)
    assert _faces(s3, (a, b, c)) == [
        (b, c), (s3.mul(a, b), c), (a, s3.mul(b, c)), (a, b),
    ]
    assert _faces(s3, (a,)) == [(), ()]


def representatives():
    """The monodromy representatives of the torus, RP^2 and circle star
    covers into Z2 and S3."""
    out = []
    for base in ("torus", "rp2", "hollow_triangle"):
        cover = star_cover(corpus.SURFACES[base])
        for group in (corpus.Z2, corpus.S3):
            _, reps = monodromy_representatives(cover, group)
            out.extend((f"{base}-{group.order}-{i}", rep) for i, rep in enumerate(reps))
    return out


REPRESENTATIVES = representatives()


def perturbed(cmap: ClassifyingMap, rng: random.Random) -> ClassifyingMap:
    """One seeded change: a simplex's image replaced by a bar chain of a
    degree no higher than its own, or one edge value of the cocycle
    changed, with the images rebuilt from it (so only inner faces can
    break)."""
    cocycle = cmap.cocycle
    if rng.random() < 0.5:
        simplex = rng.choice(sorted(cmap.images, key=repr))
        degree = rng.randrange(len(simplex))
        images = dict(cmap.images)
        images[simplex] = rng.choice(cmap.bar.chains[degree])
        return cmap._replace(images=images)
    values = dict(cocycle.values)
    pair = rng.choice(sorted(values, key=repr))
    values[pair] = rng.randrange(cocycle.group.order)
    return classifying_map(Cocycle1(cocycle.cover, cocycle.group, values))


@pytest.mark.parametrize("name, rep", REPRESENTATIVES, ids=[n for n, _ in REPRESENTATIVES])
def test_classifying_map_is_simplicial_matches_reference(name, rep):
    rng = random.Random(name)
    cmap = classifying_map(rep)
    assert classifying_map_is_simplicial(cmap) is True
    assert reference.classifying_map_is_simplicial(cmap) is True
    verdicts = []
    for _ in range(20):
        other = perturbed(cmap, rng)
        verdict = classifying_map_is_simplicial(other)
        assert verdict is reference.classifying_map_is_simplicial(other)
        verdicts.append(verdict)
    # every edge's faces are the empty chain, so a map from the circle's
    # nerve, which has no triangle, stays simplicial however it changes
    assert (False in verdicts) == (rep.nerve.complex.dim >= 2)
