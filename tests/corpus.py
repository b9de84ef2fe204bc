"""Shared test corpus: standard complexes, groups, covers, and cocycle
generators used across the suite."""

from __future__ import annotations

import random

from cechfib import (
    build_complex,
    cech_nerve,
    coboundary_transform,
    cyclic_group,
    direct_product,
    enumerate_homs,
    from_homomorphism,
    star_cover,
    symmetric_group,
    trivial_group,
    Cochain0,
)

POINT = build_complex([["p"]])
EDGE = build_complex([["a", "b"]])
HOLLOW_TRIANGLE = build_complex([["a", "b"], ["b", "c"], ["a", "c"]])
FULL_TRIANGLE = build_complex([["a", "b", "c"]])
HEXAGON = build_complex(
    [[i, (i + 1) % 6] for i in range(6)]
)
BOUNDARY_3SIMPLEX = build_complex([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
FULL_3SIMPLEX = build_complex([[0, 1, 2, 3]])

# 6-vertex triangulation of the projective plane
RP2_SIX = build_complex(
    [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
     [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]
)

# 7-vertex triangulation of the torus (every pair of vertices is an edge)
TORUS_SEVEN = build_complex(
    [sorted([i, (i + 1) % 7, (i + 3) % 7]) for i in range(7)]
    + [sorted([i, (i + 2) % 7, (i + 3) % 7]) for i in range(7)]
)

TWO_COMPONENTS = build_complex([["a", "b"], ["c", "d"]])

SURFACES = {
    "hollow_triangle": HOLLOW_TRIANGLE,
    "rp2": RP2_SIX,
    "torus": TORUS_SEVEN,
    "boundary_3simplex": BOUNDARY_3SIMPLEX,
}

Z1 = trivial_group()
Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
Z4 = cyclic_group(4)
Z2xZ2 = direct_product(cyclic_group(2), cyclic_group(2))
S3 = symmetric_group(3)

GROUPS = {"z1": Z1, "z2": Z2, "z3": Z3, "z4": Z4, "z2xz2": Z2xZ2, "s3": S3}


_cover_cache = {}


def cached_star_cover(name):
    """Star cover plus nerve and presentation, computed once per base."""
    if name not in _cover_cache:
        base = SURFACES[name]
        cover = star_cover(base)
        nerve = cech_nerve(cover)
        _cover_cache[name] = (cover, nerve, nerve.presentation)
    return _cover_cache[name]


_hom_cache = {}


def cached_homs(name, group):
    key = (name, id(group))
    if key not in _hom_cache:
        _, _, presentation = cached_star_cover(name)
        _hom_cache[key] = enumerate_homs(presentation, group)
    return _hom_cache[key]


def random_cocycle(name, group, rng: random.Random):
    """Valid cocycle over a corpus star cover: random monodromy + gauge."""
    cover, nerve, _ = cached_star_cover(name)
    homs = cached_homs(name, group)
    images = homs[rng.randrange(len(homs))]
    cocycle = from_homomorphism(images, cover, group)
    gauge = Cochain0(
        cover, group,
        {idx: rng.randrange(group.order) for idx in cover.indices},
    )
    return coboundary_transform(cocycle, gauge)


def random_cocycle_instances(count, rng: random.Random):
    """Stream of (base name, group name, cocycle) across bases and groups."""
    combos = [
        ("hollow_triangle", "z2"), ("hollow_triangle", "s3"),
        ("hollow_triangle", "z4"), ("hollow_triangle", "z2xz2"),
        ("boundary_3simplex", "z2"), ("boundary_3simplex", "s3"),
        ("rp2", "z2"), ("rp2", "s3"), ("rp2", "z4"),
        ("torus", "z2"), ("torus", "s3"), ("torus", "z3"),
    ]
    out = []
    for i in range(count):
        base_name, group_name = combos[i % len(combos)]
        out.append(
            (base_name, group_name,
             random_cocycle(base_name, GROUPS[group_name], rng))
        )
    return out
