import pytest

from cechfib import (
    ValidationError,
    barycentric_subdivision,
    build_complex,
    build_cover,
    carrier_check,
    cech_nerve,
    closed_star_cover,
    disjoint_union_cover,
    homology,
    is_good_cover,
    map_induces_homology_isomorphism,
    one_part_cover,
    section_map,
    star_cover,
)

import corpus


def test_cover_requires_subcomplex_parts():
    other = build_complex([["x", "y"]])
    with pytest.raises(ValidationError):
        build_cover(corpus.HOLLOW_TRIANGLE, {"A": other})


def test_cover_union_must_be_base():
    with pytest.raises(ValidationError) as err:
        build_cover(
            corpus.EDGE,
            {"A": build_complex([["a"]]), "B": build_complex([["b"]])},
        )
    assert "uncovered" in str(err.value)


def test_star_cover_point():
    cover = star_cover(corpus.POINT)
    assert len(cover.indices) == 1
    nerve = cech_nerve(cover)
    assert len(nerve.complex.vertices) == 1


def test_star_cover_hollow_triangle_parts_are_two_edge_paths():
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    assert cover.indices == ("a", "b", "c")
    for part in cover.parts.values():
        assert part.simplex_count(1) == 2
        assert len(part.vertices) == 3


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_star_cover_nerve_reproduces_base(name):
    x = corpus.SURFACES[name]
    nerve = cech_nerve(star_cover(x))
    assert nerve.complex == x


def test_nerve_witnesses_match_invariant():
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    nerve = cech_nerve(cover)
    pair_keys = [k for k in nerve.witnesses if len(k) == 2]
    assert sorted(pair_keys) == [("a", "b"), ("a", "c"), ("b", "c")]
    assert all(len(k) < 3 for k in nerve.witnesses)
    for key, witness in nerve.witnesses.items():
        assert not witness.is_empty()


def test_one_part_cover_nerve_is_point():
    nerve = cech_nerve(one_part_cover(corpus.FULL_TRIANGLE))
    assert len(nerve.complex.vertices) == 1
    assert is_good_cover(one_part_cover(corpus.FULL_TRIANGLE)).good


def test_nerve_vertex_count_equals_nonempty_parts():
    cover = star_cover(corpus.BOUNDARY_3SIMPLEX)
    nerve = cech_nerve(cover)
    nonempty = sum(1 for p in cover.parts.values() if not p.is_empty())
    assert len(nerve.complex.vertices) == nonempty


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_star_cover_is_good(name):
    assert is_good_cover(star_cover(corpus.SURFACES[name])).good


def test_two_arc_cover_is_not_good():
    square = build_complex([["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]])
    arcs = build_cover(
        square,
        {
            "A": build_complex([["a", "b"], ["b", "c"]]),
            "B": build_complex([["c", "d"], ["a", "d"]]),
        },
    )
    report = is_good_cover(arcs)
    assert not report.good
    assert report.failures[0][0] == ("A", "B")


def test_carrier_check_star_cover_true():
    for name in corpus.SURFACES:
        assert carrier_check(star_cover(corpus.SURFACES[name]))


def test_carrier_check_fails_without_edge_coverage():
    bad = build_cover(
        corpus.EDGE,
        {"A": build_complex([["a"]]), "B": build_complex([["b"]])},
        check_union=False,
    )
    assert not carrier_check(bad)
    assert not bad.union_is_base()


def test_section_map_one_part_cover_is_constant():
    cover = one_part_cover(corpus.FULL_TRIANGLE)
    section = section_map(cover)
    assert set(section.vertex_map.values()) == {"U0"}


def test_section_map_structurally_valid_everywhere():
    for name in corpus.SURFACES:
        cover = star_cover(corpus.SURFACES[name])
        section = section_map(cover)
        sd, _ = barycentric_subdivision(cover.base)
        assert section.source == sd


@pytest.mark.parametrize("name", ["hollow_triangle", "boundary_3simplex"])
def test_section_map_induces_homology_isomorphism(name):
    x = corpus.SURFACES[name]
    cover = star_cover(x)
    section = section_map(cover)
    assert map_induces_homology_isomorphism(section, max(x.dim, 0))


def test_section_map_requires_carrier():
    bad = build_cover(
        corpus.EDGE,
        {"A": build_complex([["a"]]), "B": build_complex([["b"]])},
        check_union=False,
    )
    with pytest.raises(ValidationError, match=(
            "^carrier condition fails: some base simplex lies in no part$")):
        section_map(bad)


def scanned_vertex_map(cover):
    """Least covering index of each subdivision vertex by scanning the
    parts in index order: the reference for ``section_map``."""
    sd, carrier = barycentric_subdivision(cover.base)
    return {
        v: next(idx for idx in cover.indices
                if cover.parts[idx].has_simplex(carrier[v]))
        for v in sd.vertices
    }


def _section_covers():
    for name, x in corpus.SURFACES.items():
        yield pytest.param(lambda x=x: star_cover(x), id=f"star-{name}")
        yield pytest.param(lambda x=x: closed_star_cover(x), id=f"closed-star-{name}")
    for name in ("torus", "rp2"):
        once = barycentric_subdivision(corpus.SURFACES[name])[0]
        yield pytest.param(lambda x=once: star_cover(x), id=f"star-{name}-rung1")


@pytest.mark.parametrize("make_cover", list(_section_covers()))
def test_section_map_matches_the_scan(make_cover):
    cover = make_cover()
    assert section_map(cover).vertex_map == scanned_vertex_map(cover)


def test_disjoint_union_requires_same_base():
    with pytest.raises(ValidationError):
        disjoint_union_cover(
            star_cover(corpus.HOLLOW_TRIANGLE), star_cover(corpus.FULL_TRIANGLE)
        )


def test_disjoint_union_of_one_part_with_itself_gives_edge():
    cover = one_part_cover(corpus.FULL_TRIANGLE)
    union = disjoint_union_cover(cover, cover)
    assert len(union.indices) == 2
    nerve = cech_nerve(union)
    assert nerve.complex.simplex_count(1) == 1


def test_disjoint_union_part_count_adds():
    u = star_cover(corpus.HOLLOW_TRIANGLE)
    v = one_part_cover(u.base)
    union = disjoint_union_cover(u, v)
    assert len(union.indices) == len(u.indices) + len(v.indices)
    # all u-tags precede all v-tags in the combined order
    tags = [idx[0] for idx in union.indices]
    assert tags == sorted(tags)


def test_star_union_one_part_is_cone():
    u = star_cover(corpus.FULL_TRIANGLE)
    v = one_part_cover(u.base)
    nerve = cech_nerve(disjoint_union_cover(u, v))
    assert len(nerve.complex.vertices) == 4
    result = homology(nerve.complex)
    assert result.group(0).betti == 1
    assert all(result.group(k).betti == 0 for k in range(1, nerve.complex.dim + 1))


def test_disjoint_union_symmetric_up_to_relabeling():
    u = star_cover(corpus.HOLLOW_TRIANGLE)
    v = closed_star_cover(u.base)
    ab = cech_nerve(disjoint_union_cover(u, v)).complex
    ba = cech_nerve(disjoint_union_cover(v, u)).complex
    swap = {("0", i): ("1", i) for i in u.indices}
    swap.update({("1", i): ("0", i) for i in v.indices})
    relabeled = frozenset(
        frozenset(swap[x] for x in s) for s in ab.simplices
    )
    assert relabeled == ba.simplices


def test_closed_star_cover_of_circle_parts_are_arcs():
    cover = closed_star_cover(corpus.HEXAGON)
    assert len(cover.indices) == 6
    for part in cover.parts.values():
        assert part.simplex_count(1) == 2
