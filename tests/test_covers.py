import gc
import json
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    Cover,
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    abelian_coefficients,
    barycentric_subdivision,
    build_complex,
    cech_nerve,
    cli,
    closed_star_cover,
    disjoint_union_cover,
    enumerate_homs,
    from_homomorphism,
    homology,
    is_good_cover,
    map_induces_homology_isomorphism,
    one_part_cover,
    regular_action,
    section_map,
    star_cover,
    symmetric_group,
    total_space,
    trivial_cocycle,
    validate_cocycle,
    validate_gerbe_cocycle,
)
from cechfib import io as docio

import corpus
import reference_checks


def test_cover_requires_subcomplex_parts():
    other = build_complex([["x", "y"]])
    with pytest.raises(ValidationError):
        Cover(corpus.HOLLOW_TRIANGLE, {"A": other})


def test_cover_union_must_be_base():
    with pytest.raises(ValidationError) as err:
        Cover(
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
    arcs = Cover(
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
        assert reference_checks.carrier_check(star_cover(corpus.SURFACES[name]))


def test_carrier_check_fails_without_edge_coverage():
    parts = {"A": build_complex([["a"]]), "B": build_complex([["b"]])}
    family = SimpleNamespace(base=corpus.EDGE, parts=parts)
    assert not reference_checks.carrier_check(family)
    with pytest.raises(ValidationError, match="^parts do not cover the base"):
        Cover(corpus.EDGE, parts)


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


CORPUS = {
    name: value for name, value in vars(corpus).items()
    if isinstance(value, SimplicialComplex)
}


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("make_cover", [star_cover, closed_star_cover])
def test_unchecked_section_map_equals_the_checked_construction(name, make_cover):
    # section_map builds its map unchecked; the checked constructor
    # accepts the same vertex map and learns the same facts about it
    cover = make_cover(CORPUS[name])
    section = section_map(cover)
    sd, _ = barycentric_subdivision(cover.base)
    checked = SimplicialMap(sd, cover.nerve.complex, {
        v: min(i for i in cover.indices if cover.parts[i].has_simplex(v))
        for v in sd.vertices
    })
    assert section.source == checked.source
    assert section.target is checked.target
    assert section.vertex_map == checked.vertex_map
    assert section._top_images() == checked._top_images()
    assert section._keeps_dimensions() == checked._keeps_dimensions()


@pytest.mark.parametrize("name", ["hollow_triangle", "boundary_3simplex"])
def test_section_map_induces_homology_isomorphism(name):
    x = corpus.SURFACES[name]
    cover = star_cover(x)
    section = section_map(cover)
    assert map_induces_homology_isomorphism(section, max(x.dim, 0))


def test_a_foreign_nerve_cannot_be_paired_with_a_cover():
    abc = star_cover(corpus.HOLLOW_TRIANGLE)
    xyz = star_cover(build_complex([["x", "y"], ["x", "z"], ["y", "z"]]))
    values = {pair: 0 for pair in cech_nerve(xyz).keys(2)}
    with pytest.raises(TypeError):
        validate_cocycle(abc, corpus.Z2, values, nerve=cech_nerve(xyz))
    with pytest.raises(ValidationError, match="^missing value for overlapping pair"):
        validate_cocycle(abc, corpus.Z2, values)
    with pytest.raises(ValidationError, match="nerve of another cover"):
        section_map(abc, cech_nerve(xyz))
    # an equal cover is another cover, with a nerve of its own
    with pytest.raises(ValidationError, match="nerve of another cover"):
        section_map(abc, cech_nerve(star_cover(corpus.HOLLOW_TRIANGLE)))


def test_one_star_cover_has_one_nerve(tmp_path, monkeypatch):
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    nerve = cech_nerve(cover)
    assert cech_nerve(cover) is nerve and cover.nerve is nerve
    zeros = {pair: 0 for pair in nerve.keys(2)}
    cocycles = [
        validate_cocycle(cover, corpus.Z2, zeros),
        trivial_cocycle(cover, corpus.Z2),
        from_homomorphism((1,), cover, corpus.Z2),
        validate_gerbe_cocycle(cover, abelian_coefficients(corpus.Z2), zeros,
                               {t: 0 for t in nerve.keys(3)}),
    ]
    assert all(c.nerve is nerve for c in cocycles)
    assert section_map(cover).target is nerve.complex
    assert section_map(cover, nerve).target is nerve.complex

    # cocycle-equiv over documents that load as this cover; the second
    # cover document differs as JSON, so it is parsed and found equal
    pairs = []
    monkeypatch.setattr(docio, "cover_from_doc", lambda doc: cover)
    real = cli.are_equivalent
    monkeypatch.setattr(cli, "are_equivalent",
                        lambda c1, c2, **kw: pairs.append((c1, c2)) or real(c1, c2, **kw))
    docs = []
    for name, cover_doc in (("c1.json", {"first": True}), ("c2.json", {"second": True})):
        path = tmp_path / name
        path.write_text(json.dumps({
            "cover": cover_doc, "group": docio.group_to_doc(corpus.Z2),
            "values": {"a|b": 0, "a|c": 1, "b|c": 0}}), encoding="utf-8")
        docs.append(str(path))
    assert cli.main(["cocycle-equiv", "--input", *docs,
                     "--output", str(tmp_path / "report.json")]) == cli.EXIT_TRUE
    (c1, c2), = pairs
    assert c1.nerve is nerve and c2.nerve is nerve


def test_a_dropped_cover_frees_its_nerve():
    # the nerve keeps no reference back to its cover, so reference
    # counting alone frees both once the cover is dropped
    gc.disable()
    try:
        cover = star_cover(corpus.HOLLOW_TRIANGLE)
        trivial_cocycle(cover, corpus.Z2)
        assert is_good_cover(cover).good
        nerve = weakref.ref(cover.nerve)
        del cover
        assert nerve() is None
    finally:
        gc.enable()


def _subdivide_the_torus_three_times():
    x = corpus.TORUS_SEVEN
    for _ in range(3):
        x, _ = barycentric_subdivision(x)


def _enumerate_torus_homs():
    presentation = star_cover(corpus.TORUS_SEVEN).nerve.presentation
    enumerate_homs(presentation, symmetric_group(3))


def _write_a_bundle():
    cover = star_cover(corpus.HOLLOW_TRIANGLE)
    docio.bundle_to_doc(total_space(trivial_cocycle(cover, corpus.Z2),
                                    regular_action(corpus.Z2)))


@pytest.mark.parametrize("run", [
    _subdivide_the_torus_three_times, _enumerate_torus_homs, _write_a_bundle,
], ids=["barycentric_subdivision", "enumerate_homs", "bundle_to_doc"])
def test_leaves_no_reference_cycles(run):
    # garbage that only the cyclic collector frees makes its full
    # collections expensive once large complexes are alive
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# -- nerves by vertex incidence ----------------------------------------------

def assert_nerve_matches_the_scan(cover):
    """The nerve, its witness keys in insertion order and every witness
    agree with the part-by-part scan; singletons are the parts."""
    scanned = reference_checks.cech_nerve(cover)
    nerve = cech_nerve(cover)
    assert list(nerve.witnesses) == list(scanned.witnesses)
    assert nerve.complex == scanned.complex
    for key, witness in scanned.witnesses.items():
        assert nerve.witnesses[key] == witness, key
    for (idx,) in nerve.keys(1):
        assert nerve.witnesses[(idx,)] is cover.parts[idx]


def _nerve_covers():
    empty = SimplicialComplex()
    for name, x in sorted(corpus.SURFACES.items()) + [
            ("point", corpus.POINT), ("edge", corpus.EDGE),
            ("full_triangle", corpus.FULL_TRIANGLE), ("hexagon", corpus.HEXAGON),
            ("full_3simplex", corpus.FULL_3SIMPLEX),
            ("two_components", corpus.TWO_COMPONENTS)]:
        yield pytest.param(lambda x=x: star_cover(x), id=f"star-{name}")
        yield pytest.param(lambda x=x: closed_star_cover(x), id=f"closed-star-{name}")
        yield pytest.param(
            lambda x=x: disjoint_union_cover(closed_star_cover(x), one_part_cover(x)),
            id=f"union-{name}")
        # string indices: "10" sorts before "9"
        yield pytest.param(
            lambda x=x: docio.cover_from_doc(docio.cover_to_doc(star_cover(x))),
            id=f"loaded-star-{name}")
    dodecagon = build_complex([[i, (i + 1) % 12] for i in range(12)])
    yield pytest.param(lambda: star_cover(dodecagon), id="star-dodecagon")
    yield pytest.param(
        lambda: docio.cover_from_doc(docio.cover_to_doc(star_cover(dodecagon))),
        id="loaded-star-dodecagon")
    once = barycentric_subdivision(corpus.TORUS_SEVEN)[0]
    yield pytest.param(lambda: star_cover(once), id="star-torus-rung1")
    yield pytest.param(lambda: Cover(corpus.HOLLOW_TRIANGLE, {
        0: empty, 1: closed_star_cover(corpus.HOLLOW_TRIANGLE).parts["a"],
        2: empty, 3: build_complex([["b", "c"]]), 4: empty,
    }), id="empty-parts")


@pytest.mark.parametrize("make_cover", list(_nerve_covers()))
def test_nerve_matches_the_scan(make_cover):
    assert_nerve_matches_the_scan(make_cover())


def test_a_cover_of_empty_parts_has_no_nerve():
    cover = Cover(SimplicialComplex(), {"A": SimplicialComplex(), "B": SimplicialComplex()})
    for nerve_of in (cech_nerve, reference_checks.cech_nerve):
        with pytest.raises(ValidationError, match="^every part of the cover is empty$"):
            nerve_of(cover)


@st.composite
def subcomplex_covers(draw):
    """A base and up to five subcomplexes of it, some maybe empty, with
    one more part holding the maximal simplices they miss."""
    tops = draw(st.lists(st.sets(st.sampled_from("abcdef"), min_size=1, max_size=4),
                         min_size=1, max_size=6))
    base = build_complex(tops)
    maximal = [sorted(s) for s in base.maximal_simplices]
    parts = {}
    for i in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.tuples(st.sampled_from(maximal), st.integers(1, 4)),
                              max_size=3))
        parts[i] = build_complex(s[:n] for s, n in picks) if picks else SimplicialComplex()
    covered = frozenset().union(*(part.simplices for part in parts.values()))
    missed = [s for s in maximal if frozenset(s) not in covered]
    parts[len(parts)] = build_complex(missed) if missed else SimplicialComplex()
    return Cover(base, parts)


@given(subcomplex_covers())
@settings(max_examples=200, deadline=None)
def test_random_subcomplex_cover_nerves_match_the_scan(cover):
    assert_nerve_matches_the_scan(cover)


def test_nerve_takes_each_intersection_once(monkeypatch):
    # each nerve simplex past the parts reads two families, its prefix's
    # witness and its last part, and listing the nerve reads one; the
    # part-by-part scan read two per part tested (8,012 here)
    cover = star_cover(barycentric_subdivision(corpus.TORUS_SEVEN)[0])
    family = SimplicialComplex.simplices
    reads = 0

    def counted(self):
        nonlocal reads
        reads += 1
        return family.fget(self)

    monkeypatch.setattr(SimplicialComplex, "simplices", property(counted))
    nerve = cech_nerve(cover)
    monkeypatch.undo()
    parts = sum(not part.is_empty() for part in cover.parts.values())
    assert (len(nerve.witnesses), parts) == (252, 42)
    assert reads <= 1 + 2 * (len(nerve.witnesses) - parts)
