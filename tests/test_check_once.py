"""Each fact about a group, an action, a crossed module, a map, a cover
or a bundle is checked once, and the checks keep their verdicts and
their errors.

Group, action and crossed-module laws are checked on generators and
simplicial maps in one pass over the maximal simplices; the full ordered
scans in ``reference_checks`` are the oracle for verdict, message and
details.  Bundles built by the library carry trusted projections, and a
loaded bundle never builds its total's frozenset family.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import (
    Cover,
    GroupAction,
    SimplicialMap,
    ValidationError,
    build_complex,
    closed_star_cover,
    disjoint_union_cover,
    one_part_cover,
    product_bundle,
    pullback,
    pullback_universal,
    regular_action,
    restrict_bundle,
    skeletal_construction,
    star_cover,
    symmetric_group,
    total_space,
    trivial_cocycle,
    trivial_group,
    validate_crossed_module,
    validate_group,
)
from cechfib import io as docio
from cechfib.groups import _generators

import corpus
import reference_checks

S4 = symmetric_group(4)
TABLE_GROUPS = {"z2xz2": corpus.Z2xZ2, "s3": corpus.S3, "s4": S4}


def outcome(check, *args):
    """What a check builds, or the message and details it raises."""
    try:
        return "ok", check(*args)
    except ValidationError as exc:
        return "error", str(exc), exc.details


def library_group(table):
    group = validate_group(table)
    return group.table, group.inverse


def library_action(group, fiber, table):
    return GroupAction(group, fiber, table).table


def single_entry_perturbations(table):
    """Each entry changed to each other value in its row's range."""
    for i, row in enumerate(table):
        for j, old in enumerate(row):
            for v in range(len(row)):
                if v != old:
                    rows = [list(r) for r in table]
                    rows[i][j] = v
                    yield rows


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_generators_reach_every_element(name):
    group = TABLE_GROUPS[name]
    gens = _generators(group.table)
    reached = {0}
    for _ in range(group.order):
        reached |= {group.mul(x, g) for x in reached for g in gens}
    assert reached == set(group.elements())
    assert len(gens) <= 3


@pytest.mark.parametrize("name", sorted(TABLE_GROUPS))
def test_group_table_perturbations_match_full_scan(name):
    table = TABLE_GROUPS[name].table
    assert outcome(library_group, table) == outcome(reference_checks.validate_group, table)
    errors = set()
    for rows in single_entry_perturbations(table):
        got = outcome(library_group, rows)
        assert got == outcome(reference_checks.validate_group, rows), rows
        errors.add(got[1].split(" at ")[0] if got[0] == "error" else "ok")
    # both the identity and the associativity failures were exercised
    assert {"element 0 is not a two-sided identity",
            "associativity fails"} <= errors


def natural_action_table(n):
    """S_n on n points, in the element order of ``symmetric_group``."""
    perms = sorted(itertools.permutations(range(n)))
    perms.remove(tuple(range(n)))
    perms.insert(0, tuple(range(n)))
    return [list(p) for p in perms]


def action_cases():
    for name, group in TABLE_GROUPS.items():
        regular = [list(r) for r in regular_action(group).table]
        yield name, "regular", group, tuple(group.elements()), regular
    for n, group in ((3, corpus.S3), (4, S4)):
        yield f"s{n}", "natural", group, tuple("pqrs"[:n]), natural_action_table(n)


@pytest.mark.parametrize("case", list(action_cases()), ids=lambda c: f"{c[0]}-{c[1]}")
def test_action_perturbations_match_full_scan(case):
    """Single entries changed (which also breaks bijectivity) and two
    entries of a row swapped (which keeps it, so the law is what fails)."""
    _, _, group, fiber, table = case
    args = (group, fiber, table)
    assert outcome(library_action, *args) == outcome(reference_checks.check_action, *args)
    laws = 0
    for rows in single_entry_perturbations(table):
        args = (group, fiber, rows)
        assert outcome(library_action, *args) == outcome(reference_checks.check_action, *args)
    size = len(fiber)
    for g in range(group.order):
        for i, j in itertools.combinations(range(size), 2):
            rows = [list(r) for r in table]
            rows[g][i], rows[g][j] = rows[g][j], rows[g][i]
            args = (group, fiber, rows)
            got = outcome(library_action, *args)
            assert got == outcome(reference_checks.check_action, *args), (g, i, j)
            laws += got[1].startswith("action incompatible")
    assert laws > 0


@st.composite
def near_group_tables(draw):
    """Square tables of order 1-5, most with a two-sided identity 0."""
    n = draw(st.integers(1, 5))
    rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()) or n == 1:
        for a in range(n):
            rows[0][a] = rows[a][0] = a
    return rows


@given(near_group_tables())
@settings(max_examples=300, deadline=None)
def test_random_tables_match_full_scan(rows):
    assert outcome(library_group, rows) == outcome(reference_checks.validate_group, rows)


@given(st.sampled_from(sorted(TABLE_GROUPS)), st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_random_permutation_actions_match_full_scan(name, size, data):
    group = TABLE_GROUPS[name]
    perms = st.permutations(list(range(size)))
    table = [list(range(size))] + [data.draw(perms) for _ in range(group.order - 1)]
    args = (group, tuple(range(size)), table)
    assert outcome(library_action, *args) == outcome(reference_checks.check_action, *args)


def test_every_table_of_order_three_matches_full_scan():
    """Every 3x3 table with 0 as identity: the 81 fillings of its other
    four entries, monoids without inverses among them."""
    for a, b, c, d in itertools.product(range(3), repeat=4):
        rows = [[0, 1, 2], [1, a, b], [2, c, d]]
        assert outcome(library_group, rows) == outcome(reference_checks.validate_group, rows)
    with pytest.raises(ValidationError, match=r"^element 1 has no two-sided inverse$") as info:
        validate_group([[0, 1], [1, 1]])
    assert info.value.details == {"element": 1}


def homs(source, target):
    """Every homomorphism source -> target as its tuple of images, each
    extended from images of the generators along left-to-right products."""
    gens = _generators(source.table)
    found = set()
    for images in itertools.product(target.elements(), repeat=len(gens)):
        image = {0: 0}
        queue = [0]
        for x in queue:  # grows while read
            for g, v in zip(gens, images):
                y = source.mul(x, g)
                if y not in image:
                    image[y] = target.mul(image[x], v)
                    queue.append(y)
        phi = tuple(image[x] for x in source.elements())
        if all(phi[source.mul(a, b)] == target.mul(phi[a], phi[b])
               for a in source.elements() for b in source.elements()):
            found.add(phi)
    return sorted(found)


def automorphisms(group):
    """The automorphisms of a group, and the group they form under
    composition, element i being the i-th automorphism."""
    autos = [phi for phi in homs(group, group) if len(set(phi)) == group.order]
    index = {phi: i for i, phi in enumerate(autos)}
    table = [[index[tuple(a[h] for h in b)] for b in autos] for a in autos]
    return autos, validate_group(table)


def library_crossed_module(base, fiber, boundary, action):
    module = validate_crossed_module(base, fiber, boundary, action)
    return module.boundary, module.action


CROSSED_MODULE_FAILURES = (
    "boundary is not a homomorphism", "is not a bijection",
    "is not multiplicative", "identity of the base does not act trivially",
    "action is not functorial", "equivariance fails", "Peiffer identity fails",
)


def crossed_module_candidates(rng, count):
    """Base and fiber among the corpus groups, the trivial group among
    them; a boundary homomorphism and an action by automorphisms, each
    lawful alone, so that their pairing tests equivariance and Peiffer;
    then most candidates perturbed once: a boundary entry, an action
    entry, two entries of a row swapped, or a row (the identity's, in
    one case of six) replaced by an automorphism."""
    groups = list(corpus.GROUPS.values())
    laws = {}
    for _ in range(count):
        base, fiber = rng.choice(groups), rng.choice(groups)
        if (id(base), id(fiber)) not in laws:
            autos, aut_group = automorphisms(fiber)
            laws[id(base), id(fiber)] = (
                homs(fiber, base), autos,
                [[autos[k] for k in phi] for phi in homs(base, aut_group)])
        boundaries, autos, actions = laws[id(base), id(fiber)]
        boundary = list(rng.choice(boundaries))
        action = [list(row) for row in rng.choice(actions)]
        g, h = rng.randrange(base.order), rng.randrange(fiber.order)
        kind = rng.randrange(6)
        if kind == 1:
            boundary[h] = rng.randrange(base.order)
        elif kind == 2:
            action[g][h] = rng.randrange(fiber.order)
        elif kind == 3:
            k = rng.randrange(fiber.order)
            action[g][h], action[g][k] = action[g][k], action[g][h]
        elif kind == 4:
            action[g] = list(rng.choice(autos))
        elif kind == 5:
            action[0] = list(rng.choice(autos))
        yield base, fiber, boundary, action


def test_seeded_crossed_modules_match_full_scan():
    seen = dict.fromkeys(("ok",) + CROSSED_MODULE_FAILURES, 0)
    for args in crossed_module_candidates(random.Random(19), 4200):
        got = outcome(library_crossed_module, *args)
        assert got == outcome(reference_checks.validate_crossed_module, *args), args
        seen["ok" if got[0] == "ok" else
             next(kind for kind in CROSSED_MODULE_FAILURES if kind in got[1])] += 1
    # every failure kind, equivariance included, is exercised many times
    assert min(seen.values()) >= 100, seen


def test_a_trivial_fiber_still_needs_a_boundary_homomorphism():
    """The trivial group has no generators but its identity, which must
    map to the identity."""
    args = (corpus.Z2, trivial_group(), [1], [[0], [0]])
    with pytest.raises(ValidationError,
                       match=r"^boundary is not a homomorphism at \(0, 0\)$") as info:
        validate_crossed_module(*args)
    assert info.value.details == {"axiom": "homomorphism", "witness": (0, 0)}
    assert outcome(library_crossed_module, *args) == outcome(
        reference_checks.validate_crossed_module, *args)


def test_crossed_module_shape_errors_match_full_scan():
    z2, z4 = corpus.Z2, corpus.Z4
    for args in ((z2, z4, [0, 1, 0], [[0, 1, 2, 3]] * 2),
                 (z2, z4, [0, 1, 0, 2], [[0, 1, 2, 3]] * 2),
                 (z2, z4, [0, 1, 0, 1], [[0, 1, 2, 3]]),
                 (z2, z4, [0, 1, 0, 1], [[0, 1, 2, 3], [0, 1, 2]])):
        got = outcome(library_crossed_module, *args)
        assert got[0] == "error"
        assert got == outcome(reference_checks.validate_crossed_module, *args)


def library_map(source, target, vertex_map):
    return SimplicialMap(source, target, vertex_map).vertex_map


def test_map_reports_a_bad_vertex_before_a_bad_simplex():
    """Vertex b goes nowhere in the target and {a, c} onto a non-edge:
    the vertex is named, as when vertices were checked first."""
    target = build_complex([["x", "y"], ["z"]])
    vertex_map = {"a": "x", "b": "w", "c": "z"}
    with pytest.raises(ValidationError, match=r"^image 'w' of vertex 'b' is not a target vertex$"):
        SimplicialMap(corpus.FULL_TRIANGLE, target, vertex_map)
    del vertex_map["b"]
    with pytest.raises(ValidationError, match=r"^vertex map misses source vertices \['b'\]$"):
        SimplicialMap(corpus.FULL_TRIANGLE, target, vertex_map)
    edge = build_complex([["a", "c"]])
    with pytest.raises(ValidationError) as info:
        SimplicialMap(edge, target, vertex_map)
    assert info.value.details == {"simplex": ("a", "c")}


@st.composite
def complexes(draw, labels):
    tops = draw(st.lists(st.sets(st.sampled_from(labels), min_size=1, max_size=3),
                         min_size=1, max_size=5))
    return build_complex(tops)


@given(complexes("abcde"), complexes("vwxyz"),
       st.dictionaries(st.sampled_from("abcde"), st.sampled_from("uvwxyz")))
@settings(max_examples=300, deadline=None)
def test_random_maps_match_ordered_checks(source, target, vertex_map):
    got = outcome(library_map, source, target, vertex_map)
    assert got == outcome(reference_checks.check_map, source, target, vertex_map)
    if got[0] == "ok":
        f = SimplicialMap(source, target, vertex_map)
        keeps = all(len(f.image_simplex(s)) == len(s) for s in source.maximal_simplices)
        assert f._keeps_dimensions() is keeps


def library_bundles():
    cocycle = corpus.random_cocycle("torus", corpus.S3, random.Random(7))
    action = regular_action(corpus.S3)
    direct = total_space(cocycle, action)
    yield "total_space", direct
    yield "skeletal", skeletal_construction(cocycle, action)
    yield "universal", pullback_universal(cocycle)
    yield "product", product_bundle(corpus.RP2_SIX, "pq")
    yield "pullback", pullback(direct, SimplicialMap.identity(direct.base))
    star = build_complex([s for s in direct.base.maximal_simplices
                          if direct.base.vertices[0] in s])
    yield "restrict", restrict_bundle(direct, star)


LIBRARY_BUNDLES = list(library_bundles())


@pytest.mark.parametrize("name,bundle", LIBRARY_BUNDLES,
                         ids=[name for name, _ in LIBRARY_BUNDLES])
def test_trusted_projections_pass_the_checked_constructor(name, bundle):
    """A projection the library builds unchecked is one the checked
    constructor accepts, and it keeps every maximal simplex's size."""
    proj = bundle.projection
    checked = SimplicialMap(bundle.total, bundle.base, proj.vertex_map)
    assert checked.vertex_map == proj.vertex_map
    assert checked._keeps_dimensions() and proj._keeps_dimensions()


def test_documents_never_reach_the_trusted_constructor(monkeypatch):
    cover, nerve, _ = corpus.cached_star_cover("hollow_triangle")
    bundle = total_space(trivial_cocycle(cover, corpus.S3),
                         regular_action(corpus.S3))
    doc = docio.bundle_to_doc(bundle)

    def refuse(*args):
        raise AssertionError("a document reached SimplicialMap._trusted")

    monkeypatch.setattr(SimplicialMap, "_trusted", classmethod(refuse))
    loaded = docio.bundle_from_doc(doc)
    docio.map_from_doc({"vertexMap": {v: v for v in loaded.base.vertices}},
                       loaded.base, loaded.base)


def test_loading_rp2_s4_bundle_builds_no_frozenset_family():
    """Loading checks the projection on the total's maximal simplices
    and compares the total with itself by identity, so the family of
    its 4,000-odd simplices as frozensets is never built."""
    cover, nerve, _ = corpus.cached_star_cover("rp2")
    bundle = total_space(trivial_cocycle(cover, S4), regular_action(S4))
    doc = docio.bundle_to_doc(bundle)
    loaded = docio.bundle_from_doc(doc)
    assert loaded.total._simplices is None
    assert len(loaded.total.maximal_simplices) == 10 * 24
    assert docio.bundle_to_doc(loaded) == doc


def invalid_part_families():
    """Families of subcomplexes that each miss a base simplex."""
    yield corpus.EDGE, {"A": build_complex([["a"]]), "B": build_complex([["b"]])}
    yield corpus.FULL_TRIANGLE, {"A": build_complex([["a", "b"], ["c"]])}
    yield corpus.HOLLOW_TRIANGLE, {"A": build_complex([["a", "b"]]),
                                   "B": build_complex([["b", "c"]])}


def corpus_covers():
    for x in corpus.SURFACES.values():
        yield star_cover(x)
        yield closed_star_cover(x)
        yield one_part_cover(x)
        yield disjoint_union_cover(closed_star_cover(x), one_part_cover(x))
    for x in (corpus.POINT, corpus.EDGE, corpus.FULL_TRIANGLE, corpus.HEXAGON,
              corpus.FULL_3SIMPLEX, corpus.TWO_COMPONENTS):
        yield star_cover(x)
        yield closed_star_cover(x)


def builds_a_cover(base, parts) -> bool:
    """Whether ``Cover`` accepts the family.  It must refuse exactly when
    the part scan finds a maximal base simplex in no part."""
    carried = reference_checks.carrier_check(SimpleNamespace(base=base, parts=parts))
    try:
        Cover(base, parts)
    except ValidationError as exc:
        assert str(exc).startswith("parts do not cover the base"), exc
        assert not carried, (base, parts)
        return False
    assert carried, (base, parts)
    return True


def test_carrier_check_matches_the_part_scan():
    families = [(cover.base, cover.parts) for cover in corpus_covers()]
    families += invalid_part_families()
    verdicts = [builds_a_cover(base, parts) for base, parts in families]
    assert verdicts.count(False) == 3


@given(complexes("abcdef"), st.lists(st.lists(st.integers(0, 9), max_size=3), max_size=4))
@settings(max_examples=200, deadline=None)
def test_random_subcomplex_covers_match_the_part_scan(base, picks):
    tops = base.maximal_simplices
    parts = {}
    for i, pick in enumerate(picks):
        chosen = [sorted(tops[k % len(tops)])[: 1 + k % 3] for k in pick]
        parts[i] = build_complex(chosen) if chosen else build_complex([sorted(tops[0])])
    if not parts:
        parts[0] = base
    builds_a_cover(base, parts)
