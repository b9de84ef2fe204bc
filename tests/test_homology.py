import pytest

from cechfib import (
    HomologyWorkspace,
    SimplicialMap,
    ValidationError,
    chain_complex,
    chain_complex_of,
    connected_components,
    homology,
    homology_of_chain_complex,
    map_induces_homology_isomorphism,
    simplicial_chain_map,
)

from cechfib.homology import HomologyGroup, HomologyResult

import corpus
from dense import dense, matrix_multiply


def test_point_homology():
    assert homology(corpus.POINT).betti_numbers() == (1,)


def test_hollow_triangle_homology():
    result = homology(corpus.HOLLOW_TRIANGLE)
    assert result.betti_numbers() == (1, 1)
    assert result.torsion() == ((), ())


def test_projective_plane_homology():
    result = homology(corpus.RP2_SIX, 2)
    assert result.betti_numbers() == (1, 0, 0)
    assert result.torsion() == ((), (2,), ())


def test_torus_homology():
    result = homology(corpus.TORUS_SEVEN, 2)
    assert result.betti_numbers() == (1, 2, 1)
    assert result.torsion() == ((), (), ())


def test_sphere_homology():
    result = homology(corpus.BOUNDARY_3SIMPLEX, 2)
    assert result.betti_numbers() == (1, 0, 1)


def test_negative_degree_rejected():
    with pytest.raises(ValidationError):
        homology(corpus.POINT, -1)


@pytest.mark.parametrize("degree", [2.5, 1.0, True, False, "1", None])
def test_degrees_that_are_no_integers_are_rejected(degree):
    x = corpus.TORUS_SEVEN
    identity = SimplicialMap.identity(x)
    calls = [
        lambda: homology_of_chain_complex(chain_complex_of(x), degree),
        lambda: map_induces_homology_isomorphism(identity, degree),
    ]
    if degree is not None:
        # None asks for every degree of the complex
        calls += [lambda: homology(x, degree), lambda: chain_complex_of(x, degree)]
    for call in calls:
        with pytest.raises(ValidationError, match="max_degree must be an integer"):
            call()


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_degree_zero_matches_component_count(name):
    x = corpus.SURFACES[name]
    assert homology(x, 0).group(0).betti == len(connected_components(x))


def test_two_components():
    assert homology(corpus.TWO_COMPONENTS, 0).group(0).betti == 2


@pytest.mark.parametrize("name", sorted(corpus.SURFACES))
def test_boundary_squared_is_zero(name):
    cc = chain_complex_of(corpus.SURFACES[name])
    for k in range(1, len(cc.ranks) - 1):
        product = matrix_multiply(
            dense(cc.boundary(k), cc.rank(k)),
            dense(cc.boundary(k + 1), cc.rank(k + 1)),
        )
        assert all(not any(row) for row in product)


def test_chain_complex_validator_rejects_bad_composition():
    with pytest.raises(ValidationError):
        chain_complex((1, 1, 1), ([[1]], [[1]]))


@pytest.mark.parametrize("rank", [-1, 2.5, "2", True, None])
def test_chain_complex_validator_refuses_a_rank_that_is_no_non_negative_int(rank):
    with pytest.raises(ValidationError, match=rf"^rank 1 must be a non-negative integer, got {rank!r}$"):
        chain_complex([1, rank], [[[0] * 2]])


@pytest.mark.parametrize("entry", [1.5, 1.0, True, "1", None])
def test_chain_complex_validator_refuses_an_entry_that_is_no_int(entry):
    # boundary 2 is C_2 = Z^2 -> C_1 = Z^2, and the bad entry sits at row 1, column 0
    with pytest.raises(ValidationError, match=r"^boundary 2 entry \(1, 0\) must be an integer, got "):
        chain_complex([1, 2, 2], [[[0, 0]], [[0, 0], [entry, 0]]])


def test_chain_complex_validator_refuses_an_entry_of_one_and_a_half():
    # an entry of 1.5 was read as 1 before, leaving H_0 = 0 instead of a refusal
    with pytest.raises(ValidationError, match=r"entry \(0, 0\)"):
        chain_complex([1, 1], [[[1.5]]])
    assert homology_of_chain_complex(chain_complex([1, 1], [[[2]]]), 0).torsion() == ((2,),)


def test_workspace_class_labels_separate_classes():
    """Two edges of the hollow triangle differ by a boundary only if the
    full cycle coefficient matches."""
    x = corpus.HOLLOW_TRIANGLE
    ws = HomologyWorkspace(chain_complex_of(x), 1)
    # fundamental cycle in the sorted edge basis (a,b),(a,c),(b,c)
    fundamental = [1, -1, 1]
    doubled = [2, -2, 2]
    zero = [0, 0, 0]
    assert ws.class_label(1, fundamental) != ws.class_label(1, zero)
    assert ws.class_label(1, doubled) != ws.class_label(1, fundamental)
    assert ws.group(1).betti == 1


def test_workspace_rejects_non_cycle():
    x = corpus.HOLLOW_TRIANGLE
    ws = HomologyWorkspace(chain_complex_of(x), 1)
    with pytest.raises(ValidationError):
        ws.cycle_coordinates(1, [1, 0, 0])


@pytest.mark.parametrize("chain", [[1, -1, 1, 5], [1, -1]])
def test_workspace_rejects_a_chain_of_the_wrong_length(chain):
    ws = HomologyWorkspace(chain_complex_of(corpus.HOLLOW_TRIANGLE), 1)
    want = f"vector has length {len(chain)}, want 3"
    for read in (ws.class_label, ws.cycle_coordinates):
        with pytest.raises(ValidationError, match=want):
            read(1, chain)


@pytest.mark.parametrize("degree,chain", [(-1, [1, -1, 1]), (2, [1])])
def test_workspace_rejects_a_degree_outside_its_range(degree, chain):
    # a negative degree used to answer for the top degree, and one above
    # max_degree to raise a bare IndexError
    ws = HomologyWorkspace(chain_complex_of(corpus.HOLLOW_TRIANGLE), 1)
    want = f"^degree {degree} is outside 0..1$"
    with pytest.raises(ValidationError, match=want):
        ws.class_label(degree, chain)
    with pytest.raises(ValidationError, match=want):
        ws.cycle_coordinates(degree, chain)
    with pytest.raises(ValidationError, match=want):
        ws.group(degree)


def test_chain_map_commutes_with_boundary():
    inclusion = SimplicialMap(
        corpus.HOLLOW_TRIANGLE, corpus.FULL_TRIANGLE,
        {v: v for v in corpus.HOLLOW_TRIANGLE.vertices},
    )
    mats = simplicial_chain_map(inclusion, 1)
    src = chain_complex_of(corpus.HOLLOW_TRIANGLE)
    tgt = chain_complex_of(corpus.FULL_TRIANGLE)
    left = matrix_multiply(
        dense(mats[0], src.rank(0)), dense(src.boundary(1), src.rank(1))
    )
    right = matrix_multiply(
        dense(tgt.boundary(1), tgt.rank(1)), dense(mats[1], src.rank(1))
    )
    assert left == right


def test_collapse_chain_map_commutes_on_surface():
    from cechfib import barycentric_subdivision

    x = corpus.RP2_SIX
    sd, _ = barycentric_subdivision(x)
    collapse = SimplicialMap(sd, x, {v: min(v) for v in sd.vertices})
    mats = simplicial_chain_map(collapse, 2)
    src = chain_complex_of(sd)
    tgt = chain_complex_of(x)
    for k in (1, 2):
        left = matrix_multiply(
            dense(mats[k - 1], src.rank(k - 1)), dense(src.boundary(k), src.rank(k))
        )
        right = matrix_multiply(
            dense(tgt.boundary(k), tgt.rank(k)), dense(mats[k], src.rank(k))
        )
        assert left == right


def test_identity_induces_isomorphism():
    for x in (corpus.RP2_SIX, corpus.HOLLOW_TRIANGLE):
        assert map_induces_homology_isomorphism(SimplicialMap.identity(x), x.dim)


def test_collapse_to_point_is_not_isomorphism():
    x = corpus.HOLLOW_TRIANGLE
    const = SimplicialMap(x, corpus.POINT, {v: "p" for v in x.vertices})
    assert not map_induces_homology_isomorphism(const, 1)


def test_inclusion_of_circle_into_disk_not_isomorphism():
    inclusion = SimplicialMap(
        corpus.HOLLOW_TRIANGLE, corpus.FULL_TRIANGLE,
        {v: v for v in corpus.HOLLOW_TRIANGLE.vertices},
    )
    assert not map_induces_homology_isomorphism(inclusion, 1)


HOMOLOGY_REFUSALS = {
    "chain-complex-boundary-count": (
        lambda: chain_complex([1, 1], []), "expected 1 boundary matrices, got 0"),
    "chain-complex-boundary-shape": (
        lambda: chain_complex([1, 2], [[[1]]]), "boundary 1 has wrong shape, want 1x2"),
    "homology-of-a-negative-degree": (
        lambda: homology_of_chain_complex(chain_complex([1], []), -1),
        "max_degree must be nonnegative"),
}


@pytest.mark.parametrize("case", sorted(HOMOLOGY_REFUSALS))
def test_homology_refusal_names_the_fault(case):
    call, message = HOMOLOGY_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_homology_groups_print_and_vanish_out_of_range():
    assert str(HomologyGroup(2, (2, 6))) == "Z + Z + Z/2 + Z/6"
    assert str(HomologyGroup(0, ())) == "0"
    result = HomologyResult((HomologyGroup(1, ()), HomologyGroup(0, (2,))))
    assert result.group(1) == HomologyGroup(0, (2,))
    assert result.group(2) == result.group(-1) == HomologyGroup(0, ())
