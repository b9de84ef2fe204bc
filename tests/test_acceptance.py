"""Acceptance suite: every headline guarantee, one test per criterion.

Each test prints a single PASS line with its timing (run with -s to see
them) and enforces the stated wall-clock budget.
"""

import itertools
import random
import time

import pytest

from cechfib import (
    GerbeCocycle,
    SimplicialMap,
    ValidationError,
    abelian_class,
    abelian_class_count,
    abelian_coefficients,
    bar_homology,
    build_complex,
    bundle_isomorphism,
    cech_nerve,
    check_coherence_faces,
    classification_check,
    closed_star_cover,
    connected_components,
    euler_characteristic,
    gerbes_equivalent,
    holonomy,
    homology,
    local_trivialization_check,
    map_induces_homology_isomorphism,
    mapping_cylinder_bundle,
    patch_bundles,
    product_bundle,
    pullback_universal,
    regular_action,
    restrict_bundle,
    section_map,
    skeletal_construction,
    star_cover,
    total_space,
    validate_cocycle,
    validate_gerbe_cocycle,
)

import corpus


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nacceptance {self.name}: PASS in {elapsed:.2f}s "
                  f"(budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        else:
            print(f"\nacceptance {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_nerve_fidelity():
    with Budget("1 nerve-fidelity", 5.0):
        for name in ("hollow_triangle", "rp2", "torus", "boundary_3simplex"):
            base = corpus.SURFACES[name]
            cover, nerve, _ = corpus.cached_star_cover(name)
            degree = max(base.dim, 0)
            base_h = homology(cover.base, degree)
            nerve_h = homology(nerve.complex, degree)
            assert base_h.betti_numbers() == nerve_h.betti_numbers(), name
            assert base_h.torsion() == nerve_h.torsion(), name
            section = section_map(cover, nerve)
            assert map_induces_homology_isomorphism(section, degree), name


def test_criterion_2_classification_theorem():
    with Budget("2 classification", 10.0):
        circle_cover = corpus.cached_star_cover("hollow_triangle")[0]
        report = classification_check(circle_cover, corpus.Z2)
        assert report.verdict and report.cocycle_classes == 2
        assert report.hom_classes == 2

        report = classification_check(circle_cover, corpus.S3)
        assert report.verdict and report.cocycle_classes == 3
        assert report.hom_classes == 3

        disk_cover = star_cover(corpus.FULL_TRIANGLE)
        for group in corpus.GROUPS.values():
            report = classification_check(disk_cover, group)
            assert report.verdict and report.cocycle_classes == 1
            assert report.hom_classes == 1


def test_criterion_3_covering_invariants():
    with Budget("3 covering-invariants", 10.0):
        rng = random.Random(2024)
        instances = corpus.random_cocycle_instances(54, rng)
        assert len(instances) >= 50
        for name, group_name, cocycle in instances:
            action = regular_action(corpus.GROUPS[group_name])
            bundle = total_space(cocycle, action)
            assert euler_characteristic(bundle.total) == \
                len(action.fiber) * euler_characteristic(bundle.base), (
                    name, group_name)
            orbits = action.orbits_under(holonomy(cocycle))
            assert len(connected_components(bundle.total)) == len(orbits), (
                name, group_name)


def test_criterion_4_skeletal_vs_direct():
    with Budget("4 skeletal-vs-direct", 10.0):
        rng = random.Random(77)
        named = [
            ("hollow_triangle", "z2",
             validate_cocycle(
                 corpus.cached_star_cover("hollow_triangle")[0], corpus.Z2,
                 {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1})),
        ]
        instances = named + corpus.random_cocycle_instances(16, rng)
        for name, group_name, cocycle in instances:
            action = regular_action(corpus.GROUPS[group_name])
            direct = total_space(cocycle, action)
            built = skeletal_construction(cocycle, action)
            assert bundle_isomorphism(built, direct) is not None, (
                name, group_name)


def test_criterion_5_universal_pullback():
    with Budget("5 universal-pullback", 10.0):
        from cechfib import enumerate_homs, from_homomorphism, hom_conjugacy_classes
        from cechfib import pi1_presentation

        cases = [
            ("hollow_triangle", corpus.Z2),
            ("hollow_triangle", corpus.S3),
        ]
        for name, group in cases:
            cover, nerve, presentation = corpus.cached_star_cover(name)
            homs = enumerate_homs(presentation, group)
            for cls in hom_conjugacy_classes(homs, group):
                rep = from_homomorphism(cls[0], cover, group)
                direct = total_space(rep, regular_action(group))
                pulled = pullback_universal(rep)
                assert bundle_isomorphism(pulled, direct) is not None, (
                    name, group.order, cls[0])
        disk = star_cover(corpus.FULL_TRIANGLE)
        for group in (corpus.Z2, corpus.S3):
            report = classification_check(disk, group)
            assert all(report.pullbacks_match)


def test_criterion_6_bar_homology():
    with Budget("6 bar-homology", 20.0):
        result = bar_homology(corpus.Z2, 3)
        # independent oracle: the 2-periodic resolution of the order-2
        # group gives alternating 0 and 2 boundary maps on rank-1 modules
        from cechfib import chain_complex, homology_of_chain_complex

        ranks = (1, 1, 1, 1, 1)
        boundaries = tuple(
            [[0]] if k % 2 == 1 else [[2]] for k in range(1, 5)
        )
        oracle = homology_of_chain_complex(
            chain_complex(ranks, boundaries), 3
        )
        assert result.betti_numbers() == oracle.betti_numbers()
        assert result.torsion() == oracle.torsion()
        assert result.betti_numbers() == (1, 0, 0, 0)
        assert result.torsion() == ((), (2,), (), (2,))

        s3_h1 = bar_homology(corpus.S3, 1).group(1)
        order = 1
        for t in s3_h1.torsion:
            order *= t
        assert s3_h1.betti == 0 and order == 2


def test_criterion_7_gerbe_abelian_consistency():
    with Budget("7 gerbe-consistency", 20.0):
        cover, nerve, _ = corpus.cached_star_cover("boundary_3simplex")
        coeff = abelian_coefficients(corpus.Z2)
        pairs = sorted(k for k in nerve.witnesses if len(k) == 2)
        triples = sorted(k for k in nerve.witnesses if len(k) == 3)
        edges = {p: 0 for p in pairs}

        all_valid = []
        for bits in itertools.product([0, 1], repeat=len(triples)):
            all_valid.append(
                validate_gerbe_cocycle(
                    cover, coeff, edges, dict(zip(triples, bits)),
                )
            )
        assert len(all_valid) == 16

        # partition by exhaustive equivalence search
        blocks = []
        for data in all_valid:
            for block in blocks:
                if gerbes_equivalent(block[0], data).equivalent:
                    block.append(data)
                    break
            else:
                blocks.append([data])
        assert len(blocks) == 2
        assert sorted(len(b) for b in blocks) == [8, 8]

        # Smith-form degree-2 cohomology oracle agrees
        assert abelian_class_count(nerve, corpus.Z2) == 2
        labels = {abelian_class(d) for d in all_valid}
        assert len(labels) == 2
        for block in blocks:
            assert len({abelian_class(d) for d in block}) == 1

        # face-pasting checker agrees with the validator on randomized
        # valid and invalidated instances over a quadruple-bearing cover
        tetra_cover = star_cover(corpus.FULL_3SIMPLEX)
        tetra_nerve = cech_nerve(tetra_cover)
        tpairs = sorted(k for k in tetra_nerve.witnesses if len(k) == 2)
        ttriples = sorted(k for k in tetra_nerve.witnesses if len(k) == 3)
        tedges = {p: 0 for p in tpairs}
        rng = random.Random(99)
        agreements = 0
        trials = 0
        for _ in range(100):
            witnesses = {t: rng.randint(0, 1) for t in ttriples}
            raw = GerbeCocycle(
                cover=tetra_cover, module=coeff,
                edge_values=tedges, witnesses=witnesses,
            )
            try:
                validate_gerbe_cocycle(
                    tetra_cover, coeff, tedges, witnesses,
                )
                valid = True
            except ValidationError:
                valid = False
            trials += 1
            if check_coherence_faces(raw) == valid:
                agreements += 1
        assert agreements == trials == 100


def test_criterion_8_axiom_suite():
    with Budget("8 axiom-suite", 10.0):
        # corpus bundles over small bases
        circle_cover, circle_nerve, _ = corpus.cached_star_cover(
            "hollow_triangle")
        twisted = validate_cocycle(
            circle_cover, corpus.Z2,
            {("a", "b"): 0, ("b", "c"): 0, ("a", "c"): 1},
        )
        double = total_space(twisted, regular_action(corpus.Z2))
        rng = random.Random(5)
        bundles = [
            double,
            product_bundle(corpus.HOLLOW_TRIANGLE, (0, 1)),
            product_bundle(corpus.BOUNDARY_3SIMPLEX, ("x", "y", "z")),
        ]
        for name, group_name, cocycle in corpus.random_cocycle_instances(6, rng):
            bundles.append(
                total_space(cocycle, regular_action(corpus.GROUPS[group_name]))
            )

        # patching: restrictions to a cover reassemble identically
        for bundle in bundles:
            cover = closed_star_cover(bundle.base)
            locals_ = {
                idx: restrict_bundle(bundle, cover.parts[idx])
                for idx in cover.indices
            }
            glued = patch_bundles(cover, locals_)
            assert glued.total == bundle.total
            assert glued.projection.vertex_map == \
                bundle.projection.vertex_map
            for idx in cover.indices:
                again = restrict_bundle(glued, cover.parts[idx])
                assert again.total == locals_[idx].total

        # fiberwise cylinders: end restrictions and target homology
        def deck(bundle):
            size = len(bundle.fiber)
            labels = {f: i for i, f in enumerate(bundle.fiber)}
            return SimplicialMap(
                bundle.total, bundle.total,
                {
                    (a, f): (a, bundle.fiber[(labels[f] + 1) % size])
                    for a, f in bundle.total.vertices
                },
            )

        comparisons = [
            (double, double, SimplicialMap.identity(double.total)),
            (double, double, deck(double)),
            (bundles[1], bundles[1], deck(bundles[1])),
            (bundles[2], bundles[2], SimplicialMap.identity(bundles[2].total)),
        ]
        for source, target, comparison in comparisons:
            cylinder, end0, end1 = mapping_cylinder_bundle(
                source, target, comparison
            )
            start_copy = {
                frozenset((0, v) for v in s) for s in source.total.simplices
            }
            finish_copy = {
                frozenset((1, v) for v in s) for s in target.total.simplices
            }
            assert start_copy <= cylinder.total.simplices
            assert finish_copy <= cylinder.total.simplices
            # nothing else lives over the two ends
            over_end0 = {
                s for s in cylinder.total.simplices
                if all(cylinder.projection(v)[0] == 0 for v in s)
            }
            over_end1 = {
                s for s in cylinder.total.simplices
                if all(cylinder.projection(v)[0] == 1 for v in s)
            }
            assert over_end0 == start_copy
            assert over_end1 == finish_copy
            degree = max(target.total.dim, cylinder.total.dim)
            a = homology(cylinder.total, degree)
            b = homology(target.total, degree)
            assert a.betti_numbers() == b.betti_numbers()
            assert a.torsion() == b.torsion()
