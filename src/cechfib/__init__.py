"""Combinatorial transition cocycles, covers, bundles, and classifying data.

Finite simplicial complexes stand in for spaces, finite groups for the
structure "group" of a fibration, and exact integral homology for every
homotopy-level claim, so each construction in the library can be checked
against a brute-force oracle.
"""

__version__ = "0.1.0"

from .complexes import (
    Pi1Presentation,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    build_complex,
    connected_components,
    euler_characteristic,
    mapping_cylinder,
    pi1_presentation,
)
from .covers import (
    Cover,
    NerveComplex,
    cech_nerve,
    closed_star_cover,
    disjoint_union_cover,
    is_good_cover,
    one_part_cover,
    section_map,
    star_cover,
)
from .errors import BudgetExceededError, ValidationError
from .groups import (
    CrossedModule,
    FiniteGroup,
    GroupAction,
    abelian_coefficients,
    abelian_decomposition,
    adjoint_crossed_module,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    enumerate_homs,
    hom_conjugacy_classes,
    regular_action,
    symmetric_group,
    trivial_group,
    validate_crossed_module,
    validate_group,
)
from .homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    HomologyWorkspace,
    chain_complex,
    chain_complex_of,
    homology,
    homology_of_chain_complex,
    is_point_like,
    map_induces_homology_isomorphism,
    simplicial_chain_map,
)
from .snf import SparseSmithForm, sparse_smith_form
from .cocycles import (
    Cochain0,
    Cocycle1,
    are_equivalent,
    coboundary_transform,
    count_equivalence_classes,
    from_homomorphism,
    holonomy,
    trivial_cocycle,
    validate_cocycle,
)
from .gerbes import (
    GerbeCocycle,
    abelian_class,
    abelian_class_count,
    check_coherence_faces,
    gerbe_coboundary,
    gerbes_equivalent,
    validate_gerbe_cocycle,
)
from .bundles import (
    Bundle,
    bundle_isomorphism,
    local_trivialization_check,
    mapping_cylinder_bundle,
    patch_bundles,
    product_bundle,
    pullback,
    restrict_bundle,
    skeletal_construction,
    total_space,
    validate_bundle,
)
from .classifying import (
    BarComplex,
    ClassificationReport,
    ClassifyingMap,
    MilnorPoint,
    UniversalBundle,
    bar_construction,
    bar_homology,
    classification_check,
    classifying_map,
    classifying_map_is_simplicial,
    pullback_universal,
    universal_bundle,
    validate_milnor_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
