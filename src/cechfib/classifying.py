"""Classifying-space side: bar chains, coordinate-model points,
classifying maps, the universal bundle, and the classification report.

The bar complex of a group is truncated at a configurable dimension;
normalized chains drop every tuple containing the identity.  A strict
cocycle induces a map from its nerve into the bar complex whose
face-compatibility is literally the cocycle law.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from .bundles import Bundle, _lifted, bundle_isomorphism, total_space
from .cocycles import Cocycle1, merge_equivalent, monodromy_representatives
from .covers import Cover
from .errors import DEFAULT_BUDGET, ValidationError, _is_integer
from .groups import FiniteGroup, regular_action
from .homology import ChainComplex, HomologyResult, homology_of_chain_complex
from .snf import SparseRows


class BarComplex(NamedTuple):
    """Normalized bar chains of a group through a truncation dimension."""

    group: FiniteGroup
    truncation: int
    chains: tuple          # chains[k] = sorted tuple of k-tuples
    complex: ChainComplex

    def chain_index(self, k: int, chain: tuple) -> int:
        return self.chains[k].index(chain)


def bar_construction(group: FiniteGroup, truncation: int = 4) -> BarComplex:
    """Chains and boundaries of the one-object classifying construction.

    Degree-k chains are k-tuples of non-identity elements; a boundary
    face that composes two entries to the identity is degenerate and is
    dropped.
    """
    if truncation < 0:
        raise ValidationError("truncation must be nonnegative")
    nontrivial = [g for g in group.elements() if g != 0]
    chains: List[tuple] = [((),)]
    for k in range(1, truncation + 1):
        chains.append(
            tuple(itertools.product(nontrivial, repeat=k))
        )
    boundaries = [
        _sparse_boundary(
            chains[k - 1], (_bar_faces(group, chain) for chain in chains[k])
        )
        for k in range(1, truncation + 1)
    ]
    cc = ChainComplex(
        ranks=tuple(len(c) for c in chains), boundaries=tuple(boundaries)
    )
    return BarComplex(
        group=group, truncation=truncation,
        chains=tuple(chains), complex=cc,
    )


def _sparse_boundary(rows: tuple, faces_by_column) -> SparseRows:
    """Sparse rows of a boundary whose column j is the alternating sum of
    the j-th list of faces; a face of None is degenerate and dropped."""
    index = {c: i for i, c in enumerate(rows)}
    mat = [{} for _ in rows]
    for j, faces in enumerate(faces_by_column):
        column: Dict[int, int] = {}
        for i, face in enumerate(faces):
            if face is not None:
                r = index[face]
                column[r] = column.get(r, 0) + (-1) ** i
        for r, v in column.items():
            if v:
                mat[r][j] = v
    return mat


def _bar_faces(group: FiniteGroup, chain: tuple):
    """Faces in order; a face with an identity entry is None."""
    k = len(chain)
    out = []
    for i in range(k + 1):
        if i == 0:
            face = chain[1:]
        elif i == k:
            face = chain[:-1]
        else:
            merged = group.mul(chain[i - 1], chain[i])
            face = chain[: i - 1] + (merged,) + chain[i + 1:]
        out.append(None if any(g == 0 for g in face) else face)
    return out


def bar_homology(group: FiniteGroup, max_degree: int) -> HomologyResult:
    """Group homology through ``max_degree`` via the bar complex."""
    bar = bar_construction(group, max_degree + 1)
    return homology_of_chain_complex(bar.complex, max_degree)


class MilnorPoint(NamedTuple):
    """Coordinate-model point: simplex coordinates plus pairwise values."""

    coordinates: tuple     # Fractions, finitely many, summing to 1
    values: Mapping        # (i, j) over the support -> group element
    group: FiniteGroup


def validate_milnor_point(
    coordinates: Sequence,
    values: Mapping,
    group: FiniteGroup,
) -> MilnorPoint:
    """Check the four coordinate-model conditions, reporting by number.

    1. entries lie in [0, 1] and sum to 1;
    2. values are indexed by exactly the ordered support pairs;
    3. the diagonal carries the identity;
    4. values compose along every support triple (in particular forcing
       value(j, i) to invert value(i, j)).
    """
    coords = []
    for i, t in enumerate(coordinates):
        try:
            coords.append(Fraction(t))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ValidationError(
                f"coordinate {t!r} at position {i} is not a rational number",
                details={"coordinate": i},
            ) from None
    violations = []
    if any(t < 0 or t > 1 for t in coords) or sum(coords) != 1:
        violations.append((1, "coordinates must lie in [0,1] and sum to 1"))
    support = [i for i, t in enumerate(coords) if t != 0]
    wanted = {(i, j) for i in support for j in support}
    given = {tuple(k) for k in values}
    if wanted != given:
        missing = sorted(wanted - given)[:4]
        spurious = sorted(given - wanted)[:4]
        violations.append(
            (2, f"support pairs mismatch; missing {missing!r}, "
                f"spurious {spurious!r}")
        )
    cleaned = {}
    for k, v in values.items():
        if not _is_integer(v):
            raise ValidationError(
                f"value {v!r} for pair {tuple(k)!r} is not an integer",
                details={"pair": tuple(k)},
            )
        cleaned[tuple(k)] = v
    if any(not (0 <= v < group.order) for v in cleaned.values()):
        violations.append((2, "values out of range for the group"))
    # condition 4 multiplies, so it reads only the values in range
    elements = {k: v for k, v in cleaned.items() if 0 <= v < group.order}
    for i in support:
        if cleaned.get((i, i), 0) != 0:
            violations.append((3, f"diagonal value at ({i}, {i}) is not the identity"))
            break
    failing = next((
        (i, j, k) for i, j, k in itertools.product(support, repeat=3)
        if (i, j) in elements and (j, k) in elements and (i, k) in elements
        and group.mul(elements[(i, j)], elements[(j, k)]) != elements[(i, k)]
    ), None)
    if failing is not None:
        violations.append((4, f"composition fails on triple {failing}"))
    if violations:
        raise ValidationError(
            "coordinate-model conditions violated: "
            + "; ".join(f"[{n}] {msg}" for n, msg in violations),
            details={"violations": violations},
        )
    return MilnorPoint(coordinates=tuple(coords), values=cleaned, group=group)


class ClassifyingMap(NamedTuple):
    """Simplex-level map from a nerve into the bar chains of the group."""

    cocycle: Cocycle1
    bar: BarComplex
    images: Mapping        # nerve simplex (sorted tuple) -> bar tuple

    def image(self, simplex) -> tuple:
        return self.images[tuple(sorted(simplex))]


def classifying_map(cocycle: Cocycle1, truncation: Optional[int] = None) -> ClassifyingMap:
    """Send each nerve simplex to the tuple of its successive edge values.

    Identity entries collapse away (the image then lives in a lower
    degree).  The assignment is face-compatible exactly when the cocycle
    law holds, which a ``Cocycle1`` passed when it was validated, so it
    is not checked again; :func:`classifying_map_is_simplicial` is that
    check as a predicate.
    """
    nerve = cocycle.nerve.complex
    if truncation is None:
        truncation = max(nerve.dim, 1) + 1
    bar = bar_construction(cocycle.group, truncation)
    images: Dict[tuple, tuple] = {}
    for k in range(nerve.dim + 1):
        for simplex in nerve.simplices_of_dim(k):
            images[simplex] = tuple(filter(None, _edge_values(cocycle, simplex)))
    return ClassifyingMap(cocycle=cocycle, bar=bar, images=images)


def _edge_values(cocycle: Cocycle1, simplex: tuple) -> tuple:
    """The values on the successive edges of a sorted nerve simplex."""
    return tuple(map(cocycle.value, simplex, simplex[1:]))


def classifying_map_is_simplicial(cmap: ClassifyingMap) -> bool:
    """Face-compatibility: dropping a nerve vertex matches a bar face.

    Dropping an inner vertex composes the adjacent edge values, so this
    holds for every 2-simplex exactly when the cocycle law does.
    """
    group = cmap.cocycle.group
    nerve = cmap.cocycle.nerve.complex
    for k in range(1, nerve.dim + 1):
        for simplex in nerve.simplices_of_dim(k):
            raw = _edge_values(cmap.cocycle, simplex)
            for drop in range(len(simplex)):
                face = simplex[:drop] + simplex[drop + 1:]
                expected = cmap.images[face]
                if drop == 0:
                    got = raw[1:]
                elif drop == len(simplex) - 1:
                    got = raw[:-1]
                else:
                    got = raw[: drop - 1] + (
                        group.mul(raw[drop - 1], raw[drop]),
                    ) + raw[drop + 1:]
                if tuple(g for g in got if g != 0) != expected:
                    return False
    return True


def classifying_chain_map(cmap: ClassifyingMap, max_degree: int) -> List[SparseRows]:
    """Chain-map matrices nerve -> bar as sparse rows (degenerate images
    map to zero)."""
    nerve = cmap.cocycle.nerve.complex
    mats = []
    for k in range(max_degree + 1):
        src = nerve.simplices_of_dim(k)
        rows = len(cmap.bar.chains[k]) if k <= cmap.bar.truncation else 0
        index = {c: i for i, c in enumerate(cmap.bar.chains[k])} \
            if k <= cmap.bar.truncation else {}
        mat = [{} for _ in range(rows)]
        for j, simplex in enumerate(src):
            image = cmap.images[simplex]
            if len(image) == k:
                mat[index[image]][j] = 1
        mats.append(mat)
    return mats


class UniversalBundle(NamedTuple):
    """Action-groupoid chains over the bar complex: (tuple, fiber point).

    The k-chains are pairs of a normalized bar tuple and a group element;
    forgetting the element is the projection.  Vertices of a chain are
    extracted by iterating the face maps, which is what the pullback
    construction uses.
    """

    group: FiniteGroup
    truncation: int
    chains: tuple          # chains[k] = sorted tuple of (bar tuple, f)
    complex: ChainComplex

    def vertex_of(self, chain: tuple, fiber: int, position: int) -> int:
        """Fiber point at a vertex of the simplex (chain; fiber)."""
        return _universal_vertex(self.group, chain, fiber, position)

    def edge_transition(self, chain: tuple) -> int:
        """Tautological transition value of a 1-chain."""
        if len(chain) != 1:
            raise ValidationError("edge transition needs a 1-chain")
        return chain[0]


def universal_bundle(group: FiniteGroup, truncation: int) -> UniversalBundle:
    """Total chains of the regular action groupoid over the bar chains."""
    if truncation < 1:
        raise ValidationError("truncation must be at least 1")
    nontrivial = [g for g in group.elements() if g != 0]
    chains: List[tuple] = [tuple(((), f) for f in group.elements())]
    for k in range(1, truncation + 1):
        level = []
        for tup in itertools.product(nontrivial, repeat=k):
            for f in group.elements():
                level.append((tup, f))
        chains.append(tuple(level))
    boundaries = [
        _sparse_boundary(
            chains[k - 1],
            (_universal_faces(group, tup, f) for tup, f in chains[k]),
        )
        for k in range(1, truncation + 1)
    ]
    cc = ChainComplex(
        ranks=tuple(len(c) for c in chains), boundaries=tuple(boundaries)
    )
    return UniversalBundle(
        group=group, truncation=truncation,
        chains=tuple(chains), complex=cc,
    )


def _universal_faces(group: FiniteGroup, tup: tuple, f: int) -> list:
    """Faces of the chain (tup; f): each bar face of tup with the point f,
    moved by tup[-1] on the last face; None where the bar face is None."""
    last = len(tup)
    moved = group.mul(tup[-1], f)
    return [
        None if face is None else (face, moved if i == last else f)
        for i, face in enumerate(_bar_faces(group, tup))
    ]


def _universal_vertex(group: FiniteGroup, chain: tuple, fiber: int,
                      position: int) -> int:
    """Fiber point at a vertex of the universal simplex (chain; fiber).

    Repeatedly applies the last face until the wanted position is the
    final vertex, then forgets the leading entries.  With the left
    action convention the result is the suffix product acting on the
    fiber point.
    """
    entries = list(chain)
    point = fiber
    while len(entries) > position:
        last = entries.pop()
        point = group.mul(last, point)
    return point


def pullback_universal(cocycle: Cocycle1) -> Bundle:
    """Pull the universal chains back along the classifying map.

    Each nerve simplex maps to a bar tuple; its lifts are the fiber
    points, and the pulled-back simplex pairs every nerve vertex with the
    fiber point at the corresponding universal vertex.  That vertex rule
    depends on the group alone, so no universal chains are built.  This
    is an independent construction of the quotient total space, used to
    cross-check it.
    """
    nerve = cocycle.nerve.complex
    group = cocycle.group
    pieces = []
    for ordered in nerve._top_sets():
        raw = _edge_values(cocycle, ordered)
        for f in group.elements():
            pieces.append([
                (alpha, _universal_vertex(group, raw, f, pos))
                for pos, alpha in enumerate(ordered)
            ])
    return _lifted(pieces, nerve, group.elements(), regular_action(group))


class ClassificationReport(NamedTuple):
    """Outcome of the two independent class counts plus pullback checks."""

    cocycle_classes: int
    hom_classes: int
    pullbacks_match: tuple
    @property
    def verdict(self) -> bool:
        return (
            self.cocycle_classes == self.hom_classes
            and all(self.pullbacks_match)
        )


def classification_check(
    cover: Cover,
    group: FiniteGroup,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ClassificationReport:
    """Count cocycle classes two ways and cross-check the universal pullback.

    The count by gauge equivalence of monodromy representatives must
    agree with the count of conjugacy classes of homomorphisms from the
    nerve's fundamental group, and for every representative the pullback
    of the universal chains along its classifying map must be isomorphic
    to its quotient total space.
    """
    classes, representatives = monodromy_representatives(cover, group, budget=budget)
    cocycle_classes = len(merge_equivalent(representatives, budget=budget))
    action = regular_action(group)
    matches = []
    for rep in representatives:
        direct = total_space(rep, action)
        pulled = pullback_universal(rep)
        matches.append(
            bundle_isomorphism(pulled, direct, budget=budget) is not None
        )
    return ClassificationReport(
        cocycle_classes=cocycle_classes,
        hom_classes=len(classes),
        pullbacks_match=tuple(matches),
    )
