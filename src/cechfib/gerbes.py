"""Transition data one level up: edge values in a base group twisted by
witnesses in a crossed module, with tetrahedron coherence.

The two laws:
  triangle     g_ab * g_bc = boundary(c_abc) * g_ac
  tetrahedron  c_abc * c_acd = (g_ab . c_bcd) * c_abd
where . is the crossed-module action.  The tetrahedron law is also
re-derived independently by pasting 2-cells in the associated strict
2-group, and the trivial-base abelian case reduces to degree-2 cochain
cohomology of the nerve, computed by Smith reduction.  Equivalence is
decided by one depth-first search over gauge entries, then shifts.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, NamedTuple, Optional

from .covers import Cover, NerveComplex, refuse_off_nerve
from .errors import DEFAULT_BUDGET, ValidationError, _is_integer, check_budget, depth_first
from .groups import CrossedModule, abelian_decomposition, adjoint_crossed_module
from .homology import LatticeQuotient, simplex_boundary_matrix
from .snf import sparse_columns


class GerbeCocycle(NamedTuple):
    """Edge values on ordered pairs plus witnesses on ordered triples."""

    cover: Cover
    module: CrossedModule
    edge_values: Mapping   # (a, b) -> element of the base group
    witnesses: Mapping     # (a, b, c) -> element of the fiber group

    @property
    def nerve(self) -> NerveComplex:
        return self.cover.nerve

    def edge(self, a, b) -> int:
        if a == b:
            return 0
        if (a, b) in self.edge_values:
            return self.edge_values[(a, b)]
        return self.module.base.inv(self.edge_values[(b, a)])

    def witness(self, a, b, c) -> int:
        return self.witnesses[(a, b, c)]


def validate_gerbe_cocycle(
    cover: Cover,
    module: CrossedModule,
    edge_values: Mapping,
    witnesses: Mapping,
) -> GerbeCocycle:
    """Check both laws on every nonempty triple and quadruple."""
    nerve = cover.nerve
    cover.require_good()
    base, fiber = module.base, module.fiber
    checked = []
    for size, given, what, many, order, detail in (
        (2, edge_values, "edge value", "edge values", base.order, "pair"),
        (3, witnesses, "witness", "witnesses", fiber.order, "triple"),
    ):
        kept: Dict[tuple, int] = {}
        for key in nerve.keys(size):
            if key not in given:
                raise ValidationError(f"missing {what} for {key!r}")
            v = given[key]
            if not _is_integer(v):
                raise ValidationError(
                    f"{what} {v!r} at {key!r} is not an integer",
                    details={detail: key},
                )
            if not (0 <= v < order):
                raise ValidationError(f"{what} {v} out of range at {key!r}")
            kept[key] = v
        refuse_off_nerve(given, kept, f"{many} given for non-overlapping {detail}s")
        checked.append(kept)
    edges, tris = checked
    data = GerbeCocycle(
        cover=cover, module=module, edge_values=edges, witnesses=tris,
    )
    for a, b, c in nerve.keys(3):
        lhs = base.mul(data.edge(a, b), data.edge(b, c))
        rhs = base.mul(module.boundary[data.witness(a, b, c)], data.edge(a, c))
        if lhs != rhs:
            raise ValidationError(
                f"triangle law fails on ({a!r}, {b!r}, {c!r})",
                details={"law": "triangle", "tuple": (a, b, c)},
            )
    for a, b, c, d in nerve.keys(4):
        lhs = fiber.mul(data.witness(a, b, c), data.witness(a, c, d))
        rhs = fiber.mul(
            module.act(data.edge(a, b), data.witness(b, c, d)),
            data.witness(a, b, d),
        )
        if lhs != rhs:
            raise ValidationError(
                f"tetrahedron law fails on ({a!r}, {b!r}, {c!r}, {d!r})",
                details={"law": "tetrahedron", "tuple": (a, b, c, d)},
            )
    return data


def gerbe_from_cocycle(cocycle) -> GerbeCocycle:
    """View a strict cocycle as gerbe data with identity witnesses."""
    module = adjoint_crossed_module(cocycle.group)
    witnesses = {key: 0 for key in cocycle.nerve.keys(3)}
    return validate_gerbe_cocycle(
        cocycle.cover, module, dict(cocycle.values), witnesses,
    )


def gerbe_coboundary(
    data: GerbeCocycle,
    lam: Mapping,
    shift: Mapping,
) -> GerbeCocycle:
    """Gauge transform by lam (index -> base) and shift (pair -> fiber).

    New edges are boundary(shift) * lam-conjugated edges; the witness
    transform is the unique one compatible with the triangle law:

      c' = m_ab * (g'_ab-without-m . m_bc) * (lam_a . c) * m_ac^-1

    where g'-without-m is lam_a g_ab lam_b^-1.  Validity of the output is
    re-checked, never assumed.
    """
    for idx in data.cover.indices:
        if idx not in lam:
            raise ValidationError(f"gauge misses index {idx!r}")
    for pair in data.nerve.keys(2):
        if pair not in shift:
            raise ValidationError(f"shift misses pair {pair!r}")
    return validate_gerbe_cocycle(data.cover, data.module, *_moved(data, lam, shift))


def _moved(data: GerbeCocycle, lam: Mapping, shift: Mapping) -> tuple:
    """The edges and witnesses of the gauge transform, unchecked."""
    boundary, mul = data.module.boundary, data.module.base.mul
    return (
        {(a, b): mul(boundary[shift[(a, b)]], _conjugated(data, lam, a, b))
         for a, b in data.nerve.keys(2)},
        {t: _moved_witness(data, lam, shift, *t) for t in data.nerve.keys(3)},
    )


def _conjugated(data: GerbeCocycle, lam: Mapping, a, b) -> int:
    base = data.module.base
    return base.mul(base.mul(lam[a], data.edge(a, b)), base.inv(lam[b]))


def _moved_witness(data: GerbeCocycle, lam: Mapping, shift: Mapping, a, b, c) -> int:
    """The moved witness on (a, b, c), from lam at a and b and three shifts."""
    module, mul = data.module, data.module.fiber.mul
    moved = module.act(_conjugated(data, lam, a, b), shift[(b, c)])
    term = mul(mul(shift[(a, b)], moved), module.act(lam[a], data.witness(a, b, c)))
    return mul(term, module.fiber.inv(shift[(a, c)]))


class TwoCell(NamedTuple):
    """2-cell of the strict 2-group: morphism src -> boundary(h) * src."""

    h: int
    src: int


def _cell_target(module: CrossedModule, cell: TwoCell) -> int:
    return module.base.mul(module.boundary[cell.h], cell.src)


def _vertical(module: CrossedModule, second: TwoCell, first: TwoCell) -> TwoCell:
    if second.src != _cell_target(module, first):
        raise ValidationError("2-cells do not compose vertically")
    return TwoCell(h=module.fiber.mul(second.h, first.h), src=first.src)


def _whisker_right(module: CrossedModule, cell: TwoCell, g: int) -> TwoCell:
    return TwoCell(h=cell.h, src=module.base.mul(cell.src, g))


def _whisker_left(module: CrossedModule, g: int, cell: TwoCell) -> TwoCell:
    return TwoCell(h=module.act(g, cell.h), src=module.base.mul(g, cell.src))


def check_coherence_faces(data: GerbeCocycle) -> bool:
    """Re-derive the quadruple coherence by pasting 2-cells.

    For each nonempty quadruple the witness square is composed two ways
    inside the strict 2-group (whisker the inner witness against the two
    outer ones); the data is coherent iff the two pastings agree as
    2-cells on every quadruple.  Triangle-valid shapes are required since
    they type the 2-cells.
    """
    module = data.module
    base = module.base

    def cell(a, b, c) -> TwoCell:
        two_cell = TwoCell(h=data.witness(a, b, c), src=data.edge(a, c))
        expected = base.mul(data.edge(a, b), data.edge(b, c))
        if _cell_target(module, two_cell) != expected:
            raise ValidationError(
                f"triangle data at ({a!r}, {b!r}, {c!r}) does not type-check"
            )
        return two_cell

    for a, b, c, d in data.nerve.keys(4):
        # route 1: g_ad => g_ab g_bd => g_ab g_bc g_cd
        route1 = _vertical(
            module,
            _whisker_left(module, data.edge(a, b), cell(b, c, d)),
            cell(a, b, d),
        )
        # route 2: g_ad => g_ac g_cd => g_ab g_bc g_cd
        route2 = _vertical(
            module,
            _whisker_right(module, cell(a, b, c), data.edge(c, d)),
            cell(a, c, d),
        )
        if route1 != route2:
            return False
    return True


class CechClassifier:
    """Degree-2 cochain classes of a nerve with finite abelian coefficients.

    Coefficients are decomposed into cyclic factors Z/m.  Per factor the
    mod-m cocycles {v : delta2 v = 0 mod m} modulo the coboundaries and
    m times the lattice are one :class:`~cechfib.homology.LatticeQuotient`
    with generator columns [delta1 | m I], giving canonical labels and the
    total class count.
    """

    def __init__(self, nerve: NerveComplex, coefficients):
        self.nerve = nerve
        self.coefficients = coefficients
        self.factors, self.coords = abelian_decomposition(coefficients)
        cx = nerve.complex
        self.triangles = cx.simplices_of_dim(2)
        dim = len(self.triangles)
        edges = cx.simplex_count(1)
        delta1 = sparse_columns(simplex_boundary_matrix(cx, 2), dim)
        delta2 = sparse_columns(
            simplex_boundary_matrix(cx, 3), cx.simplex_count(3)
        )
        self._quotients = [
            LatticeQuotient(
                delta2, dim,
                [{**row, edges + i: m} for i, row in enumerate(delta1)],
                edges + dim, m,
            )
            for m in self.factors
        ]
        # the generators include m times the lattice, so each quotient is finite
        self.class_count = math.prod(
            math.prod(quotient.group.torsion) for quotient in self._quotients
        )

    def label(self, witnesses: Mapping) -> tuple:
        out = []
        for axis, quotient in enumerate(self._quotients):
            vec = [
                self.coords[witnesses[tuple(t)]][axis] for t in self.triangles
            ]
            out.extend(quotient.label(vec))
        return tuple(out)


def abelian_classifier(data: GerbeCocycle) -> CechClassifier:
    """The classifier of the witness data's degree-2 classes.

    Requires a trivial base group and abelian fiber.
    """
    if data.module.base.order != 1:
        raise ValidationError("base group must be trivial")
    if not data.module.fiber.is_abelian:
        raise ValidationError("fiber group must be abelian")
    return CechClassifier(data.nerve, data.module.fiber)


def abelian_class(data: GerbeCocycle) -> tuple:
    """Canonical label of the witness data in degree-2 cohomology.

    Requires a trivial base group and abelian fiber; two data sets get
    the same label exactly when they differ by a coboundary.
    """
    return abelian_classifier(data).label(data.witnesses)


def abelian_class_count(nerve: NerveComplex, coefficients) -> int:
    return CechClassifier(nerve, coefficients).class_count


class GerbeEquivalenceResult(NamedTuple):
    equivalent: bool
    gauge: Optional[Mapping] = None
    shift: Optional[Mapping] = None


def gerbes_equivalent(
    d1: GerbeCocycle,
    d2: GerbeCocycle,
    *,
    budget: int = DEFAULT_BUDGET,
) -> GerbeEquivalenceResult:
    """Exhaustive depth-first search for a gauge and shift taking one
    datum to the other, one budget unit per guess.  Gauge entries are
    guessed in index order; an entry fails once a pair ending at it needs
    an edge outside the boundary's image.  Shifts are guessed in pair
    order over the boundary fiber that moves the pair's edge to d2's, and
    a triple is compared with d2 once its last pair has a shift.  So the
    first hit is the least (gauge, shift).
    """
    check_budget(budget)
    if d1.cover != d2.cover:
        raise ValidationError("gerbe data live over different covers")
    if d1.module is not d2.module and (
        d1.module.base != d2.module.base
        or d1.module.fiber != d2.module.fiber
        or d1.module.boundary != d2.module.boundary
        or d1.module.action != d2.module.action
    ):
        raise ValidationError("gerbe data use different crossed modules")
    module, base = d1.module, d1.module.base
    indices = d1.cover.indices
    pairs = d1.nerve.keys(2)
    boundary_fibers: Dict[int, List[int]] = {}
    for h in module.fiber.elements():
        boundary_fibers.setdefault(module.boundary[h], []).append(h)

    n = len(indices)
    ending = {idx: [] for idx in indices}  # pairs by their later index
    closing = {pair: [] for pair in pairs}  # triples by their last pair
    for pair in pairs:
        ending[pair[1]].append(pair)
    for t in d1.nerve.keys(3):
        closing[t[1:]].append(t)
    lam, shift = {}, {}
    trail: List[int] = []  # positions set; stale values are rewritten before use

    def need(a, b) -> int:  # the boundary of the shift on (a, b)
        return base.mul(d2.edge(a, b), base.inv(_conjugated(d1, lam, a, b)))

    def choices(i: int):
        return base.elements() if i < n else boundary_fibers[need(*pairs[i - n])]

    def assign(i: int, x: int) -> bool:
        trail.append(i)
        if i < n:
            lam[indices[i]] = x
            return all(need(*pair) in boundary_fibers for pair in ending[indices[i]])
        shift[pairs[i - n]] = x
        return all(_moved_witness(d1, lam, shift, *t) == d2.witness(*t)
                   for t in closing[pairs[i - n]])

    def retract(mark: int) -> None:
        del trail[mark:]

    def exceeded(spent: int) -> str:
        return (f"gerbe equivalence search exceeded budget {budget} after {spent} "
                f"guesses, with {min(len(trail), n)} of {n} gauge entries and "
                f"{max(len(trail) - n, 0)} of {len(pairs)} shifts set")

    for _ in depth_first(n + len(pairs), lambda i: i, choices, assign,
                         trail, retract, budget, exceeded):
        return GerbeEquivalenceResult(equivalent=True, gauge=lam, shift=shift)
    return GerbeEquivalenceResult(equivalent=False)
