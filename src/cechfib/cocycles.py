"""Group-valued transition cocycles over a good cover.

Values live on ordered index pairs with nonempty intersection; the
diagonal and reversed values are derived, never stored.  Every cocycle
sits on a cover proven good, whose nerve, keys and presentation it
shares.
Two cocycles over one shared cover are equivalent when a 0-cochain mu
gives g'_ab = mu_a^-1 * g_ab * mu_b; that gauge is found by a search on
the cover's nerve.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .complexes import connected_components
from .covers import Cover, NerveComplex, refuse_off_nerve
from .errors import DEFAULT_BUDGET, ValidationError, _is_integer, check_budget, depth_first
from .groups import FiniteGroup, enumerate_homs, hom_conjugacy_classes


class Cocycle1(NamedTuple):
    """Strict transition cocycle: one group element per ordered pair."""

    cover: Cover
    group: FiniteGroup
    values: Mapping  # (alpha, beta) with alpha < beta -> element

    @property
    def nerve(self) -> NerveComplex:
        return self.cover.nerve

    def value(self, alpha, beta) -> int:
        """Value on any ordered pair, extending by inverses and identity."""
        if alpha == beta:
            return 0
        if (alpha, beta) in self.values:
            return self.values[(alpha, beta)]
        return self.group.inv(self.values[(beta, alpha)])


class Cochain0(NamedTuple):
    """One group element per cover index."""

    cover: Cover
    group: FiniteGroup
    values: Mapping  # index -> element


def validate_cocycle(cover: Cover, group: FiniteGroup, values: Mapping) -> Cocycle1:
    """Check the cocycle law on every nonempty ordered triple.

    The cover must be good, so that a single element per intersection is
    a faithful model of a locally constant transition function.
    """
    nerve = cover.nerve
    cover.require_good()
    cleaned: Dict[tuple, int] = {}
    for pair in nerve.keys(2):
        if pair not in values:
            raise ValidationError(
                f"missing value for overlapping pair {pair!r}",
                details={"pair": pair},
            )
        g = values[pair]
        if not _is_integer(g):
            raise ValidationError(
                f"value {g!r} for pair {pair!r} is not an integer",
                details={"pair": pair},
            )
        if not (0 <= g < group.order):
            raise ValidationError(f"value {g} out of range for pair {pair!r}")
        cleaned[pair] = g
    refuse_off_nerve(values, cleaned, "values given for non-overlapping pairs")
    cocycle = Cocycle1(cover=cover, group=group, values=cleaned)
    for a, b, c in nerve.keys(3):
        lhs = group.mul(cocycle.value(a, b), cocycle.value(b, c))
        if lhs != cocycle.value(a, c):
            raise ValidationError(
                f"cocycle law fails on triple ({a!r}, {b!r}, {c!r})",
                details={"triple": (a, b, c)},
            )
    return cocycle


def trivial_cocycle(cover: Cover, group: FiniteGroup) -> Cocycle1:
    values = {pair: 0 for pair in cover.nerve.keys(2)}
    return validate_cocycle(cover, group, values)


def coboundary_transform(cocycle: Cocycle1, cochain: Cochain0) -> Cocycle1:
    """Twist by a 0-cochain: value' = lam_a * value * lam_b^-1."""
    if cochain.cover != cocycle.cover or cochain.group != cocycle.group:
        raise ValidationError("cochain is over a different cover or group")
    group = cocycle.group
    lam = cochain.values
    for idx in cocycle.cover.indices:
        if idx not in lam:
            raise ValidationError(f"cochain misses index {idx!r}")
    values = {
        (a, b): group.mul(group.mul(lam[a], v), group.inv(lam[b]))
        for (a, b), v in cocycle.values.items()
    }
    return validate_cocycle(cocycle.cover, group, values)


def holonomy(cocycle: Cocycle1) -> tuple:
    """Generator images of the monodromy homomorphism.

    Each spanning-tree vertex x gets the product W(x) of values along the
    tree path from the basepoint; a generator edge (u, v) maps to
    W(u) * value(u, v) * W(v)^-1.  The cocycle law on nerve triangles
    makes every relation word evaluate to the identity.
    """
    presentation = cocycle.nerve.presentation
    group = cocycle.group
    parent: Dict = {presentation.basepoint: None}
    adjacency: Dict = {}
    for u, v in presentation.tree_edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    transport = {presentation.basepoint: 0}
    frontier = [presentation.basepoint]
    while frontier:
        x = frontier.pop()
        for y in adjacency.get(x, ()):
            if y not in transport:
                transport[y] = group.mul(transport[x], cocycle.value(x, y))
                frontier.append(y)
    images = []
    for u, v in presentation.generator_edges:
        word = group.mul(
            group.mul(transport[u], cocycle.value(u, v)),
            group.inv(transport[v]),
        )
        images.append(word)
    return tuple(images)


def from_homomorphism(
    images: Tuple[int, ...], cover: Cover, group: FiniteGroup
) -> Cocycle1:
    """Cocycle with identity on tree edges and the given generator images.

    Inverts :func:`holonomy` on the nose: tree transport is trivial, so
    the monodromy of the result is exactly ``images``.  Each relation is
    g_ab g_bc g_ac^-1 on one nerve triangle with tree edges at the
    identity, so the cocycle law checks the relations, after the ranges.
    """
    nerve = cover.nerve
    presentation = nerve.presentation
    if len(images) != presentation.generator_count:
        raise ValidationError(
            f"expected {presentation.generator_count} generator images, "
            f"got {len(images)}"
        )
    values: Dict[tuple, int] = {}
    gen_index = {edge: i for i, edge in enumerate(presentation.generator_edges)}
    for pair in nerve.keys(2):
        values[pair] = images[gen_index[pair]] if pair in gen_index else 0
    return validate_cocycle(cover, group, values)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    bridge: Optional[Mapping] = None  # (c1 index, c2 index) -> element


def are_equivalent(
    c1: Cocycle1,
    c2: Cocycle1,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceResult:
    """Search for a gauge mu with c2(a, b) = mu_a^-1 * c1(a, b) * mu_b.

    Both cocycles must live over one cover and take values in one group.
    Nerve components are taken in index order.  At a component's least
    index, mu runs through the group elements in order, one budget unit
    per guess, and mu_b = c1(a, b)^-1 * mu_a * c2(a, b) is propagated
    along nerve edges; the first guess that propagates consistently
    fixes the component.  The bridge h_ab = c1(a, b) * mu_b names every
    ordered overlapping pair, a = b included: together with both
    cocycles it forms one cocycle over the cover joined with itself, and
    its values in sorted pair order are the lexicographically least such
    extension.
    """
    check_budget(budget)
    if c1.cover != c2.cover:
        raise ValidationError("cocycles live over different covers")
    if c1.group != c2.group:
        raise ValidationError("cocycles take values in different groups")
    group = c1.group
    nerve = c1.nerve
    roots = [a for (a,) in nerve.keys(1)]
    table, inverse = group.table, group.inverse
    # the arc a -> b holds (b, c1(a, b)^-1, c2(a, b)), so that propagation
    # sets mu_b = c1(a, b)^-1 * mu_a * c2(a, b); arcs keep neighbour order
    arcs: Dict = {}
    for pair in nerve.keys(2):
        a, b = pair
        g1, g2 = c1.values[pair], c2.values[pair]
        arcs.setdefault(a, []).append((b, inverse[g1], g2))
        arcs.setdefault(b, []).append((a, g1, inverse[g2]))
    mu: Dict = {}
    settled: List = []  # component roots, in order; never retracted

    def advance(i: int) -> int:  # the least index propagation has not set
        while i < len(roots) and roots[i] in mu:
            i += 1
        return i

    def choices(i: int):
        # a settled root has no choice left: backing up into it ends the search
        return (g for g in group.elements() if roots[i] not in mu)

    def assign(i: int, guess: int) -> bool:
        trial = {roots[i]: guess}
        stack = [roots[i]]
        while stack:
            a = stack.pop()
            for b, left, right in arcs.get(a, ()):
                forced = table[table[left][trial[a]]][right]
                if b not in trial:
                    trial[b] = forced
                    stack.append(b)
                elif trial[b] != forced:
                    return False
        mu.update(trial)
        settled.append(roots[i])
        return True

    def exceeded(spent: int) -> str:
        components = len(connected_components(nerve.complex))
        return (f"equivalence search exceeded budget {budget} after {spent} guesses, "
                f"with {len(settled)} of {components} nerve components settled")

    for _ in depth_first(len(roots), advance, choices, assign, settled,
                         lambda mark: None, budget, exceeded):
        edges = nerve.keys(2)
        pairs = sorted([(a, a) for a in mu] + list(edges) + [(b, a) for a, b in edges])
        bridge = {(a, b): group.mul(c1.value(a, b), mu[b]) for a, b in pairs}
        return EquivalenceResult(equivalent=True, bridge=bridge)
    return EquivalenceResult(equivalent=False)


def monodromy_representatives(
    cover: Cover,
    group: FiniteGroup,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Tuple[list, List[Cocycle1]]:
    """The conjugacy classes of homomorphisms from the fundamental group
    of the cover's nerve, and one cocycle per class (the first member,
    made into a cocycle by :func:`from_homomorphism`)."""
    cover.require_good()
    homs = enumerate_homs(cover.nerve.presentation, group, budget=budget)
    classes = hom_conjugacy_classes(homs, group)
    representatives = [from_homomorphism(cls[0], cover, group) for cls in classes]
    return classes, representatives


def merge_equivalent(
    cocycles: List[Cocycle1], *, budget: int = DEFAULT_BUDGET
) -> List[List[int]]:
    """Positions of the cocycles grouped by equivalence, first fit in order."""
    merged: List[List[int]] = []
    for i, cocycle in enumerate(cocycles):
        for bucket in merged:
            if are_equivalent(cocycles[bucket[0]], cocycle, budget=budget).equivalent:
                bucket.append(i)
                break
        else:
            merged.append([i])
    return merged


def count_equivalence_classes(
    cover: Cover,
    group: FiniteGroup,
    *,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of cocycle classes over a good cover with connected nerve.

    Enumerates monodromy representatives (one cocycle per conjugacy class
    of homomorphisms) and merges them by the gauge search.
    """
    _, representatives = monodromy_representatives(cover, group, budget=budget)
    return len(merge_equivalent(representatives, budget=budget))
