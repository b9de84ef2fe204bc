"""Reference transition code, kept to test the library's current
versions against.

``patch_bundles`` restricts both locals to every overlapping pair of
parts and compares them, as the library did before it restricted the
glued bundle once per part.  ``gerbes_equivalent`` enumerates every gauge
and every product of shift options and validates each combination through
``gerbe_coboundary``, as the library did before it compared the moved
witnesses alone and then searched depth first; ``gerbe_search_trace``
replays that depth-first search by recursion, to count its guesses.
``are_equivalent`` is the gauge search on its own frame-and-guess loop,
as the library ran it before every search ran on one depth-first loop.
``pullback_universal`` reads the
vertex rule off a built ``UniversalBundle``, as the library did before it
built no universal chains.  ``is_label`` is the per-value label test the
document loaders used before they tested each distinct type once.
``bar_construction``, ``universal_bundle`` and
``classifying_map_is_simplicial`` each write the bar face maps out
themselves, as the library did before all three read one face rule.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

from cechfib import (
    BudgetExceededError,
    SimplicialComplex,
    SimplicialMap,
    ValidationError,
    gerbe_coboundary,
    regular_action,
    restrict_bundle,
    validate_bundle,
)
from cechfib.bundles import Bundle, _lifted
from cechfib.classifying import (
    BarComplex,
    ClassifyingMap,
    UniversalBundle,
    _edge_values,
    _sparse_boundary,
)
from cechfib.cocycles import Cocycle1, EquivalenceResult
from cechfib.complexes import connected_components
from cechfib.errors import DEFAULT_BUDGET
from cechfib.gerbes import GerbeEquivalenceResult
from cechfib.groups import FiniteGroup
from cechfib.homology import ChainComplex


def patch_bundles(cover, locals_: Mapping) -> Bundle:
    indices = list(cover.indices)
    for idx in indices:
        if idx not in locals_:
            raise ValidationError(f"no local bundle for part {idx!r}")
        local = locals_[idx]
        if local.base != cover.parts[idx]:
            raise ValidationError(
                f"local bundle over {idx!r} has the wrong base"
            )
    fibers = {tuple(locals_[idx].fiber) for idx in indices}
    if len(fibers) != 1:
        raise ValidationError("local bundles have different fibers")
    for a, b in itertools.combinations(indices, 2):
        overlap = cover.parts[a].simplices & cover.parts[b].simplices
        if not overlap:
            continue
        sub = SimplicialComplex(overlap)
        ra = restrict_bundle(locals_[a], sub)
        rb = restrict_bundle(locals_[b], sub)
        if ra.total.simplices != rb.total.simplices:
            offending = sorted(
                tuple(sorted(s))
                for s in ra.total.simplices ^ rb.total.simplices
            )[0]
            raise ValidationError(
                f"locals over {a!r} and {b!r} disagree at {offending!r}",
                details={"parts": (a, b), "simplex": offending},
            )
        for v in ra.total.vertices:
            if ra.projection(v) != rb.projection(v):
                raise ValidationError(
                    f"locals over {a!r} and {b!r} project {v!r} differently"
                )
    all_simplices = frozenset().union(
        *(locals_[idx].total.simplices for idx in indices)
    )
    total = SimplicialComplex(all_simplices)
    total.vertices
    vertex_map: Dict = {}
    for idx in indices:
        for v in locals_[idx].total.vertices:
            image = locals_[idx].projection(v)
            if vertex_map.setdefault(v, image) != image:
                raise ValidationError(
                    f"total vertex {v!r} is shared but projects ambiguously"
                )
    projection = SimplicialMap(total, cover.base, vertex_map)
    actions = {id(locals_[idx].action) for idx in indices}
    action = locals_[indices[0]].action if len(actions) == 1 else None
    return validate_bundle(
        Bundle(
            total=total,
            base=cover.base,
            projection=projection,
            fiber=next(iter(fibers)),
            action=action,
        )
    )


def gerbes_equivalent(d1, d2, *, budget: int = DEFAULT_BUDGET):
    if d1.cover != d2.cover:
        raise ValidationError("gerbe data live over different covers")
    if d1.module is not d2.module and (
        d1.module.base != d2.module.base
        or d1.module.fiber != d2.module.fiber
        or d1.module.boundary != d2.module.boundary
        or d1.module.action != d2.module.action
    ):
        raise ValidationError("gerbe data use different crossed modules")
    module = d1.module
    base, fiber = module.base, module.fiber
    indices = d1.cover.indices
    pairs = d1.nerve.keys(2)
    boundary_fibers: Dict[int, List[int]] = {}
    for h in fiber.elements():
        boundary_fibers.setdefault(module.boundary[h], []).append(h)

    gauges = base.order ** len(indices)
    tried = 0
    for number, gauge_tuple in enumerate(
        itertools.product(base.elements(), repeat=len(indices)), 1
    ):
        lam = dict(zip(indices, gauge_tuple))
        options: List[List[int]] = []
        for a, b in pairs:
            conj = base.mul(base.mul(lam[a], d1.edge(a, b)), base.inv(lam[b]))
            need = base.mul(d2.edge(a, b), base.inv(conj))
            choices = boundary_fibers.get(need)
            if not choices:
                break
            options.append(choices)
        feasible = len(options) == len(pairs)
        for combo in itertools.product(*options) if feasible else [None]:
            tried += 1
            if tried > budget:
                raise BudgetExceededError(
                    f"gerbe equivalence search exceeded budget {budget} after "
                    f"{tried - 1} trials, reaching gauge {number} of {gauges}",
                    budget,
                )
            if combo is None:
                break
            shift = dict(zip(pairs, combo))
            transformed = gerbe_coboundary(d1, lam, shift)
            if transformed.witnesses == d2.witnesses and \
                    transformed.edge_values == d2.edge_values:
                return GerbeEquivalenceResult(
                    equivalent=True, gauge=lam, shift=shift
                )
    return GerbeEquivalenceResult(equivalent=False)


def gerbe_search_trace(d1, d2):
    """Whether a depth-first gerbe search finds a hit, and for each guess
    it makes the number of positions set before it.

    Positions are the gauge entries in index order, over the base group,
    then the shifts in pair order, over the shifts that move the pair's
    edge to d2's.  A partial assignment holds while every pair with both
    ends gauged has such a shift and every triple with all three pairs
    shifted moves to d2's witness:
      c' = m_ab * ((lam_a g_ab lam_b^-1) . m_bc) * (lam_a . c) * m_ac^-1
    The search stops at the first full assignment that holds.
    """
    module = d1.module
    base, fiber = module.base, module.fiber
    indices, pairs = d1.cover.indices, d1.nerve.keys(2)
    trace: List[int] = []

    def conjugated(lam, a, b):
        return base.mul(base.mul(lam[a], d1.edge(a, b)), base.inv(lam[b]))

    def shifts(lam, a, b):
        return [h for h in fiber.elements()
                if base.mul(module.boundary[h], conjugated(lam, a, b)) == d2.edge(a, b)]

    def moved(lam, m, a, b, c):
        term = fiber.mul(m[(a, b)], module.act(conjugated(lam, a, b), m[(b, c)]))
        term = fiber.mul(term, module.act(lam[a], d1.witness(a, b, c)))
        return fiber.mul(term, fiber.inv(m[(a, c)]))

    def holds(lam, m):
        return all(shifts(lam, a, b) for a, b in pairs if a in lam and b in lam) and all(
            moved(lam, m, a, b, c) == d2.witness(a, b, c)
            for a, b, c in d1.nerve.keys(3) if {(a, b), (a, c), (b, c)} <= m.keys())

    def walk(lam, m) -> bool:
        if len(lam) < len(indices):
            key = indices[len(lam)]
            extended = [({**lam, key: g}, m) for g in base.elements()]
        elif len(m) < len(pairs):
            key = pairs[len(m)]
            extended = [(lam, {**m, key: h}) for h in shifts(lam, *key)]
        else:
            return True
        for lam2, m2 in extended:
            trace.append(len(lam) + len(m))
            if holds(lam2, m2) and walk(lam2, m2):
                return True
        return False

    return walk({}, {}), trace


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
    if c1.cover != c2.cover:
        raise ValidationError("cocycles live over different covers")
    if c1.group != c2.group:
        raise ValidationError("cocycles take values in different groups")
    group = c1.group
    nerve = c1.nerve
    neighbors: Dict = {}
    for a, b in nerve.keys(2):
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)

    def propagate(root, guess) -> Optional[Dict]:
        trial = {root: guess}
        stack = [root]
        while stack:
            a = stack.pop()
            for b in neighbors.get(a, ()):
                forced = group.mul(
                    group.mul(group.inv(c1.value(a, b)), trial[a]),
                    c2.value(a, b),
                )
                if b not in trial:
                    trial[b] = forced
                    stack.append(b)
                elif trial[b] != forced:
                    return None
        return trial

    mu: Dict = {}
    tried = 0
    settled = 0
    for (root,) in nerve.keys(1):
        if root in mu:
            continue
        for guess in group.elements():
            tried += 1
            if tried > budget:
                components = len(connected_components(nerve.complex))
                raise BudgetExceededError(
                    f"equivalence search exceeded budget {budget} after "
                    f"{tried - 1} guesses, with {settled} of {components} "
                    f"nerve components settled",
                    budget,
                )
            component = propagate(root, guess)
            if component is not None:
                mu.update(component)
                settled += 1
                break
        else:
            return EquivalenceResult(equivalent=False)
    edges = nerve.keys(2)
    pairs = sorted([(a, a) for a in mu] + list(edges) + [(b, a) for a, b in edges])
    bridge = {(a, b): group.mul(c1.value(a, b), mu[b]) for a, b in pairs}
    return EquivalenceResult(equivalent=True, bridge=bridge)


def pullback_universal(cocycle, universal: Optional[object] = None) -> Bundle:
    nerve = cocycle.nerve.complex
    group = cocycle.group
    if universal is None:
        universal = universal_bundle(group, max(nerve.dim, 1))
    if universal.group != group:
        raise ValidationError("universal bundle is for a different group")
    if universal.truncation < nerve.dim:
        raise ValidationError(
            f"universal bundle truncated below the nerve dimension "
            f"({universal.truncation} < {nerve.dim})"
        )
    pieces = []
    for s in nerve.maximal_simplices:
        ordered = tuple(sorted(s))
        raw = tuple(
            cocycle.value(ordered[i], ordered[i + 1])
            for i in range(len(ordered) - 1)
        )
        for f in group.elements():
            pieces.append({
                (ordered[pos], universal.vertex_of(raw, f, pos))
                for pos in range(len(ordered))
            })
    return _lifted(pieces, nerve, group.elements(), regular_action(group))


def is_label(v) -> bool:
    return isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool))


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
