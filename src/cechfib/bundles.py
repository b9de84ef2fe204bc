"""Combinatorial fiber bundles: quotient and skeletal constructions,
pullbacks, restriction, patching, and fiberwise mapping cylinders.

Totals are simplicial complexes whose simplices project isomorphically
to base simplices (discrete fibers make every local comparison map a
bijection, so the covering-type rigidity is exact, not approximate).
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    _image_keys,
    _in_order,
    build_complex,
    mapping_cylinder,
    simplex_key,
    uncovered_simplices,
    union_complexes,
)
from .cocycles import Cocycle1
from .errors import DEFAULT_BUDGET, ValidationError, check_budget, depth_first
from .groups import GroupAction


class Bundle:
    """Total complex with a rigid projection and a finite fiber.

    Fibers and lifts are read from two indexes over the total, each
    built on first use and then kept.  Two bundles are equal when their
    five fields are.
    """

    def __init__(self, total: SimplicialComplex, base: SimplicialComplex,
                 projection: SimplicialMap, fiber: tuple,
                 action: Optional[GroupAction] = None):
        self.total = total
        self.base = base
        self.projection = projection
        self.fiber = fiber
        self.action = action

    def _astuple(self) -> tuple:
        return self.total, self.base, self.projection, self.fiber, self.action

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return (f"Bundle(total={self.total!r}, base={self.base!r}, "
                f"projection={self.projection!r}, fiber={self.fiber!r}, "
                f"action={self.action!r})")

    @cached_property
    def _fibers(self) -> Dict[object, tuple]:
        """Total vertices by their base vertex, in total-vertex order."""
        fibers: Dict[object, list] = {}
        base_of = self.projection.vertex_map
        for v in self.total.vertices:
            fibers.setdefault(base_of[v], []).append(v)
        return {b: tuple(vs) for b, vs in fibers.items()}

    @cached_property
    def _over(self) -> Dict[tuple, list]:
        """Total simplices by their image, both as sorted vertex tuples,
        in no order."""
        over: Dict[tuple, list] = {}
        simplices = list(self.total.simplex_tuples())
        images = _image_keys(self.projection.vertex_map, simplices)
        for key, t in zip(images, simplices):
            over.setdefault(key, []).append(t)
        return over

    def fiber_over(self, base_vertex) -> tuple:
        return self._fibers.get(base_vertex, ())

    def _lifts(self, key: tuple) -> list:
        """Total simplices, as sorted vertex tuples, projecting onto the
        base simplex with sorted vertex tuple ``key``, in no order."""
        return [t for t in self._over.get(key, ()) if len(t) == len(key)]

    def lifts_of(self, base_simplex) -> list:
        """Total simplices projecting onto the given base simplex, in the
        order of their sorted vertex tuples."""
        return list(map(frozenset, _in_order(self._lifts(simplex_key(base_simplex)))))


def validate_bundle(bundle: Bundle) -> Bundle:
    """Check projection rigidity, the constant fiber count and the lifts
    of every maximal base simplex.

    Endpoints are compared by identity before equality.  Rigidity is
    read from the projection, which learned it while checking its images
    or from its maker, or computes it once; only a collapse is located in
    order.
    """
    proj = bundle.projection
    if (proj.source is not bundle.total and proj.source != bundle.total) or (
        proj.target is not bundle.base and proj.target != bundle.base
    ):
        raise ValidationError("projection endpoints do not match the bundle")
    if not proj._keeps_dimensions():
        t = min(t for t, image in zip(proj.source._top_sets(), proj._top_images())
                if len(image) != len(t))
        raise ValidationError(
            f"projection collapses simplex {t!r}", details={"simplex": t},
        )
    size = len(bundle.fiber)
    for v in bundle.base.vertices:
        count = len(bundle.fiber_over(v))
        if count != size:
            raise ValidationError(
                f"fiber over {v!r} has {count} vertices, want {size}",
                details={"vertex": v},
            )
    _check_lifts(bundle, size)
    return bundle


def _check_lifts(bundle: Bundle, size: int) -> None:
    """Over each maximal base simplex, require ``size`` lifts that
    partition the fiber over each of its vertices, and every maximal
    total simplex to be such a lift.

    The projection keeps sizes, so a lift of a maximal base simplex lies
    in no larger total simplex: the lifts are read off the maximal total
    simplices alone, grouped by their image.
    """
    proj = bundle.projection
    lifts: Dict[tuple, list] = {}
    for key, t in zip(proj._top_images(), proj.source._top_sets()):
        lifts.setdefault(key, []).append(t)
    tops = bundle.base._top_sets()
    wrong = [s for s in tops if len(lifts.get(s, ())) != size]
    if wrong:
        s = min(wrong)
        raise ValidationError(
            f"base simplex {s!r} has {len(lifts.get(s, ()))} lifts, want {size}",
            details={"simplex": s},
        )
    # size lifts, each with one vertex over each vertex of s, partition
    # the fibers over s exactly when no two share a vertex
    wrong = [s for s in tops
             if len(set(chain.from_iterable(lifts.get(s, ())))) != size * len(s)]
    if wrong:
        s = min(wrong)
        raise ValidationError(
            f"lifts of base simplex {s!r} share a vertex",
            details={"simplex": s},
        )
    extra = lifts.keys() - set(tops)
    if extra:
        t = min(chain.from_iterable(map(lifts.__getitem__, extra)))
        raise ValidationError(
            f"total simplex {t!r} lies over no maximal base simplex",
            details={"simplex": t},
        )


_FIRST = itemgetter(0)


def _lifted(pieces, base, fiber, action) -> Bundle:
    """The bundle whose total is the closure of ``pieces``, each a collection
    of (base vertex, ...) pairs with one pair over each vertex of a base
    simplex, projected by first entries: by construction a simplicial
    map that keeps every simplex's size.  A maximal total simplex sorts
    by its distinct base vertices, so its image is its first entries in
    order."""
    total = build_complex(pieces)
    projection = SimplicialMap._trusted(
        total, base, {v: v[0] for v in total.vertices}, rigid=True,
        images=[tuple(map(_FIRST, t)) for t in total._top_sets()],
    )
    return Bundle(total=total, base=base, projection=projection,
                  fiber=tuple(fiber), action=action)


def total_space(cocycle: Cocycle1, action: GroupAction) -> Bundle:
    """Quotient-style total space over the nerve of the cocycle's cover.

    Vertices are (index, fiber point); the lift of a nerve simplex through
    a fiber point at its last vertex transports backwards through the
    transition values, so each simplex has exactly one lift per fiber
    point.
    """
    if action.group != cocycle.group:
        raise ValidationError("action group differs from cocycle group")
    nerve = cocycle.nerve.complex
    act = action.act
    simplices = []
    for ordered in nerve._top_sets():
        last = ordered[-1]
        values = [cocycle.value(alpha, last) for alpha in ordered]
        for f in action.fiber:
            simplices.append([(alpha, act(g, f)) for alpha, g in zip(ordered, values)])
    return validate_bundle(_lifted(simplices, nerve, action.fiber, action))


def skeletal_construction(cocycle: Cocycle1, action: GroupAction) -> Bundle:
    """Total space assembled skeleton by skeleton.

    Level 0 is one copy of the fiber per nerve vertex.  At level n each
    n-simplex acquires the lifts obtained by extending a lift of its
    first facet through the edge value at the leading index pair and
    keeping only extensions whose every facet restriction was already
    built; the cocycle law is what makes those boundary assemblies close
    up into lifts.
    """
    if action.group != cocycle.group:
        raise ValidationError("action group differs from cocycle group")
    nerve = cocycle.nerve.complex
    group = cocycle.group
    lifts: Dict[tuple, set] = {}
    for (v,) in nerve.simplices_of_dim(0):
        lifts[(v,)] = {((v, f),) for f in action.fiber}
    for n in range(1, nerve.dim + 1):
        for simplex in nerve.simplices_of_dim(n):
            recorded = set()
            tail = simplex[1:]
            leading = cocycle.value(simplex[0], simplex[1])
            for tail_lift in sorted(lifts[tail]):
                fiber_at_next = tail_lift[0][1]
                extended = ((simplex[0], action.act(leading, fiber_at_next)),) \
                    + tail_lift
                ok = True
                for drop in range(len(simplex)):
                    facet = simplex[:drop] + simplex[drop + 1:]
                    facet_lift = extended[:drop] + extended[drop + 1:]
                    if facet_lift not in lifts[facet]:
                        ok = False
                        break
                if ok:
                    recorded.add(extended)
            lifts[simplex] = recorded
    pieces = [lift for t in nerve._top_sets() for lift in lifts[t]]
    return validate_bundle(_lifted(pieces, nerve, action.fiber, action))


def product_bundle(base: SimplicialComplex, fiber) -> Bundle:
    """Trivial bundle: one horizontal copy of the base per fiber point."""
    fiber = tuple(fiber)
    pieces = [[(v, f) for v in t] for t in base._top_sets() for f in fiber]
    return _lifted(pieces, base, fiber, None)


def pullback(bundle: Bundle, f: SimplicialMap) -> Bundle:
    """Pull the bundle back along a map into its base.

    Total simplices are pairs (simplex upstairs in the new base, lift of
    its image); vertices are tagged (new base vertex, old total vertex).
    """
    if f.target != bundle.base:
        raise ValidationError("map does not land in the bundle's base")
    pieces = []
    base_of = bundle.projection.vertex_map.__getitem__
    image_of = f.vertex_map
    for s, image in zip(f.source._top_sets(), f._top_images()):
        for lift in bundle._lifts(image):
            over = dict(zip(map(base_of, lift), lift))
            pieces.append([(x, over[image_of[x]]) for x in s])
    return validate_bundle(_lifted(pieces, f.source, bundle.fiber, bundle.action))


def restrict_bundle(bundle: Bundle, sub: SimplicialComplex) -> Bundle:
    """Restriction to a subcomplex of the base, keeping vertex labels."""
    if not sub.is_subcomplex_of(bundle.base):
        raise ValidationError("restriction target is not a subcomplex")
    over = bundle._over
    total = SimplicialComplex._of_sorted(chain.from_iterable(
        over.get(image, ()) for image in sub.simplex_tuples()
    ))
    projection = SimplicialMap._trusted(
        total, sub, {v: bundle.projection(v) for v in total.vertices}
    )
    return Bundle(
        total=total,
        base=sub,
        projection=projection,
        fiber=bundle.fiber,
        action=bundle.action,
    )


def bundle_isomorphism(
    b1: Bundle,
    b2: Bundle,
    *,
    budget: int = DEFAULT_BUDGET,
) -> Optional[Dict]:
    """Fiber-preserving simplicial isomorphism over a common base.

    Total vertices of ``b1`` are taken in base-vertex order, then fiber
    order.  The least unassigned one branches over its ``b2`` fiber in
    order, skipping images already used, one budget unit per guess.
    Each assignment e -> w is propagated along lifted edges: for every
    base vertex b' that e has neighbours over, w must have some, and
    when w has exactly one, every neighbour of e over b' is forced to
    it.  A total simplex is checked once the search has passed its last
    vertex in branch order.  Forced images hold in every isomorphism
    extending the guesses, so the first hit is the lexicographically
    least witness.  Returns the total-vertex bijection, or None.

    Two bundles with the same total and the same fibers get the identity
    at once, spending no budget: it is the search's first hit, since
    with every earlier vertex fixed each vertex's first unused image is
    itself.
    """
    check_budget(budget)
    if b1.base != b2.base:
        return None
    if len(b1.fiber) != len(b2.fiber):
        return None
    if b1.total == b2.total and b1._fibers == b2._fibers:
        return {e: e for v in b1.base.vertices for e in b1.fiber_over(v)}
    for k in range(max(b1.total.dim, b2.total.dim) + 1):
        if b1.total.simplex_count(k) != b2.total.simplex_count(k):
            return None
    order = [e for v in b1.base.vertices for e in b1.fiber_over(v)]
    position = {e: i for i, e in enumerate(order)}
    # closed[i]: the simplices whose last vertex in branch order is order[i - 1]
    closed: List[List[tuple]] = [[] for _ in range(len(order) + 1)]
    for s in b1.total.simplex_tuples():
        if len(s) > 1:
            closed[max(map(position.__getitem__, s)) + 1].append(s)
    near1 = _lifted_neighbours(b1)
    near2 = _lifted_neighbours(b2)
    mapping: Dict = {}
    used = set()
    trail: list = []  # the vertices assigned, in order

    def assign(e, w) -> bool:
        # e -> w and everything it forces, recorded on the trail; False
        # on a contradiction
        mapping[e] = w
        used.add(w)
        trail.append(e)
        stack = [(e, w)]
        while stack:
            x, y = stack.pop()
            over_y = near2.get(y, {})
            for b, xs in near1.get(x, {}).items():
                ys = over_y.get(b)
                if ys is None:
                    return False
                if len(ys) > 1:
                    continue
                forced = ys[0]
                for x2 in xs:
                    if x2 in mapping:
                        if mapping[x2] != forced:
                            return False
                    elif forced in used:
                        return False
                    else:
                        mapping[x2] = forced
                        used.add(forced)
                        trail.append(x2)
                        stack.append((x2, forced))
        return True

    def advance(i: int) -> Optional[int]:
        # check what the vertex before i closes; pass the vertices propagation mapped
        while b2.total._holds_all(_image_keys(mapping, closed[i])):
            if i == len(order) or order[i] not in mapping:
                return i
            i += 1
        return None

    def retract(mark: int) -> None:
        while len(trail) > mark:
            used.discard(mapping.pop(trail.pop()))

    def exceeded(spent: int) -> str:
        return (f"isomorphism search exceeded budget {budget} after {spent} guesses, "
                f"with {len(mapping)} of {len(order)} total vertices assigned")

    for _ in depth_first(
        len(order),
        advance,
        # the filter reads ``used`` as each image comes up, after retracting
        lambda i: (w for w in b2.fiber_over(b1.projection(order[i]))
                   if w not in used),
        lambda i, w: assign(order[i], w),
        trail, retract, budget, exceeded,
    ):
        return {e: mapping[e] for e in order}
    return None


def _lifted_neighbours(bundle: Bundle) -> Dict[object, Dict[object, list]]:
    """Each total vertex's neighbours, grouped by their base vertex."""
    near: Dict[object, Dict[object, list]] = {}
    base_of = bundle.projection.vertex_map
    for u, v in bundle.total.simplex_tuples(1):
        near.setdefault(u, {}).setdefault(base_of[v], []).append(v)
        near.setdefault(v, {}).setdefault(base_of[u], []).append(u)
    return near


def local_trivialization_check(bundle: Bundle, cover) -> Dict:
    """Per part: is the restriction isomorphic to a product over the part?"""
    report = {}
    for idx in cover.indices:
        part = cover.parts[idx]
        if part.is_empty():
            report[idx] = True
            continue
        restricted = restrict_bundle(bundle, part)
        model = product_bundle(part, bundle.fiber)
        report[idx] = bundle_isomorphism(restricted, model) is not None
    return report


def patch_bundles(cover, locals_: Mapping) -> Bundle:
    """Glue bundles over the parts of a cover that agree on overlaps.

    Agreement means literally identical labeled total simplices over each
    pairwise intersection; the union is then the unique common extension
    and restricting it to any part returns that part's input unchanged.
    That restriction is local_a plus every other local's lifts over a's
    simplices, so it is checked instead, once per part.
    """
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
    # raises unless the locals' labels can be ordered together
    total = union_complexes(locals_[idx].total for idx in indices)
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
    glued = Bundle(total=total, base=cover.base, projection=projection,
                   fiber=next(iter(fibers)), action=action)
    for a in indices:
        extra = uncovered_simplices(
            restrict_bundle(glued, cover.parts[a]).total, [locals_[a].total]
        )
        if extra:
            # each extra simplex lies over a's part in some other local
            offending = extra[0]
            b = next(b for b in indices
                     if locals_[b].total.has_simplex(offending))
            a, b = sorted((a, b))
            raise ValidationError(
                f"locals over {a!r} and {b!r} disagree at {offending!r}",
                details={"parts": (a, b), "simplex": offending},
            )
    return validate_bundle(glued)


def _check_monotone_over_base(bundle: Bundle) -> None:
    # prism triangulations only project simplicially when the total vertex
    # order refines the base vertex order within every simplex
    for ordered in _in_order(bundle.total._top_sets()):
        images = [bundle.projection(v) for v in ordered]
        if images != sorted(images):
            raise ValidationError(
                "total vertex order does not refine the base order; "
                f"relabel the bundle over {tuple(sorted(set(images)))!r}"
            )


def mapping_cylinder_bundle(
    source: Bundle,
    target: Bundle,
    comparison: SimplicialMap,
) -> Tuple[Bundle, SimplicialMap, SimplicialMap]:
    """Fiberwise mapping cylinder of a fiber-preserving comparison map.

    The base becomes the prism over the common base; the total is the
    simplicial mapping cylinder of the comparison map.  The end-0
    restriction is the source total, the end-1 restriction the target
    total; the total retains the homology of the target.  A comparison
    map that fails to commute with the projections or is not fiberwise
    bijective is rejected (such maps only yield quotients that fiber
    badly).
    """
    if source.base != target.base:
        raise ValidationError("bundles live over different bases")
    if comparison.source != source.total or comparison.target != target.total:
        raise ValidationError("comparison map endpoints do not match")
    for v in source.total.vertices:
        if target.projection(comparison(v)) != source.projection(v):
            raise ValidationError(
                f"comparison does not commute with projections at {v!r}",
                details={"vertex": v},
            )
    for b in source.base.vertices:
        image = {comparison(e) for e in source.fiber_over(b)}
        if image != set(target.fiber_over(b)):
            raise ValidationError(
                f"comparison is not fiberwise bijective over {b!r}",
                details={"vertex": b},
            )
    _check_monotone_over_base(source)

    base_cyl, base_end0, base_end1 = mapping_cylinder(
        SimplicialMap.identity(source.base)
    )
    total_cyl, total_end0, total_end1 = mapping_cylinder(comparison)
    vertex_map: Dict = {}
    for v in source.total.vertices:
        vertex_map[(0, v)] = (0, source.projection(v))
    for w in target.total.vertices:
        vertex_map[(1, w)] = (1, target.projection(w))
    projection = SimplicialMap(total_cyl, base_cyl, vertex_map)
    bundle = validate_bundle(
        Bundle(
            total=total_cyl,
            base=base_cyl,
            projection=projection,
            fiber=target.fiber,
            action=None,
        )
    )
    return bundle, total_end0, total_end1
