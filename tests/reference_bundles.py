"""Reference bundle code, kept to test the library's current versions
against.

``bundle_isomorphism`` tries every fiber bijection at each base vertex,
in order and with no propagation, as it stood before the library's
search propagated along lifted edges.  ``bundle_to_doc`` flattens every
vertex of every total simplex and closes the family, as it stood before
the library flattened each total vertex once."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from cechfib import BudgetExceededError, SimplicialComplex
from cechfib.bundles import Bundle
from cechfib.io import action_to_doc, complex_to_doc, group_to_doc


def bundle_isomorphism(
    b1: Bundle,
    b2: Bundle,
    *,
    budget: int = 1_000_000,
) -> Optional[Dict]:
    """Fiber-preserving simplicial isomorphism over a common base.

    Searches vertex by vertex over the base, trying fiber bijections in
    sorted order, so the first hit is the lexicographically least witness.
    Returns the total-vertex bijection, or None.
    """
    if b1.base != b2.base:
        return None
    if len(b1.fiber) != len(b2.fiber):
        return None
    for k in range(max(b1.total.dim, b2.total.dim) + 1):
        if b1.total.simplex_count(k) != b2.total.simplex_count(k):
            return None
    base_vertices = list(b1.base.vertices)
    fibers1 = {v: b1.fiber_over(v) for v in base_vertices}
    fibers2 = {v: b2.fiber_over(v) for v in base_vertices}
    simplices1 = sorted(
        (tuple(sorted(s)) for s in b1.total.simplices), key=lambda s: (len(s), s)
    )
    position = {v: i for i, v in enumerate(base_vertices)}
    # simplices become checkable once all their base vertices are assigned
    by_latest: Dict[int, List[tuple]] = {i: [] for i in range(len(base_vertices))}
    for s in simplices1:
        latest = max(position[b1.projection(v)] for v in s)
        by_latest[latest].append(s)

    tried = 0
    mapping: Dict = {}

    def extend(i: int) -> bool:
        nonlocal tried
        if i == len(base_vertices):
            return True
        v = base_vertices[i]
        source_fiber = fibers1[v]
        for image in itertools.permutations(fibers2[v]):
            tried += 1
            if tried > budget:
                raise BudgetExceededError(
                    f"isomorphism search exceeded budget {budget} after "
                    f"{tried - 1} guesses, with {i} of {len(base_vertices)} "
                    f"base vertices settled",
                    budget,
                )
            for e, w in zip(source_fiber, image):
                mapping[e] = w
            if all(
                b2.total.has_simplex(frozenset(mapping[e] for e in s))
                for s in by_latest[i]
            ):
                if extend(i + 1):
                    return True
            for e in source_fiber:
                del mapping[e]
        return False

    if extend(0):
        return dict(mapping)
    return None


def bundle_to_doc(bundle) -> dict:
    """Bundles serialize with flattened total vertex names.

    A total vertex is rendered as the ``|``-joined flattening of its
    label tuple, so documents round-trip as opaque string labels.
    """
    def flatten(v):
        if isinstance(v, tuple):
            return "|".join(flatten(x) for x in v)
        return str(v)

    total = SimplicialComplex(
        frozenset(
            frozenset(flatten(v) for v in s) for s in bundle.total.simplices
        )
    )
    doc = {
        "total": complex_to_doc(total),
        "base": complex_to_doc(bundle.base),
        "projection": {
            flatten(v): str(bundle.projection(v))
            for v in bundle.total.vertices
        },
        "fiber": [str(f) for f in bundle.fiber],
    }
    doc["action"] = action_to_doc(bundle.action) if bundle.action else None
    if bundle.action is not None:
        doc["group"] = group_to_doc(bundle.action.group)
    return doc
