"""Reference implementations of complex construction and goodness, kept
to test the library's faster ones against: the closure of declared
simplices through one frozenset per face occurrence, sorted afterwards,
the barycentric subdivision grown one face at a time, and
point-likeness read off integral homology alone."""

from __future__ import annotations

import itertools

from cechfib import HomologyGroup, ValidationError, homology


class ReferenceComplex:
    """Downward-closed family of nonempty vertex sets, given as frozensets."""

    def __init__(self, simplices):
        closed = frozenset(simplices)
        by_dim = {}
        for s in closed:
            if not s:
                raise ValidationError("empty simplex is not allowed")
            by_dim.setdefault(len(s) - 1, []).append(s)
        try:
            for k, lst in by_dim.items():
                by_dim[k] = sorted((tuple(sorted(s)), s) for s in lst)
        except TypeError as exc:
            raise ValidationError(
                "vertex identifiers must be mutually orderable"
            ) from exc
        self.simplices = closed
        self._by_dim = {
            k: tuple(t for t, _ in pairs) for k, pairs in by_dim.items()
        }
        self.vertices = tuple(v for (v,) in self._by_dim.get(0, ()))
        self.dim = max(self._by_dim, default=-1)
        maximal = []
        for k in range(self.dim + 1):
            above = self._by_dim.get(k + 1, ())
            faces = {t[:i] + t[i + 1:] for t in above for i in range(k + 2)}
            missing = faces.difference(self._by_dim.get(k, ()))
            if missing:
                simplex = next(
                    t for t in above
                    if any(t[:i] + t[i + 1:] in missing for i in range(k + 2))
                )
                raise ValidationError(
                    f"family is not closed under faces at {simplex!r}",
                    details={"simplex": simplex},
                )
            maximal.extend(p for p in by_dim.get(k, ()) if p[0] not in faces)
        maximal.sort()
        self.maximal_simplices = tuple(s for _, s in maximal)

    def simplices_of_dim(self, k):
        return self._by_dim.get(k, ())


def reference_build_complex(maximal_simplices) -> ReferenceComplex:
    """Every face of every declared simplex as a frozenset, then sorted."""
    closed = set()
    for declared in maximal_simplices:
        listed = list(declared)
        if not listed:
            raise ValidationError("declared simplex is empty")
        if len(set(listed)) != len(listed):
            raise ValidationError(
                f"repeated vertex in declared simplex {listed!r}",
                details={"simplex": listed},
            )
        try:
            sorted(listed)
        except TypeError as exc:
            raise ValidationError(
                "vertex identifiers must be mutually orderable"
            ) from exc
        for k in range(1, len(listed) + 1):
            for face in itertools.combinations(listed, k):
                closed.add(frozenset(face))
    return ReferenceComplex(closed)


def reference_subdivision(x) -> ReferenceComplex:
    """Order complex of the face poset: each maximal chain found by
    removing one vertex at a time from a maximal simplex."""
    chains = []

    def grow(chain):
        bottom = chain[0]
        if len(bottom) == 1:
            chains.append(chain)
            return
        for v in bottom:
            grow([tuple(u for u in bottom if u != v)] + chain)

    for s in x.maximal_simplices:
        grow([tuple(sorted(s))])
    return reference_build_complex(chains)


def reference_is_point_like(x) -> bool:
    """Connected with the homology of a point, from homology alone."""
    if x.is_empty():
        return False
    groups = homology(x).groups
    return groups[0] == HomologyGroup(1, ()) and all(
        g == HomologyGroup(0, ()) for g in groups[1:]
    )


def reference_goodness_failures(nerve) -> tuple:
    """The failing intersections of a nerve, as ``is_good_cover`` lists them."""
    return tuple(
        (key, "intersection is not connected and acyclic")
        for key in sorted(nerve.witnesses)
        if not reference_is_point_like(nerve.witnesses[key])
    )
