"""Covers of a base complex, their nerves, and the section into the nerve.

A cover is a family of subcomplexes indexed by a totally ordered set
(always the sorted order of the index labels) whose union is the base;
its nerve records one simplex per family of parts with nonempty
intersection, together with the intersection itself as a witness.  Each
cover builds its nerve once and keeps it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Mapping, NamedTuple, Optional

from .complexes import (
    Pi1Presentation,
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivision,
    build_complex,
    intersect_complexes,
    pi1_presentation,
    uncovered_simplices,
)
from .errors import ValidationError
from .homology import is_point_like


class Cover:
    """Indexed family of subcomplexes whose union is the base.

    The nerve and the goodness report are facts about the cover, so each
    is computed on first read (by :func:`cech_nerve` and
    :func:`is_good_cover`) and kept with it.
    """

    __slots__ = ("base", "indices", "parts", "_nerve", "_goodness")

    def __init__(self, base: SimplicialComplex, parts: Mapping):
        try:
            indices = tuple(sorted(parts))
        except TypeError as exc:
            raise ValidationError("cover indices must be mutually orderable") from exc
        if not indices:
            raise ValidationError("cover has no parts")
        for idx in indices:
            part = parts[idx]
            if not part.is_subcomplex_of(base):
                raise ValidationError(
                    f"part {idx!r} is not a subcomplex of the base",
                    details={"index": idx},
                )
        missing = list(uncovered_simplices(base, map(parts.get, indices))[:4])
        if missing:
            raise ValidationError(
                f"parts do not cover the base; e.g. {missing!r} uncovered",
                details={"missing": missing},
            )
        self.base = base
        self.indices = indices
        self.parts = {idx: parts[idx] for idx in indices}
        self._nerve = None
        self._goodness = None

    @property
    def nerve(self) -> NerveComplex:
        """The cover's nerve, built on first read and then kept."""
        return cech_nerve(self) if self._nerve is None else self._nerve

    def require_good(self) -> None:
        """Raise unless every nonempty intersection is point-like."""
        report = is_good_cover(self) if self._goodness is None else self._goodness
        if not report.good:
            raise ValidationError(
                f"cover is not good at {report.failures[0][0]!r}",
                details={"failures": report.failures},
            )

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return self.base == other.base and self.parts == other.parts

    def __repr__(self):
        return f"Cover({len(self.indices)} parts over {self.base!r})"


def one_part_cover(base: SimplicialComplex, index="U0") -> Cover:
    return Cover(base, {index: base})


def star_cover(x: SimplicialComplex) -> Cover:
    """Canonical always-good cover: vertex stars over the subdivided base.

    The base of the cover is the barycentric subdivision of ``x``; the
    part for a vertex v holds the chains whose smallest simplex contains
    v (the closed star of v's barycenter).  Every multiple intersection
    is then a cone over the chains through a fixed simplex, so the cover
    is good and its nerve reproduces ``x`` exactly.
    """
    sd, _ = barycentric_subdivision(x)
    stars: Dict = {v: [] for v in x.vertices}
    for chain in sd.simplex_tuples():
        for v in min(chain, key=len):
            stars[v].append(chain)
    parts = {v: SimplicialComplex._of_sorted(stars[v]) for v in x.vertices}
    return Cover(sd, parts)


def closed_star_cover(x: SimplicialComplex) -> Cover:
    """Cover of ``x`` itself by closed vertex stars.

    Useful for restriction-style checks; unlike :func:`star_cover` its
    multiple intersections need not be connected, so it is not in general
    a good cover.
    """
    stars: Dict = {v: [] for v in x.vertices}
    for t in x._top_sets():
        for v in t:
            stars[v].append(t)
    return Cover(x, {v: build_complex(stars[v]) for v in x.vertices})


class NerveComplex:
    """The nerve of one cover, with an intersection witness per simplex.

    Each cover builds its nerve once (:attr:`Cover.nerve`); the nerve
    keeps no reference back to the cover.  The sorted index families of
    each size and the fundamental-group presentation at the least nerve
    vertex are each computed on first use and then kept.  Two nerves are
    equal when their complexes and witnesses are.
    """

    def __init__(self, complex: SimplicialComplex, witnesses: Mapping):
        self.complex = complex
        self.witnesses = witnesses

    def _astuple(self) -> tuple:
        return self.complex, self.witnesses

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return (f"NerveComplex(complex={self.complex!r}, "
                f"witnesses={self.witnesses!r})")

    @cached_property
    def _keys_by_size(self) -> Dict[int, tuple]:
        by_size: Dict[int, list] = {}
        for key in sorted(self.witnesses):
            by_size.setdefault(len(key), []).append(key)
        return {size: tuple(keys) for size, keys in by_size.items()}

    def keys(self, size: int) -> tuple:
        """Sorted index tuples of ``size`` parts with nonempty intersection."""
        return self._keys_by_size.get(size, ())

    @cached_property
    def presentation(self) -> Pi1Presentation:
        return pi1_presentation(self.complex, self.complex.vertices[0])


def cech_nerve(cover: Cover) -> NerveComplex:
    """One nerve simplex per index family with nonempty intersection.

    Parts are subcomplexes, so a family meets exactly when some vertex
    lies in all of them: the nerve is the closure of the families P(v)
    of parts containing each vertex v (the Dowker complex of the
    vertex-part incidence).  Its simplices, read as sorted tuples in
    lexicographic order, each get their witness from the one before
    their last index, so each intersection is taken once.

    The nerve is built on the cover's first read and kept there, so every
    call on one cover returns one object.
    """
    if cover._nerve is not None:
        return cover._nerve
    parts_at: Dict = {}
    for idx in cover.indices:
        for v in cover.parts[idx].vertices:
            parts_at.setdefault(v, []).append(idx)
    if not parts_at:
        raise ValidationError("every part of the cover is empty")
    nerve = build_complex(parts_at.values())
    witnesses: Dict[tuple, SimplicialComplex] = {}
    for key in sorted(nerve.simplex_tuples()):
        witnesses[key] = (
            cover.parts[key[0]] if len(key) == 1
            else intersect_complexes(witnesses[key[:-1]], cover.parts[key[-1]])
        )
    cover._nerve = NerveComplex(complex=nerve, witnesses=witnesses)
    return cover._nerve


def refuse_off_nerve(given: Mapping, kept: Mapping, what: str) -> None:
    """Refuse data keyed off the nerve: keys of ``given`` that the
    validator, reading nerve keys only, did not keep."""
    extra = set(given) - set(kept)
    if extra:
        raise ValidationError(f"{what} {sorted(extra)[:4]!r}")


class GoodCoverReport(NamedTuple):
    """Outcome of the goodness check with the failing intersections."""

    good: bool
    failures: tuple  # (index tuple, reason)


def is_good_cover(cover: Cover) -> GoodCoverReport:
    """Every nonempty intersection must be connected and acyclic.

    Decided on the cover's first ask and kept there.
    """
    if cover._goodness is None:
        witnesses = cover.nerve.witnesses
        failures = tuple(
            (key, "intersection is not connected and acyclic")
            for key in sorted(witnesses)
            if not is_point_like(witnesses[key])
        )
        cover._goodness = GoodCoverReport(good=not failures, failures=failures)
    return cover._goodness


def section_map(cover: Cover, nerve: Optional[NerveComplex] = None, /) -> SimplicialMap:
    """Map the subdivided base into the nerve by least covering index.

    Each subdivision vertex is a base simplex; it goes to the least index
    whose part contains that simplex, which exists because a cover covers
    its base.  One walk over the parts in index order finds every
    simplex's least index.  A ``nerve``, if given, must be the cover's
    own.

    The map is simplicial by construction, so it is not checked: a
    subdivision simplex is a chain s_0 < ... < s_k of base simplices, and
    the part at each s_i's least index holds s_i, so also its face s_0.
    Those parts share s_0's vertices, which makes their indices a nerve
    simplex.
    """
    if nerve is not None and nerve is not cover.nerve:
        raise ValidationError("section_map was given a nerve of another cover")
    least: Dict = {}
    for idx in cover.indices:
        for simplex in cover.parts[idx].simplex_tuples():
            least.setdefault(simplex, idx)
    # each subdivision vertex is its base simplex as a sorted tuple
    sd, _ = barycentric_subdivision(cover.base)
    vertex_map = {v: least[v] for v in sd.vertices}
    return SimplicialMap._trusted(sd, cover.nerve.complex, vertex_map)


def disjoint_union_cover(u: Cover, v: Cover) -> Cover:
    """Combine two covers of one base, all u-parts ordered first.

    Indices are tagged ("0", old) and ("1", old) so the combined sorted
    order keeps each side's internal order and puts the first cover
    entirely before the second.
    """
    if u.base != v.base:
        raise ValidationError("covers have different bases")
    parts: Dict = {}
    for idx in u.indices:
        parts[("0", idx)] = u.parts[idx]
    for idx in v.indices:
        parts[("1", idx)] = v.parts[idx]
    return Cover(u.base, parts)
