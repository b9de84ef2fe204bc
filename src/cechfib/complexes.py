"""Finite abstract simplicial complexes, maps, subdivision and cylinders.

A complex is stored as the downward closure of its maximal simplices.
Vertex identifiers are opaque but must be mutually orderable; every
construction here is deterministic because simplices are always
enumerated in sorted order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .errors import ValidationError


class SimplicialComplex:
    """Downward-closed family of nonempty finite vertex sets.

    ``SimplicialComplex(simplices)`` takes the family as frozensets.
    Constructors that already hold each simplex as a sorted vertex tuple
    (:func:`build_complex`, the bundle restriction) pass ``by_dim``
    instead: for each dimension k, its k-simplices as tuples of k + 1
    distinct vertices in sorted order, so no simplex is sorted twice.
    Either way the simplices are ordered here, the maximal ones found
    and closure under faces checked.
    """

    __slots__ = ("_simplices", "_maximal", "_vertices", "_by_dim", "_hash")

    def __init__(
        self,
        simplices: Iterable[frozenset] = (),
        *,
        by_dim: Optional[Mapping[int, Iterable[tuple]]] = None,
    ):
        # tuples[k] and sets[k]: the k-simplices in order, as sorted
        # vertex tuples and as the matching frozensets
        tuples: Dict[int, tuple] = {}
        sets: Dict[int, Iterable[frozenset]] = {}
        try:
            if by_dim is None:
                closed = frozenset(simplices)
                groups: Dict[int, list] = {}
                for s in closed:
                    if not s:
                        raise ValidationError("empty simplex is not allowed")
                    groups.setdefault(len(s) - 1, []).append(s)
                for k, lst in groups.items():
                    tuples[k], sets[k] = zip(
                        *sorted((tuple(sorted(s)), s) for s in lst)
                    )
            else:
                for k, ts in by_dim.items():
                    if ts:
                        tuples[k] = tuple(sorted(ts))
                        sets[k] = list(map(frozenset, tuples[k]))
                closed = frozenset(itertools.chain.from_iterable(sets.values()))
        except TypeError as exc:
            raise ValidationError(
                "vertex identifiers must be mutually orderable"
            ) from exc
        self._simplices = closed
        self._by_dim = layers = {k: tuples[k] for k in sorted(tuples)}
        self._vertices = tuple(itertools.chain.from_iterable(layers.get(0, ())))
        # One pass over the codimension-1 faces: a simplex is maximal
        # unless it is such a face, and the family is closed exactly
        # when every such face is one of the non-maximal simplices.
        maximal = []
        for k in range(max(layers, default=-1) + 1):
            here = layers.get(k, ())
            above = layers.get(k + 1)
            if above is None:
                maximal.extend(zip(here, sets.get(k, ())))
                continue
            faces = set(itertools.chain.from_iterable(
                map(itertools.combinations, above, itertools.repeat(k + 1))
            ))
            tops = [p for p in zip(here, sets.get(k, ())) if p[0] not in faces]
            if len(faces) != len(here) - len(tops):
                missing = faces.difference(here)
                simplex = next(
                    t for t in above
                    if not missing.isdisjoint(itertools.combinations(t, k + 1))
                )
                raise ValidationError(
                    f"family is not closed under faces at {simplex!r}",
                    details={"simplex": simplex},
                )
            maximal.extend(tops)
        maximal.sort()
        self._maximal = tuple(s for _, s in maximal)
        self._hash = hash(closed)

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def simplices(self) -> frozenset:
        return self._simplices

    @property
    def maximal_simplices(self) -> tuple:
        return self._maximal

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        return max(self._by_dim, default=-1)

    def simplices_of_dim(self, k: int) -> tuple:
        """Sorted tuple of k-simplices, each a sorted vertex tuple."""
        return self._by_dim.get(k, ())

    def simplex_count(self, k: int) -> int:
        return len(self._by_dim.get(k, ()))

    def has_simplex(self, simplex) -> bool:
        return frozenset(simplex) in self._simplices

    def is_empty(self) -> bool:
        return not self._simplices

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._simplices <= other._simplices

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._simplices == other._simplices

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self._vertices)} vertices, "
            f"dim {self.dim})"
        )


def build_complex(maximal_simplices: Iterable[Iterable]) -> SimplicialComplex:
    """Downward closure of the declared simplices.

    Raises on a repeated vertex inside one declared simplex.  Rebuilding
    from the result's own maximal simplices reproduces it.
    """
    declared: Dict[int, set] = {}
    for simplex in maximal_simplices:
        listed = list(simplex)
        if not listed:
            raise ValidationError("declared simplex is empty")
        if len(set(listed)) != len(listed):
            raise ValidationError(
                f"repeated vertex in declared simplex {listed!r}",
                details={"simplex": listed},
            )
        try:
            ordered = tuple(sorted(listed))
        except TypeError as exc:
            raise ValidationError(
                "vertex identifiers must be mutually orderable"
            ) from exc
        declared.setdefault(len(ordered), set()).add(ordered)
    # Largest first: a declared simplex already present is a face of a
    # larger one, and so are all of its faces.
    by_dim: Dict[int, set] = {}
    for size in sorted(declared, reverse=True):
        present = by_dim.setdefault(size - 1, set())
        new = declared[size] - present
        present |= new
        for k in range(1, size):
            by_dim.setdefault(k - 1, set()).update(itertools.chain.from_iterable(
                map(itertools.combinations, new, itertools.repeat(k))
            ))
    return SimplicialComplex(by_dim=by_dim)


def intersect_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(a.simplices & b.simplices)


def euler_characteristic(x: SimplicialComplex) -> int:
    """Alternating sum of simplex counts by dimension."""
    total = 0
    for k in range(x.dim + 1):
        total += (-1) ** k * x.simplex_count(k)
    return total


def connected_components(x: SimplicialComplex) -> tuple:
    """Vertex sets of the components of the 1-skeleton, sorted."""
    adjacency: Dict = {v: set() for v in x.vertices}
    for u, v in x.simplices_of_dim(1):
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = set()
    components = []
    for start in x.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adjacency[v] - comp)
        seen |= comp
        components.append(frozenset(comp))
    return tuple(sorted(components, key=lambda c: sorted(c)))


class SimplicialMap:
    """Vertex map under which every simplex image is again a simplex."""

    __slots__ = ("source", "target", "vertex_map")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping,
    ):
        vm = dict(vertex_map)
        missing = [v for v in source.vertices if v not in vm]
        if missing:
            raise ValidationError(
                f"vertex map misses source vertices {missing[:4]!r}"
            )
        for v in source.vertices:
            if not target.has_simplex([vm[v]]):
                raise ValidationError(
                    f"image {vm[v]!r} of vertex {v!r} is not a target vertex"
                )
        for s in source.maximal_simplices:
            image = frozenset(vm[v] for v in s)
            if not target.has_simplex(image):
                raise ValidationError(
                    f"image of simplex {tuple(sorted(s))!r} is not a simplex",
                    details={"simplex": tuple(sorted(s))},
                )
        self.source = source
        self.target = target
        self.vertex_map = vm

    def __call__(self, vertex):
        return self.vertex_map[vertex]

    def image_simplex(self, simplex) -> frozenset:
        return frozenset(self.vertex_map[v] for v in simplex)

    @classmethod
    def identity(cls, x: SimplicialComplex) -> "SimplicialMap":
        return cls(x, x, {v: v for v in x.vertices})

    def compose(self, other: "SimplicialMap") -> "SimplicialMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("composition mismatch")
        return SimplicialMap(
            other.source,
            self.target,
            {v: self.vertex_map[w] for v, w in other.vertex_map.items()},
        )

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def barycentric_subdivision(
    x: SimplicialComplex,
) -> Tuple[SimplicialComplex, Dict]:
    """Order complex of the face poset, plus the carrier map.

    New vertices are the simplices of ``x`` (as sorted tuples); the
    carrier sends each new vertex back to the old simplex it refines.
    """
    maximal_chains = []

    def grow(chain, top):
        # extend downward: proper faces of the chain's minimum
        bottom = chain[0]
        if len(bottom) == 1:
            maximal_chains.append(tuple(chain))
            return
        for v in sorted(bottom):
            face = tuple(u for u in bottom if u != v)
            grow([face] + chain, top)

    for s in x.maximal_simplices:
        grow([tuple(sorted(s))], s)

    sd = build_complex(maximal_chains) if maximal_chains else SimplicialComplex([])
    carrier = {t: frozenset(t) for t in sd.vertices}
    return sd, carrier


def mapping_cylinder(
    f: SimplicialMap,
) -> Tuple[SimplicialComplex, SimplicialMap, SimplicialMap]:
    """Simplicial mapping cylinder of ``f`` with its two end inclusions.

    The prism over each source simplex is triangulated in least-identifier
    order; the end-1 copy is identified along ``f`` (prisms that become
    degenerate collapse to their vertex-set images).  The target complex
    is embedded whole at end 1, the source at end 0.
    """
    source, target = f.source, f.target
    pieces = []
    for s in source.maximal_simplices:
        ordered = tuple(sorted(s))
        n = len(ordered)
        for i in range(n):
            prism = {(0, ordered[j]) for j in range(i + 1)}
            prism |= {(1, f(ordered[j])) for j in range(i, n)}
            pieces.append(prism)
    for t in target.maximal_simplices:
        pieces.append({(1, w) for w in t})
    cylinder = build_complex(pieces) if pieces else SimplicialComplex([])
    include_source = SimplicialMap(
        source, cylinder, {v: (0, v) for v in source.vertices}
    )
    include_target = SimplicialMap(
        target, cylinder, {w: (1, w) for w in target.vertices}
    )
    return cylinder, include_source, include_target


@dataclass(frozen=True)
class Pi1Presentation:
    """Edge-path presentation of the fundamental group.

    Generators are the edges outside a breadth-first spanning tree,
    oriented from smaller to larger endpoint.  Relations are words of
    signed 1-based generator indices, one per 2-simplex, with tree edges
    read as the identity.
    """

    basepoint: object
    generator_edges: tuple
    tree_edges: tuple
    relations: tuple

    @property
    def generator_count(self) -> int:
        return len(self.generator_edges)


def pi1_presentation(x: SimplicialComplex, basepoint) -> Pi1Presentation:
    """Edge-path group presentation of a connected complex."""
    if not x.has_simplex([basepoint]):
        raise ValidationError(f"basepoint {basepoint!r} is not a vertex")
    components = connected_components(x)
    if len(components) != 1:
        raise ValidationError(
            f"complex is disconnected ({len(components)} components)"
        )

    adjacency: Dict = {v: [] for v in x.vertices}
    for u, v in x.simplices_of_dim(1):
        adjacency[u].append(v)
        adjacency[v].append(u)
    for lst in adjacency.values():
        lst.sort()

    tree = set()
    visited = {basepoint}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in visited:
                    visited.add(w)
                    tree.add(frozenset((v, w)))
                    nxt.append(w)
        frontier = sorted(nxt)

    generator_edges = tuple(
        (u, v)
        for u, v in x.simplices_of_dim(1)
        if frozenset((u, v)) not in tree
    )
    index = {edge: i + 1 for i, edge in enumerate(generator_edges)}

    def edge_word(u, v):
        # signed generator for the traversal u -> v, empty for tree edges
        key = (u, v) if (u, v) in index else None
        if key is not None:
            return (index[key],)
        if (v, u) in index:
            return (-index[(v, u)],)
        return ()

    relations = []
    for a, b, c in x.simplices_of_dim(2):
        word = edge_word(a, b) + edge_word(b, c) + tuple(
            -g for g in reversed(edge_word(a, c))
        )
        relations.append(word)

    tree_edges = tuple(sorted(tuple(sorted(e)) for e in tree))
    return Pi1Presentation(
        basepoint=basepoint,
        generator_edges=generator_edges,
        tree_edges=tree_edges,
        relations=tuple(relations),
    )
