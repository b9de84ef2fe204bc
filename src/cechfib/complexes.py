"""Finite abstract simplicial complexes, maps, subdivision and cylinders.

A complex is a downward-closed family of vertex sets.  Vertex
identifiers are opaque but must be mutually orderable; every
construction here is deterministic because simplices are always
enumerated in sorted order.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, NamedTuple, Tuple

from .errors import ValidationError


_UNORDERABLE = "vertex identifiers must be mutually orderable"


def _in_order(items) -> tuple:
    """``items`` sorted: the one place where vertex labels are compared.

    A sort that succeeds has compared every adjacent pair of its output,
    so a family whose vertices sort here has mutually orderable labels.
    """
    try:
        return tuple(sorted(items))
    except TypeError as exc:
        raise ValidationError(_UNORDERABLE) from exc


def _tops_and_gaps(family: frozenset) -> Tuple[frozenset, set]:
    """The maximal sets of a family of nonempty sets, and the
    codimension-1 faces of its sets that are missing from it."""
    faces = set(map(frozenset, itertools.chain.from_iterable(
        itertools.combinations(s, len(s) - 1) for s in family
    )))
    faces.discard(frozenset())
    return family - faces, faces - family


class _Known(tuple):
    """(family, layers, maximal) from a maker that knows them valid."""


class SimplicialComplex:
    """Downward-closed family of nonempty finite vertex sets.

    ``SimplicialComplex(simplices)`` takes the family as frozensets.  The
    family is checked here, and every error raised here: an empty
    simplex, a gap in the closure under faces, labels that cannot be
    ordered.

    A complex keeps what its maker knows (the family, or the simplices
    as sorted tuples by dimension and the maximal ones) and derives each
    other view once, on first read: the ordered layers behind
    ``simplices_of_dim``, ``simplex_count`` and ``dim``, the sorted
    ``vertices`` and ``maximal_simplices``, and the family.
    """

    __slots__ = ("_simplices", "_layers", "_tops", "_vertices", "_by_dim", "_maximal")

    def __init__(self, simplices: Iterable[frozenset] = ()):
        self._vertices = self._by_dim = self._maximal = None
        if type(simplices) is _Known:  # from _trusted: nothing to check
            self._simplices, self._layers, self._tops = simplices
            return
        try:
            closed = frozenset(simplices)
        except TypeError as exc:
            raise ValidationError(_UNORDERABLE) from exc
        self._simplices, self._layers = closed, None
        if frozenset() in closed:
            raise ValidationError("empty simplex is not allowed")
        self._tops, missing = _tops_and_gaps(closed)
        if missing:
            # ordering the layers first reports unorderable labels before
            # the gap; the gap is named at its least dimension
            size = min(map(len, missing))
            simplex = next(
                t for t in self._ordered_layers()[size]
                if not missing.isdisjoint(map(frozenset, itertools.combinations(t, size)))
            )
            raise ValidationError(
                f"family is not closed under faces at {simplex!r}",
                details={"simplex": simplex},
            )
        self.vertices  # labels must be orderable: checked now, not on a read

    @classmethod
    def _trusted(cls, simplices=None, *, layers=None, tops=None) -> "SimplicialComplex":
        """A complex whose maker knows it closed, with orderable labels:
        its frozenset family, or its simplices as sorted tuples by
        dimension, and its maximal simplices where known."""
        return cls(_Known((simplices, layers, tops)))

    def _ordered_layers(self) -> Dict[int, tuple]:
        """Each dimension's simplices as sorted vertex tuples, in order."""
        if self._by_dim is None:
            layers = self._layers
            if layers is None:
                by_size = itertools.groupby(sorted(self._simplices, key=len), len)
                layers = {size - 1: map(tuple, map(sorted, list(group)))
                          for size, group in by_size}
            self._layers = self._by_dim = {
                k: _in_order(layers[k]) for k in sorted(layers)
            }
        return self._by_dim

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = _in_order(
                frozenset().union(*self._simplices) if self._layers is None
                else itertools.chain.from_iterable(self._layers.get(0, ()))
            )
        return self._vertices

    @property
    def simplices(self) -> frozenset:
        if self._simplices is None:
            self._simplices = frozenset(map(
                frozenset, itertools.chain.from_iterable(self._layers.values())
            ))
        return self._simplices

    def _top_sets(self):
        """The maximal simplices as vertex collections, in no order."""
        if self._tops is None:
            self._tops = _tops_and_gaps(self.simplices)[0]
        return self._tops

    @property
    def maximal_simplices(self) -> tuple:
        if self._maximal is None:
            tops = map(tuple, map(sorted, self._top_sets()))
            self._maximal = tuple(map(frozenset, _in_order(tops)))
        return self._maximal

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        return max(self._ordered_layers(), default=-1)

    def simplices_of_dim(self, k: int) -> tuple:
        """Sorted tuple of k-simplices, each a sorted vertex tuple."""
        return self._ordered_layers().get(k, ())

    def simplex_count(self, k: int) -> int:
        return len(self._ordered_layers().get(k, ()))

    def has_simplex(self, simplex) -> bool:
        return frozenset(simplex) in self.simplices

    def is_empty(self) -> bool:
        return not (self._layers if self._simplices is None else self._simplices)

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplices <= other.simplices

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.simplices == other.simplices

    def __hash__(self) -> int:
        return hash(self.simplices)  # a frozenset keeps its hash

    def __repr__(self) -> str:
        return (
            f"SimplicialComplex({len(self.vertices)} vertices, "
            f"dim {self.dim})"
        )


def build_complex(maximal_simplices: Iterable[Iterable]) -> SimplicialComplex:
    """Downward closure of the declared simplices.

    Raises on an empty declared simplex, a repeated vertex inside one,
    and labels that cannot be ordered, all before it returns.  It closes
    the family largest first as sorted vertex tuples, skipping a declared
    simplex that is already a face of a larger one; those it keeps are
    the maximal simplices, and the complex orders its views on first
    read.  Rebuilding from the result's own maximal simplices reproduces
    it.
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
        declared.setdefault(len(listed), set()).add(_in_order(listed))
    # Largest first: a declared simplex already present is a face of a
    # larger one, and so are all of its faces; the others are maximal.
    by_dim: Dict[int, set] = {}
    tops: list = []
    for size in sorted(declared, reverse=True):
        present = by_dim.setdefault(size - 1, set())
        new = declared[size] - present
        present |= new
        tops.extend(new)
        for k in range(1, size):
            by_dim.setdefault(k - 1, set()).update(itertools.chain.from_iterable(
                map(itertools.combinations, new, itertools.repeat(k))
            ))
    x = SimplicialComplex._trusted(layers=by_dim, tops=tops)
    x.vertices  # every pair of labels is compared now, not on a later read
    return x


def intersect_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The common subcomplex: two closed families meet in a closed one."""
    return SimplicialComplex._trusted(a.simplices & b.simplices)


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
    """Vertex map under which every simplex image is again a simplex.

    Checked in one pass: each maximal source simplex's image must be a
    target simplex, which covers every vertex too.  Only on a failure are
    vertices, then simplices, checked in order to name the first fault.
    The pass also learns whether a maximal simplex loses a vertex.
    ``_trusted`` takes a map that its maker knows simplicial, unchecked.
    """

    __slots__ = ("source", "target", "vertex_map", "_rigid")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping,
    ):
        vm = dict(vertex_map)
        tops = source._top_sets()
        try:
            images = [frozenset(map(vm.__getitem__, s)) for s in tops]
        except (KeyError, TypeError):
            images = None
        if images is None or not target.simplices.issuperset(images):
            _first_map_fault(source, target, vm)
        self.source = source
        self.target = target
        self.vertex_map = vm
        self._rigid = sum(map(len, images)) == sum(map(len, tops))

    @classmethod
    def _trusted(cls, source, target, vertex_map, *, rigid=None) -> "SimplicialMap":
        """A map whose maker knows it simplicial, and maybe whether it
        keeps every maximal simplex's size: nothing is checked."""
        f = cls.__new__(cls)
        f.source, f.target, f.vertex_map = source, target, vertex_map
        f._rigid = rigid
        return f

    def _keeps_dimensions(self) -> bool:
        """Whether every maximal source simplex keeps its size."""
        if self._rigid is None:
            tops = self.source._top_sets()
            images = map(self.image_simplex, tops)
            self._rigid = sum(map(len, images)) == sum(map(len, tops))
        return self._rigid

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


def _first_map_fault(source, target, vm) -> None:
    """Raise the first fault of a vertex map that is not simplicial."""
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
        if not target.has_simplex(vm[v] for v in s):
            raise ValidationError(
                f"image of simplex {tuple(sorted(s))!r} is not a simplex",
                details={"simplex": tuple(sorted(s))},
            )


def barycentric_subdivision(
    x: SimplicialComplex,
) -> Tuple[SimplicialComplex, Dict]:
    """Order complex of the face poset, plus the carrier map.

    New vertices are the simplices of ``x`` (as sorted tuples); the
    carrier sends each new vertex back to the old simplex it refines.
    """
    # a maximal chain adds the vertices of a maximal simplex one at a time
    maximal_chains = [
        [tuple(sorted(order[:k])) for k in range(1, len(order) + 1)]
        for s in x._top_sets()
        for order in itertools.permutations(s)
    ]
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


class Pi1Presentation(NamedTuple):
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
    if len(visited) != len(x.vertices):
        raise ValidationError(
            f"complex is disconnected ({len(connected_components(x))} components)"
        )

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
