"""Finite abstract simplicial complexes, maps, subdivision and cylinders.

A complex is a downward-closed family of vertex sets.  Vertex
identifiers are opaque but must be mutually orderable; every
construction here is deterministic because simplices are always
enumerated in sorted order.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from .errors import ValidationError


_UNORDERABLE = "vertex identifiers must be mutually orderable"


def _in_order(items, *, each: bool = False):
    """``items`` sorted, or with ``each`` the list of its items each as
    the sorted tuple of its distinct labels: the one place where vertex
    labels are compared.

    A sort that succeeds has compared every adjacent pair of its output,
    so a family whose vertices sort here has mutually orderable labels.
    """
    try:
        if each:
            return [tuple(sorted(set(item))) for item in items]
        return tuple(sorted(items))
    except TypeError as exc:
        raise ValidationError(_UNORDERABLE) from exc


def simplex_key(vertices) -> tuple:
    """A vertex collection in the form complexes store it: the sorted
    tuple of its distinct labels.  Labels that cannot be ordered give
    the empty tuple, which no complex holds."""
    try:
        return _in_order(set(vertices))
    except ValidationError:
        return ()


def _layered(words: Iterable[tuple]) -> Dict[int, set]:
    """Sorted vertex tuples as layers: each dimension's set (-1: empty)."""
    return {size - 1: set(group) for size, group
            in itertools.groupby(sorted(words, key=len), len)}


def _add_faces(faces: set, columns: tuple, size: int) -> set:
    """Add to ``faces``, and return it, every face with ``size`` vertices
    of sorted tuples given as vertex columns: those that keep positions
    P are the zip of the columns in P, sorted as the tuples are."""
    for kept in itertools.combinations(columns, size):
        faces.update(zip(*kept))
    return faces


def _tops_and_gap(layers: Dict[int, set], closed: bool = False) -> Tuple[list, int]:
    """The maximal simplices of per-dimension sets of sorted tuples, and
    the least dimension whose simplices miss a codimension-1 face (0
    when every face is present, or unlooked for when ``closed``).  Each
    layer's faces are taken at once from its vertex columns."""
    tops: list = []
    gap = 0
    above: set = set()
    for k in sorted(layers, reverse=True):
        layer = layers[k]
        tops.extend(layer - above if above else layer)
        if k:
            above = _add_faces(set(), tuple(zip(*layer)), k)
            if not (closed or above <= layers.get(k - 1, set())):
                gap = k
    return tops, gap


class SimplicialComplex:
    """Downward-closed family of nonempty finite vertex sets.

    A complex holds its simplices in one form, per dimension the set of
    its k-simplices, each the sorted tuple of its vertex labels (the word
    a simplex tree stores).  Membership, subcomplexes, equality,
    intersection and union are set operations on these layers.

    ``SimplicialComplex(simplices)`` takes the family as frozensets,
    checks it and converts it once; every error is raised here: an empty
    simplex, a gap in the closure under faces, labels that cannot be
    ordered.  Library makers hand over layers they know closed.

    Each other view is derived once, on first read: the ordered layers
    behind ``simplices_of_dim``, the sorted ``vertices`` and
    ``maximal_simplices``, and ``simplices``, the family as frozensets,
    an on-demand view that the hash reads.
    """

    __slots__ = ("_simplices", "_layers", "_tops", "_vertices", "_by_dim", "_maximal")

    def __init__(self, simplices: Iterable[frozenset] = ()):
        try:
            family = frozenset(simplices)
        except TypeError as exc:
            raise ValidationError(_UNORDERABLE) from exc
        if frozenset() in family:
            raise ValidationError("empty simplex is not allowed")
        layers = _layered(_in_order(family, each=True))
        self._layers, self._simplices = layers, family
        self._vertices = self._by_dim = self._maximal = None
        self._tops, gap = _tops_and_gap(layers)
        if gap:
            # ordering the layers first reports unorderable labels before
            # the gap; the gap is named at its least dimension
            below = layers.get(gap - 1, set())
            simplex = next(
                t for t in self._ordered_layers()[gap]
                if not below.issuperset(itertools.combinations(t, gap))
            )
            raise ValidationError(
                f"family is not closed under faces at {simplex!r}",
                details={"simplex": simplex},
            )
        self.vertices  # labels must be orderable: checked now, not on a read

    @classmethod
    def _trusted(cls, layers: Dict[int, set], tops=None,
                 vertices=None) -> "SimplicialComplex":
        """A complex from its layers, nonempty sets of sorted vertex
        tuples by dimension that its maker knows closed under faces,
        with orderable labels, and its maximal simplices and sorted
        vertices where known."""
        x = cls.__new__(cls)
        x._layers, x._tops, x._vertices = layers, tops, vertices
        x._simplices = x._by_dim = x._maximal = None
        return x

    @classmethod
    def _of_sorted(cls, simplices: Iterable[tuple]) -> "SimplicialComplex":
        """``_trusted`` from the simplices as sorted vertex tuples."""
        return cls._trusted(_layered(simplices))

    def _ordered_layers(self) -> Dict[int, tuple]:
        """Each dimension's simplices as sorted vertex tuples, in order."""
        if self._by_dim is None:
            layers = self._layers
            self._by_dim = {k: _in_order(layers[k]) for k in sorted(layers)}
        return self._by_dim

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            self._vertices = _in_order(
                itertools.chain.from_iterable(self._layers.get(0, ()))
            )
        return self._vertices

    @property
    def simplices(self) -> frozenset:
        """The family as frozensets: a view built on first read."""
        if self._simplices is None:
            self._simplices = frozenset(map(frozenset, self.simplex_tuples()))
        return self._simplices

    def simplex_tuples(self, k: Optional[int] = None) -> Iterable[tuple]:
        """The k-simplices, or all simplices when k is None, each as a
        sorted vertex tuple, in no set order."""
        if k is None:
            return itertools.chain.from_iterable(self._layers.values())
        return iter(self._layers.get(k, ()))

    def _top_sets(self) -> list:
        """The maximal simplices as sorted vertex tuples, in no order."""
        if self._tops is None:
            self._tops = _tops_and_gap(self._layers, closed=True)[0]
        return self._tops

    @property
    def maximal_simplices(self) -> tuple:
        if self._maximal is None:
            self._maximal = tuple(map(frozenset, _in_order(self._top_sets())))
        return self._maximal

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        return max(self._layers, default=-1)

    def simplices_of_dim(self, k: int) -> tuple:
        """Sorted tuple of k-simplices, each a sorted vertex tuple."""
        return self._ordered_layers().get(k, ())

    def simplex_count(self, k: Optional[int] = None) -> int:
        """The number of k-simplices, or of all simplices when k is None."""
        if k is None:
            return sum(map(len, self._layers.values()))
        return len(self._layers.get(k, ()))

    def has_simplex(self, simplex) -> bool:
        key = simplex_key(simplex)
        return key in self._layers.get(len(key) - 1, ())

    def _holds_all(self, keys) -> bool:
        """Whether sorted tuples of distinct labels are all simplices,
        tested one dimension at a time."""
        layers = self._layers
        return all(
            layers.get(size - 1, set()).issuperset(group)
            for size, group in itertools.groupby(sorted(keys, key=len), len)
        )

    def is_empty(self) -> bool:
        return not self._layers

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        theirs = other._layers
        return all(k in theirs and layer <= theirs[k]
                   for k, layer in self._layers.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._layers == other._layers

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
    and labels that cannot be ordered, all before it returns.  Every
    declared simplex is sorted in one pass.  Largest first, those not
    already present are maximal, and all their faces are read off their
    vertex columns at once; a repeated vertex shows as equal entries of
    adjacent columns.  The vertex layer and ``vertices`` come from the
    one sorted set of labels.  Only when a check fails are the declared
    simplices walked in order to name the first fault.  Rebuilding from
    the result's own maximal simplices reproduces it.
    """
    lists: list = []
    try:
        lists.extend(map(list, maximal_simplices))
        declared = _layered(map(tuple, map(sorted, lists)))
    except TypeError:
        _first_declared_fault(lists)
        raise  # a declared simplex that is not a collection
    if -1 in declared:
        _first_declared_fault(lists)
    # Largest first: a declared simplex already present is a face of a
    # larger one, and so are all of its faces; the others are maximal.
    layers: Dict[int, set] = {}
    tops: list = []
    for k in sorted(declared, reverse=True):
        if k < 1:
            break
        new = declared[k]  # this function's own set: updated in place
        if k in layers:
            new -= layers[k]
            layers[k] |= new
        else:
            layers[k] = new
        tops.extend(new)
        columns = tuple(zip(*new))
        # a repeated vertex sits in adjacent columns; a declared face
        # repeats one only if a new simplex does
        if any(map(operator.eq, itertools.chain(*columns[:-1]),
                   itertools.chain(*columns[1:]))):
            _first_declared_fault(lists)
        for size in range(2, k + 1):
            _add_faces(layers.setdefault(size - 1, set()), columns, size)
    vertices = _in_order(set(itertools.chain.from_iterable(lists)))
    if 0 in declared:
        # a declared vertex is maximal unless some edge holds it
        tops.extend(declared[0].difference(
            zip(itertools.chain.from_iterable(layers.get(1, ())))))
    if vertices:
        layers[0] = set(zip(vertices))
    return SimplicialComplex._trusted(layers, tops, vertices)


def _first_declared_fault(declared: list) -> None:
    """Raise the first fault of declared simplices, as lists, in order:
    empty, a repeated vertex, or labels that cannot be ordered."""
    for listed in declared:
        if not listed:
            raise ValidationError("declared simplex is empty")
        if len(set(listed)) != len(listed):
            raise ValidationError(
                f"repeated vertex in declared simplex {listed!r}",
                details={"simplex": listed},
            )
        _in_order(listed)


def intersect_complexes(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The common subcomplex: two closed families meet in a closed one."""
    theirs = b._layers
    layers = {}
    for k, layer in a._layers.items():
        common = layer.intersection(theirs.get(k, ()))
        if common:
            layers[k] = common
    return SimplicialComplex._trusted(layers)


def union_complexes(xs: Iterable[SimplicialComplex]) -> SimplicialComplex:
    """The union of complexes: closed families join in a closed one.
    Raises unless their labels can be ordered together."""
    layers: Dict[int, set] = {}
    for x in xs:
        for k, layer in x._layers.items():
            layers.setdefault(k, set()).update(layer)
    union = SimplicialComplex._trusted(layers)
    union.vertices  # the labels of different complexes are compared now
    return union


def uncovered_simplices(x: SimplicialComplex, others) -> tuple:
    """The simplices of ``x`` that none of ``others`` holds, as sorted
    vertex tuples, in order."""
    held = [y._layers for y in others]
    return _in_order(itertools.chain.from_iterable(
        layer.difference(*(layers.get(k, ()) for layers in held))
        for k, layer in x._layers.items()
    ))


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
    The pass keeps the images of the maximal source simplices, which
    ``_keeps_dimensions`` reads.  ``_trusted`` takes a map that its maker
    knows simplicial, unchecked.
    """

    __slots__ = ("source", "target", "vertex_map", "_rigid", "_images")

    def __init__(
        self,
        source: SimplicialComplex,
        target: SimplicialComplex,
        vertex_map: Mapping,
    ):
        vm = dict(vertex_map)
        tops = source._top_sets()
        try:
            images = _image_keys(vm, tops)
        except (KeyError, ValidationError):
            images = None
        if images is None or not target._holds_all(images):
            _first_map_fault(source, target, vm)
        self.source = source
        self.target = target
        self.vertex_map = vm
        self._images = images
        self._rigid = None

    @classmethod
    def _trusted(cls, source, target, vertex_map, *, rigid=None,
                 images=None) -> "SimplicialMap":
        """A map whose maker knows it simplicial, and maybe whether it
        keeps every maximal simplex's size and the images of the maximal
        source simplices: nothing is checked."""
        f = cls.__new__(cls)
        f.source, f.target, f.vertex_map = source, target, vertex_map
        f._rigid, f._images = rigid, images
        return f

    def _top_images(self) -> list:
        """The image of each maximal source simplex, in the order of
        ``source._top_sets()``, as the sorted tuple of its distinct
        vertices."""
        if self._images is None:
            self._images = _image_keys(self.vertex_map, self.source._top_sets())
        return self._images

    def _keeps_dimensions(self) -> bool:
        """Whether every maximal source simplex keeps its size."""
        if self._rigid is None:
            tops = self.source._top_sets()
            self._rigid = sum(map(len, self._top_images())) == sum(map(len, tops))
        return self._rigid

    def __call__(self, vertex):
        return self.vertex_map[vertex]

    def image_simplex(self, simplex) -> frozenset:
        return frozenset(self.vertex_map[v] for v in simplex)

    @classmethod
    def identity(cls, x: SimplicialComplex) -> "SimplicialMap":
        return cls(x, x, {v: v for v in x.vertices})

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"


def _image_keys(vm: Mapping, simplices) -> list:
    """The image of each simplex under a vertex map, as the sorted tuple
    of its distinct vertices."""
    return _in_order(map(map, itertools.repeat(vm.__getitem__), simplices), each=True)


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
    for t in _in_order(source._top_sets()):
        if not target.has_simplex(map(vm.__getitem__, t)):
            raise ValidationError(
                f"image of simplex {t!r} is not a simplex",
                details={"simplex": t},
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
    sd = build_complex(maximal_chains)
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
    pieces = [
        {(0, v) for v in ordered[:i + 1]} | {(1, f(v)) for v in ordered[i:]}
        for ordered in source._top_sets() for i in range(len(ordered))
    ]
    pieces += [{(1, w) for w in t} for t in target._top_sets()]
    cylinder = build_complex(pieces)
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
                    tree.add((v, w) if v < w else (w, v))
                    nxt.append(w)
        frontier = sorted(nxt)
    if len(visited) != len(x.vertices):
        raise ValidationError(
            f"complex is disconnected ({len(connected_components(x))} components)"
        )

    generator_edges = tuple(
        (u, v)
        for u, v in x.simplices_of_dim(1)
        if (u, v) not in tree
    )
    index = {edge: i + 1 for i, edge in enumerate(generator_edges)}

    def edge_word(u, v):
        # the generator of the sorted edge (u, v), empty for tree edges
        return (index[(u, v)],) if (u, v) in index else ()

    relations = [
        edge_word(a, b) + edge_word(b, c) + tuple(-g for g in edge_word(a, c))
        for a, b, c in x.simplices_of_dim(2)
    ]

    tree_edges = tuple(sorted(tree))
    return Pi1Presentation(
        basepoint=basepoint,
        generator_edges=generator_edges,
        tree_edges=tree_edges,
        relations=tuple(relations),
    )
