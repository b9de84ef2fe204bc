"""Integral homology of complexes and chain complexes, with induced maps.

Boundaries, chain maps and relation matrices are sparse rows (see
:mod:`cechfib.snf`), built directly from the simplices.  Homology groups
come from the invariant factors of what three unit eliminations leave,
each of which keeps homology: a forest at the bottom, a coforest at the
top and a degree loop between.  Every chain complex whose d_1 columns
are all v - u, +-v or 0 loses a grounded spanning forest, found by
union-find, so H_0 needs no Smith form; ``homology`` reads the forest
off the edge layer and builds no d_1.  The top degree loses a grounded
spanning coforest, the same union-find on the top cells with signs,
where each face of one or two entries +-1 joins its top cells.  Then,
degree by degree, each cell goes with a coface of entry +-1.  A
simplicial complex keeps one vertex per component, and a closed
connected surface is left with one vertex, 2 - chi edges and one
triangle.  A simplicial map is a homology isomorphism when both sides
have the same groups and its mapping cone, whose source vertices are
grounded, has none.  Canonical class labels come from one
lattice-quotient routine (:class:`LatticeQuotient`), which reduces the
full matrices in the fixed pivot order so that labels do not depend on
the reductions; homology workspaces, the degree-2 classes of
:mod:`cechfib.gerbes` and the abelian coordinates of
:mod:`cechfib.groups` all use it.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import List, NamedTuple, Optional, Sequence

from .complexes import SimplicialComplex, SimplicialMap
from .errors import ValidationError, _is_integer
from .snf import (
    SparseRows,
    sparse_multiply,
    sparse_rows,
    sparse_smith_form,
)


class ChainComplex(NamedTuple):
    """Free chain complex over the integers.

    ``boundaries[k]`` is the matrix of C_{k+1} -> C_k as sparse rows, with
    shape (ranks[k], ranks[k+1]).  Consecutive boundaries compose to zero.
    """

    ranks: tuple
    boundaries: tuple

    def boundary(self, k: int) -> SparseRows:
        """Sparse rows of C_k -> C_{k-1}; all zero outside the range."""
        if 1 <= k < len(self.ranks):
            return self.boundaries[k - 1]
        return [{} for _ in range(self.rank(k - 1))]

    def rank(self, k: int) -> int:
        if 0 <= k < len(self.ranks):
            return self.ranks[k]
        return 0


def chain_complex(
    ranks: Sequence[int], boundaries: Sequence[Sequence[Sequence[int]]]
) -> ChainComplex:
    """Validate ranks, dense boundary matrices' shapes and integer entries
    and the boundary-squared condition, and store them sparse."""
    ranks = tuple(ranks)
    for k, r in enumerate(ranks):
        if not _is_integer(r) or r < 0:
            raise ValidationError(f"rank {k} must be a non-negative integer, got {r!r}")
    if len(boundaries) != max(len(ranks) - 1, 0):
        raise ValidationError(
            f"expected {max(len(ranks) - 1, 0)} boundary matrices, "
            f"got {len(boundaries)}"
        )
    mats = []
    for k, mat in enumerate(boundaries):
        rows, cols = ranks[k], ranks[k + 1]
        if len(mat) != rows or any(len(r) != cols for r in mat):
            raise ValidationError(
                f"boundary {k + 1} has wrong shape, want {rows}x{cols}"
            )
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                if not _is_integer(v):
                    raise ValidationError(
                        f"boundary {k + 1} entry ({i}, {j}) must be an integer, got {v!r}"
                    )
        mats.append(sparse_rows(mat, (rows, cols)))
    for k in range(len(mats) - 1):
        if any(sparse_multiply(mats[k], mats[k + 1])):
            raise ValidationError(
                f"boundaries {k + 1} and {k + 2} do not compose to zero"
            )
    return ChainComplex(ranks=ranks, boundaries=tuple(mats))


def simplex_boundary_matrix(x: SimplicialComplex, k: int) -> SparseRows:
    """Boundary C_k -> C_{k-1} in the sorted-simplex bases, as sparse rows.

    The faces without position i, of sign (-1)^i, come for every column
    at once from a zip of the other vertex columns.  Cofaces that drop a
    lower position sort first, so each row's keys stay in column order."""
    faces = x.simplices_of_dim(k - 1)
    mat = [{} for _ in faces]
    _fill_rows(x, k, dict(zip(faces, mat)).__getitem__)
    return mat


def _fill_rows(x: SimplicialComplex, k: int, row_of) -> None:
    """Enter the boundary C_k -> C_{k-1} into the row that ``row_of``
    gives for each (k-1)-face, column j for the j-th k-simplex."""
    columns = tuple(zip(*x.simplices_of_dim(k)))
    for i in range(k + 1):
        sign = (-1) ** i
        for j, row in enumerate(map(row_of, zip(*columns[:i], *columns[i + 1:]))):
            row[j] = sign


def _check_degree(max_degree) -> None:
    """Refuse a degree that is not an int, or is a bool."""
    if not _is_integer(max_degree):
        raise ValidationError(f"max_degree must be an integer, got {max_degree!r}")


def chain_complex_of(x: SimplicialComplex, max_degree: Optional[int] = None) -> ChainComplex:
    """Simplicial chain complex through ``max_degree`` (default: dim)."""
    if max_degree is None:
        top = x.dim
    else:
        _check_degree(max_degree)
        top = max(max_degree, 0)
    ranks = [x.simplex_count(k) for k in range(top + 1)]
    boundaries = [simplex_boundary_matrix(x, k) for k in range(1, top + 1)]
    return ChainComplex(ranks=tuple(ranks), boundaries=tuple(boundaries))


class HomologyGroup(NamedTuple):
    """One homology group: free rank plus torsion in divisibility order."""

    betti: int
    torsion: tuple

    def __str__(self) -> str:
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class HomologyResult(NamedTuple):
    """Homology groups by degree, starting at degree 0."""

    groups: tuple

    def betti_numbers(self) -> tuple:
        return tuple(g.betti for g in self.groups)

    def torsion(self) -> tuple:
        return tuple(g.torsion for g in self.groups)

    def group(self, k: int) -> HomologyGroup:
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return HomologyGroup(0, ())


def homology_of_chain_complex(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Integral homology of a chain complex through ``max_degree``.

    The complex is first shrunk by :func:`_forest`, then by
    :func:`_eliminate`; only what remains of each boundary goes to the
    Smith form, and only if it is nonzero.
    """
    _check_degree(max_degree)
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    return _reduced_homology(_forest(cc), max_degree)


def _reduced_homology(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Homology through ``max_degree`` of a complex the forest has run on:
    the elimination, then the Smith form of what it leaves."""
    cc = _eliminate(cc, max_degree + 1)
    ranks_of = {}
    torsion_of = {}
    for k in range(1, max_degree + 2):
        rows = cc.boundary(k)
        if any(rows):
            factors = _invariant_factors(rows, (cc.rank(k - 1), cc.rank(k)))
        else:
            factors = ()
        ranks_of[k] = len(factors)
        torsion_of[k] = tuple(d for d in factors if d > 1)
    groups = []
    for k in range(max_degree + 1):
        betti = cc.rank(k) - ranks_of.get(k, 0) - ranks_of.get(k + 1, 0)
        groups.append(HomologyGroup(betti=betti, torsion=torsion_of.get(k + 1, ())))
    return HomologyResult(groups=tuple(groups))


def _eliminate(cc: ChainComplex, top: int) -> ChainComplex:
    """The complex in degrees 0..top with unit pairs eliminated.

    The top degree goes first: :func:`_coforest` pairs top cells with
    faces by union-find.  Then, degree by degree from the bottom, each
    live cell, in order, is eliminated against its least live coface
    whose entry is +-1: that coface's column, times the ratio of
    entries, is subtracted from the cell's other cofaces, and the pair's
    rows and columns are dropped on both sides.  A cell with no unit
    coface stays.  Free faces and coreductions are pairs with nothing to
    subtract.  By the Gaussian-elimination lemma homology is unchanged;
    degrees above ``top`` are dropped, which keeps homology below
    ``top``.  Only degrees that exist are built, and input rows are
    copied, never changed.
    """
    top = min(top, len(cc.ranks) - 1)
    if top < 0:
        return cc
    if top:
        cc = _coforest(cc, top)
    live = range(cc.ranks[0])
    kept_of, rows_of = [], []
    for k in range(top):
        # live entries of d_(k+1) by cell (cofaces) and by coface (faces)
        d = cc.boundaries[k]
        cofaces = {c: dict(d[c]) for c in live}
        # a zero boundary (d_1 after the forest) pairs nothing
        n = cc.ranks[k + 1]
        faces = [{} for _ in range(n)] if any(cofaces.values()) else [()] * n
        for c, row in cofaces.items():
            for t, v in row.items():
                faces[t][c] = v
        kept = []
        for c in live:
            near = cofaces[c]
            units = [t for t, v in near.items() if v * v == 1]
            if not units:
                kept.append(c)
                continue
            t = min(units)
            unit = near.pop(t)
            column = faces[t]
            del column[c]
            # each other coface loses its c entry, w - (w * unit) * unit = 0
            for s, w in near.items():
                q = w * unit
                into = faces[s]
                del into[c]
                for f, a in column.items():
                    v = into.get(f, 0) - q * a
                    if v:
                        into[f] = cofaces[f][s] = v
                    elif f in into:
                        del into[f], cofaces[f][s]
            # t's row of d_(k+2) is never read: t is not live above
            for f in column:
                del cofaces[f][t]
            faces[t] = None
        kept_of.append(kept)
        rows_of.append([cofaces[c] for c in kept])
        if len(kept) < len(live):
            live = [t for t, column in enumerate(faces) if column is not None]
        else:
            live = range(n)
    kept_of.append(live)
    # columns renumbered to the kept cells; those eliminated as cells of
    # the degree above are dropped here
    index = [dict(zip(kept, range(len(kept)))) for kept in kept_of[1:]]
    boundaries = tuple(
        [{at[j]: v for j, v in row.items() if j in at} for row in rows]
        for at, rows in zip(index, rows_of)
    )
    return ChainComplex(ranks=tuple(map(len, kept_of)), boundaries=boundaries)


def _coforest(cc: ChainComplex, top: int) -> ChainComplex:
    """The complex in degrees 0..top with the faces of a grounded
    spanning coforest eliminated, or ``cc`` itself when it has none.

    Top cells have no cofaces here, so d_top alone decides.  Call the
    cells of degree top - 1 faces.  A face whose row is one entry +-1
    joins its top cell to a ground node, one whose row is two entries
    +-1 joins its two top cells, and any other row passes through.
    Union-find, with faces in order, keeps each top cell's sign relative
    to its tree's root, so a face reads a1 s1 r1 + a2 s2 r2 on the roots
    of its ends.  When the roots differ, the face is eliminated against
    r1 (r2 when r1 is ground), which only renames r1 to -s1 a1 s2 a2 r2
    in every other row: r1 joins r2's tree with that sign.  A face whose
    ends share a tree is kept, and the tree that holds ground stands for
    0.  Kept rows are read through the trees, one column per root other
    than ground, and d_(top-1) loses the eliminated faces' columns.  On
    a closed connected surface every triangle joins one tree, and the
    kept rows read 0 (+-2 on one row of RP^2).  This is the cotree of a
    tree-cotree decomposition (D. Eppstein, SODA 2003), the dual of
    :func:`_forest`.
    """
    n = cc.ranks[top]
    parent = list(range(n + 1))  # n is ground, always a root
    sign = [1] * (n + 1)  # relative to the parent, so 1 at a root

    def find(t):
        # t's root and sign relative to it, halving the path on the way
        s = 1
        while parent[t] != t:
            p = parent[t]
            sign[t] *= sign[p]
            parent[t] = up = parent[p]
            s *= sign[t]
            t = up
        return t, s

    d = cc.boundaries[top - 1]
    gone = set()
    for c, row in enumerate(d):
        if len(row) == 2:
            (t1, a1), (t2, a2) = row.items()
        elif len(row) == 1:
            (t1, a1), = row.items()
            t2, a2 = n, 1
        else:
            continue
        if a1 * a1 != 1 or a2 * a2 != 1:
            continue
        r1, s1 = find(t1)
        r2, s2 = find(t2)
        if r1 == r2:
            continue
        if r1 == n:
            r1, r2 = r2, r1
        parent[r1] = r2
        sign[r1] = -s1 * a1 * s2 * a2
        gone.add(c)
    if not gone:
        return cc
    kept = [c for c in range(len(d)) if c not in gone]
    rows = []
    for c in kept:
        read = {}
        for t, v in d[c].items():
            r, s = find(t)
            if r != n:
                read[r] = read.get(r, 0) + s * v
        rows.append(read)
    roots = [t for t in range(n) if parent[t] == t]
    at = dict(zip(roots, range(len(roots))))
    boundaries = [[{at[r]: v for r, v in read.items() if v} for read in rows]]
    if top > 1:
        at = dict(zip(kept, range(len(kept))))
        boundaries.insert(0, [
            {at[c]: v for c, v in row.items() if c in at}
            for row in cc.boundaries[top - 2]
        ])
    return ChainComplex(
        ranks=cc.ranks[:top - 1] + (len(kept), len(roots)),
        boundaries=cc.boundaries[:max(top - 2, 0)] + tuple(boundaries),
    )


def homology(x: SimplicialComplex, max_degree: Optional[int] = None) -> HomologyResult:
    """Integral simplicial homology through ``max_degree``.

    Degree-0 Betti equals the number of connected components; torsion
    coefficients are the invariant factors (> 1) of the next boundary.
    The complex handed to the elimination is what :func:`_forest` makes
    of the chain complex, built straight from the layers: union-find
    runs on the vertex columns of the edge layer, so no d_1 is built,
    and d_2 gets rows only for the edges the forest keeps.
    """
    if max_degree is None:
        max_degree = max(x.dim, 0)
    _check_degree(max_degree)
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    top = min(max_degree + 1, max(x.dim, 0))
    n = x.simplex_count(0)
    if top == 0:
        return _reduced_homology(ChainComplex((n,), ()), max_degree)
    # union-find reads no vertex order, only which edge joins which
    number = {v: i for i, (v,) in enumerate(x.simplex_tuples(0))}.__getitem__
    edges = x.simplices_of_dim(1)
    starts, ends = zip(*edges)
    kept = _spanning_forest(zip(map(number, starts), map(number, ends)), n)
    # a forest of t edges on n vertices has n - t trees
    roots = n - (len(edges) - len(kept))
    ranks = (roots, len(kept))
    boundaries = ([{} for _ in range(roots)],)
    if top > 1:
        # the rows of tree edges all go to one spare dict, then dropped
        rows = [{}] * len(edges)
        for e in kept:
            rows[e] = {}
        _fill_rows(x, 2, dict(zip(edges, rows)).__getitem__)
        ranks += tuple(map(x.simplex_count, range(2, top + 1)))
        boundaries += ([rows[e] for e in kept],) + tuple(
            simplex_boundary_matrix(x, k) for k in range(3, top + 1)
        )
    return _reduced_homology(ChainComplex(ranks, boundaries), max_degree)


def _forest(cc: ChainComplex) -> ChainComplex:
    """A chain complex with the edges of a grounded spanning forest
    eliminated, or ``cc`` itself when some d_1 column is not v - u, +-v
    or 0 (it has an entry other than +-1, or two of one sign).

    Call the cells of degree 1 edges.  Each edge joins the two vertices
    of its column, or its one vertex to a ground node; a zero column
    joins ground to ground.  Union-find over the vertices and ground,
    with edges in order, finds a spanning forest.  Eliminating a tree
    edge against a vertex of one endpoint's tree only renames that tree
    to the other's in every later boundary, and the tree that holds
    ground stands for 0, so its vertices drop out of them.  Each
    remaining edge ends with boundary 0: one vertex per tree without
    ground is left, d_1 vanishes and d_2 keeps the rows of the remaining
    edges.  On a simplicial complex one vertex per component is left;
    the mapping cone's source vertices ground their images.  Vertices
    are left to no later elimination, which would pile the edges of
    merged vertices up in long rows.
    """
    if len(cc.ranks) < 2:
        return cc
    # each edge's vertex of entry -1 (tail) and of entry +1 (head), or
    # ground where its column has none
    ground = cc.ranks[0]
    heads = [ground] * cc.ranks[1]
    tails = heads.copy()
    for v, row in enumerate(cc.boundaries[0]):
        for e, w in row.items():
            if w == 1 and heads[e] == ground:
                heads[e] = v
            elif w == -1 and tails[e] == ground:
                tails[e] = v
            elif w:
                return cc
    kept = _spanning_forest(zip(tails, heads), ground)
    # n + 1 nodes and t tree edges make n + 1 - t trees, one with ground
    roots = ground - (len(heads) - len(kept))
    d2 = tuple([d[e] for e in kept] for d in cc.boundaries[1:2])
    return ChainComplex(
        ranks=(roots, len(kept)) + cc.ranks[2:],
        boundaries=([{} for _ in range(roots)],) + d2 + cc.boundaries[2:],
    )


def _spanning_forest(ends, nodes: int) -> list:
    """Union-find over nodes 0..nodes, with the edges' ``ends`` in
    order: the edges whose ends already share a root, which the forest
    keeps."""
    parent = list(range(nodes + 1))
    kept = []
    for e, (a, b) in enumerate(ends):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            kept.append(e)
        else:
            parent[a] = b
    return kept


def is_point_like(x: SimplicialComplex) -> bool:
    """Connected with the homology of a point (no higher homology).

    A cone is answered at once: x is a cone over v exactly when v lies
    in every maximal simplex (then each simplex without v spans one with
    v), so the vertex sets of the maximal simplices have a common
    vertex.  Any other complex goes to :func:`homology`, whose forest
    and elimination shrink it before any Smith form.
    """
    if x.is_empty():
        return False
    tops = x._top_sets()
    if set(tops[0]).intersection(*tops[1:]):
        return True
    groups = homology(x).groups
    return groups[0] == HomologyGroup(1, ()) and all(
        g == HomologyGroup(0, ()) for g in groups[1:]
    )


class LatticeQuotient:
    """The lattice {v : A v = 0 mod m} modulo the span of generator columns.

    ``constraints`` are the rows of A (``dim`` columns) and ``generators``
    the rows of a matrix with ``gen_count`` columns, each column a vector
    of the lattice.  One Smith form of A gives kernel coordinates through
    its right inverse; coordinate j is scaled by m / gcd(d_j, m), and with
    m = 0 a coordinate of nonzero d_j must vanish and is dropped.  A
    second Smith form reduces the generators in those coordinates, and a
    vector's label is its coordinates under the left transform, each
    reduced modulo its diagonal entry where that is nonzero: two lattice
    vectors get the same label exactly when they differ by a combination
    of the generators.
    """

    def __init__(self, constraints: SparseRows, dim: int,
                 generators: SparseRows, gen_count: int, modulus: int):
        self.modulus = modulus
        self.dim = dim
        if constraints:
            form = sparse_smith_form(constraints, (len(constraints), dim),
                                     want_left=False, want_right_inverse=True)
            diag = list(form.diagonal) + [0] * (dim - len(form.diagonal))
            self._scale = [modulus // math.gcd(d, modulus) if d else 1
                           for d in diag]
            self._solver = form.right_inverse
        else:
            # the Smith form of no rows is the identity: every vector is a
            # lattice vector, and its coordinates are its entries
            self._scale = [1] * dim
            self._solver = None
        rel = self._scaled(self._solve(generators))
        self._relation_form = sparse_smith_form(rel, (len(rel), gen_count))
        self.group = HomologyGroup(
            betti=len(rel) - self._relation_form.rank,
            torsion=tuple(d for d in self._relation_form.diagonal if d > 1),
        )

    def _solve(self, rows: SparseRows) -> SparseRows:
        """Raw kernel coordinates of the columns of ``rows``."""
        if self._solver is None:
            return [{j: v for j, v in row.items() if v} for row in rows]
        return sparse_multiply(self._solver, rows)

    def _scaled(self, rows: SparseRows) -> SparseRows:
        """Kernel coordinates from rows of raw ones: a row of scale 0 must
        vanish and is dropped, any other is divided by its scale."""
        out = []
        for s, row in zip(self._scale, rows):
            if any(v % s if s else v for v in row.values()):
                raise ValidationError(
                    "vector is not a mod-m cocycle" if self.modulus
                    else "chain is not a cycle"
                )
            if s:
                out.append({j: v // s for j, v in row.items()})
        return out

    def _coordinate_rows(self, vectors: Sequence[Sequence[int]]) -> SparseRows:
        """Kernel coordinates of lattice vectors: row i holds coordinate i
        of vector j at key j."""
        columns = [{} for _ in range(self.dim)]
        for j, vec in enumerate(vectors):
            if len(vec) != self.dim:
                raise ValidationError(
                    f"vector has length {len(vec)}, want {self.dim}"
                )
            for column, v in zip(columns, vec):
                column[j] = v
        return self._scaled(self._solve(columns))

    def coordinates(self, vec: Sequence[int]) -> List[int]:
        """Coordinates of a lattice vector in the kernel basis."""
        return [row.get(0, 0) for row in self._coordinate_rows([vec])]

    def labels(self, vectors: Sequence[Sequence[int]]) -> List[tuple]:
        """Canonical labels of the vectors' classes in the quotient, from
        one product of the left transform with their coordinates."""
        form = self._relation_form
        rows = sparse_multiply(form.left, self._coordinate_rows(vectors))
        moduli = list(form.diagonal) + [0] * (len(rows) - len(form.diagonal))
        return [
            tuple(row.get(j, 0) % d if d else row.get(j, 0)
                  for row, d in zip(rows, moduli))
            for j in range(len(vectors))
        ]

    def label(self, vec: Sequence[int]) -> tuple:
        """Canonical label of the vector's class in the quotient."""
        return self.labels([vec])[0]


class HomologyWorkspace:
    """Homology with canonical class labels.

    Degree k is the quotient of the cycles by the boundaries, one
    :class:`LatticeQuotient` with modulus 0, so two cycles are homologous
    exactly when their labels agree.
    """

    def __init__(self, cc: ChainComplex, max_degree: int):
        self.cc = cc
        self.max_degree = max_degree
        self._quotients = [
            LatticeQuotient(
                cc.boundary(k), cc.rank(k),
                cc.boundary(k + 1), cc.rank(k + 1), 0,
            )
            for k in range(max_degree + 1)
        ]

    def _quotient(self, k: int) -> LatticeQuotient:
        if not 0 <= k <= self.max_degree:
            raise ValidationError(f"degree {k} is outside 0..{self.max_degree}")
        return self._quotients[k]

    def cycle_coordinates(self, k: int, chain: Sequence[int]) -> List[int]:
        return self._quotient(k).coordinates(chain)

    def group(self, k: int) -> HomologyGroup:
        return self._quotient(k).group

    def class_label(self, k: int, chain: Sequence[int]) -> tuple:
        """Canonical label of a cycle's homology class.

        Labels of two cycles in the same degree agree iff the cycles are
        homologous.
        """
        return self._quotient(k).label(chain)


def _invariant_factors(rows: SparseRows, shape) -> tuple:
    form = sparse_smith_form(rows, shape, want_left=False)
    return tuple(d for d in form.diagonal if d != 0)


def simplicial_chain_map(f: SimplicialMap, max_degree: int) -> List[SparseRows]:
    """Chain map matrices of a simplicial map in the sorted bases, as
    sparse rows (target simplices by source simplices).  Images are read
    off the source's vertex columns, one map lookup per vertex entry."""
    image_of = f.vertex_map.__getitem__
    mats = []
    for k in range(max_degree + 1):
        # a repeated vertex sorts to no target simplex
        tgt_index = {s: i for i, s in enumerate(f.target.simplices_of_dim(k))}.get
        mat = [{} for _ in range(f.target.simplex_count(k))]
        pairs = list(combinations(range(k + 1), 2))
        columns = [list(map(image_of, c)) for c in zip(*f.source.simplices_of_dim(k))]
        for j, image in enumerate(zip(*columns)):
            i = tgt_index(tuple(sorted(image)))
            if i is not None:
                # sorting the image takes one transposition per inversion
                inversions = sum([image[a] > image[b] for a, b in pairs])
                mat[i][j] = -1 if inversions % 2 else 1
        mats.append(mat)
    return mats


def _mapping_cone(
    x: ChainComplex, y: ChainComplex, f: List[SparseRows], top: int
) -> ChainComplex:
    """The cone of a chain map f: X -> Y in degrees 0..top.

    C_k = Y_k + X_(k-1), basis of Y first, with boundary
    (y, x) -> (dy + f x, -dx); ``f[k]`` is the degree-k matrix of f.
    """
    ranks = tuple(y.rank(k) + x.rank(k - 1) for k in range(top + 1))
    boundaries = []
    for k in range(1, top + 1):
        shift = y.rank(k)
        rows = [
            {**dy, **{shift + j: v for j, v in fx.items()}}
            for dy, fx in zip(y.boundary(k), f[k - 1])
        ]
        rows += [
            {shift + j: -v for j, v in dx.items()} for dx in x.boundary(k - 1)
        ]
        boundaries.append(rows)
    return ChainComplex(ranks=ranks, boundaries=tuple(boundaries))


def map_induces_homology_isomorphism(f: SimplicialMap, max_degree: int) -> bool:
    """Whether a simplicial map is a homology isomorphism through a degree.

    Both sides must have equal groups in degrees 0..max_degree and the
    mapping cone no homology there.  The cone's long exact sequence gives
    0 -> coker f_k -> H_k(cone) -> ker f_(k-1) -> 0, so a zero cone makes
    f_* onto in each of those degrees, and a surjection between isomorphic
    finitely generated abelian groups is an isomorphism.  Each source
    vertex's column in the cone's d_1 is +1 at its image, so the forest
    grounds every component that the map reaches; the cone's entries
    are 0 or +-1, so the elimination leaves little for the Smith form.
    """
    _check_degree(max_degree)
    src_cc, tgt_cc = (
        chain_complex_of(x, min(max_degree + 1, max(x.dim, 0)))
        for x in (f.source, f.target)
    )
    if homology_of_chain_complex(src_cc, max_degree) != homology_of_chain_complex(
        tgt_cc, max_degree
    ):
        return False
    cone = _mapping_cone(
        src_cc, tgt_cc, simplicial_chain_map(f, max_degree), max_degree + 1
    )
    zero = HomologyGroup(0, ())
    return all(
        g == zero for g in homology_of_chain_complex(cone, max_degree).groups
    )
