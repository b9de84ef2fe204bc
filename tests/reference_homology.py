"""Reference implementations of homology isomorphism checks and class
labels, kept to test the library's current ones against: the induced
map's surjectivity decided on a cycle basis of the source and the
target's relation matrix, and class labels from two separate
kernel/relation Smith-form routines, one over the integers
(``HomologyWorkspace``) and one per cyclic coefficient factor
(``_CyclicReducer``, used by ``CechClassifier``).  The code is as it
stood before the mapping-cone check and the single lattice-quotient
routine replaced it.

Chain-complex homology is referenced by the two unit eliminations that
one elimination in every degree replaced: the correction-free peel of
free faces and coreductions (``reference_peel``), followed by the
invariant factors of every boundary it leaves
(``reference_homology_of_chain_complex``), and the forest and
degree-2 cotree of a simplicial chain complex
(``reference_forest_cotree``).  Simplicial homology is referenced by
the path the forest and cotree replaced: the peel over the
augmentation C_0 -> Z (``augmented_simplicial_homology``), which the
isomorphism reference here uses for both sides.  The forest as it read
the endpoints of every edge back from d_1 (``reference_forest``, run by
``reference_simplicial_homology``) references what ``homology`` hands
to the elimination.  The elimination is referenced by itself as it
stood before the grounded coforest took over its top degree, copied
verbatim (``reference_eliminate``); run with no forest before it
(``eliminated_homology_of_chain_complex``), it references the grounded
forest on mapping cones and other chain complexes.  Boundary matrices are
referenced by the per-simplex loop that reading faces off vertex
columns replaced (``reference_simplex_boundary_matrix``), which
``CechClassifier`` uses."""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import List, Mapping, Sequence

from cechfib import SimplicialMap, ValidationError
from cechfib.covers import NerveComplex
from cechfib.groups import abelian_decomposition
from cechfib.homology import (
    ChainComplex,
    HomologyGroup,
    HomologyResult,
    chain_complex_of,
    homology_of_chain_complex,
    simplicial_chain_map,
)
from cechfib.snf import (
    SparseRows,
    sparse_columns,
    sparse_multiply,
    sparse_smith_form,
)


def reference_simplex_boundary_matrix(x, k: int) -> SparseRows:
    """Boundary C_k -> C_{k-1} in the sorted-simplex bases, as sparse
    rows, filled one simplex at a time."""
    row_index = {s: i for i, s in enumerate(x.simplices_of_dim(k - 1))}
    mat = [{} for _ in row_index]
    # combinations drop the last vertex first, the first one last
    signs = [(-1) ** (k - i) for i in range(k + 1)]
    for j, s in enumerate(x.simplices_of_dim(k)):
        for face, sign in zip(combinations(s, k), signs):
            mat[row_index[face]][j] = sign
    return mat


def reference_homology_of_chain_complex(
    cc: ChainComplex, max_degree: int
) -> HomologyResult:
    """Integral homology through ``max_degree`` from the invariant factors
    of every boundary :func:`reference_peel` leaves."""
    cc = reference_peel(cc, max_degree + 1)
    ranks_of = {}
    torsion_of = {}
    for k in range(1, max_degree + 2):
        factors = _invariant_factors(cc.boundary(k), (cc.rank(k - 1), cc.rank(k)))
        ranks_of[k] = len(factors)
        torsion_of[k] = tuple(d for d in factors if d > 1)
    groups = []
    for k in range(max_degree + 1):
        betti = cc.rank(k) - ranks_of.get(k, 0) - ranks_of.get(k + 1, 0)
        groups.append(HomologyGroup(betti=betti, torsion=torsion_of.get(k + 1, ())))
    return HomologyResult(groups=tuple(groups))


def reference_peel(cc: ChainComplex, top: int) -> ChainComplex:
    """The complex in degrees 0..top with unit pairs eliminated.

    A cell with exactly one coface (a free face: collapse) or exactly one
    face (coreduction) is removed together with that neighbour when
    their entry is a unit.  Neither case needs a correction term, so each
    elimination only deletes a row and a column of the neighbouring
    boundaries; by the Gaussian-elimination lemma for chain complexes
    homology is unchanged.  Degrees above ``top`` are dropped, which
    keeps homology below ``top``.
    """
    ranks = [cc.rank(k) for k in range(top + 1)]
    # cofaces[k][c] and faces[k][c]: live neighbours of cell c of degree k
    cofaces = [[{} for _ in range(r)] for r in ranks]
    faces = [[{} for _ in range(r)] for r in ranks]
    for k in range(1, top + 1):
        for i, row in enumerate(cc.boundary(k)):
            for j, v in row.items():
                if v:
                    cofaces[k - 1][i][j] = v
                    faces[k][j][i] = v
    alive = [set(range(r)) for r in ranks]
    queue = deque((k, c) for k in range(top + 1) for c in range(ranks[k]))

    def remove(k, c):
        alive[k].discard(c)
        for i in faces[k][c]:
            up = cofaces[k - 1][i]
            del up[c]
            if len(up) == 1:
                queue.append((k - 1, i))
        for j in cofaces[k][c]:
            down = faces[k + 1][j]
            del down[c]
            if len(down) == 1:
                queue.append((k + 1, j))

    while queue:
        k, c = queue.popleft()
        if c not in alive[k]:
            continue
        for near, step in ((cofaces[k][c], 1), (faces[k][c], -1)):
            if len(near) == 1:
                (d, v), = near.items()
                if v in (1, -1):
                    remove(k, c)
                    remove(k + step, d)
                    break

    index = [{c: n for n, c in enumerate(sorted(live))} for live in alive]
    boundaries = tuple(
        [
            {index[k][j]: v for j, v in cofaces[k - 1][i].items()}
            for i in sorted(alive[k - 1])
        ]
        for k in range(1, top + 1)
    )
    return ChainComplex(
        ranks=tuple(len(live) for live in alive), boundaries=boundaries
    )


def reference_forest_cotree(cc: ChainComplex) -> ChainComplex:
    """A simplicial chain complex with two runs of unit eliminations.

    Forest: every edge has boundary v - u, so union-find over the
    vertices, with edges in order, finds a spanning forest.  Eliminating
    a tree edge against the root of one endpoint's tree only renames
    that root to the other's in every later boundary, so each remaining
    edge ends with boundary root - root = 0: one vertex per component
    is left and d_1 vanishes.  Cotree: each remaining edge, in order, is
    eliminated against its least live coface whose entry is +-1; that
    coface's column, times the ratio of entries, is subtracted from the
    edge's other cofaces, and its row of d_3 is dropped.  An edge with
    no unit coface stays.  By the Gaussian-elimination lemma homology
    is unchanged; a closed connected surface is left with one vertex,
    2 - chi edges and one triangle.
    """
    if len(cc.ranks) < 2:
        return cc
    parent = list(range(cc.ranks[0]))
    ends = [[] for _ in range(cc.ranks[1])]
    for v, row in enumerate(cc.boundaries[0]):
        for e in row:
            ends[e].append(v)
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
    roots = sum(v == p for v, p in enumerate(parent))
    d1 = [{} for _ in range(roots)]
    if len(cc.ranks) == 2:
        return ChainComplex(ranks=(roots, len(kept)), boundaries=(d1,))
    # live entries of d_2 by edge (cofaces) and by triangle (faces)
    d2 = cc.boundaries[1]
    cofaces = {e: dict(d2[e]) for e in kept}
    faces = [{} for _ in range(cc.ranks[2])]
    for e, row in cofaces.items():
        for t, v in row.items():
            faces[t][e] = v
    paired = set()
    edges = []
    for e in kept:
        near = cofaces[e]
        units = [t for t, v in near.items() if v * v == 1]
        if not units:
            edges.append(e)
            continue
        t = min(units)
        unit = near.pop(t)
        column = faces[t]
        del column[e]
        # each other coface loses its e entry, w - (w * unit) * unit = 0
        for c, w in near.items():
            q = w * unit
            into = faces[c]
            del into[e]
            for f, a in column.items():
                v = into.get(f, 0) - q * a
                if v:
                    into[f] = cofaces[f][c] = v
                else:
                    del into[f], cofaces[f][c]
        for f in column:
            del cofaces[f][t]
        paired.add(t)
    live = [t for t in range(cc.ranks[2]) if t not in paired]
    index = {t: n for n, t in enumerate(live)}
    d2 = [{index[t]: v for t, v in cofaces[e].items()} for e in edges]
    above = ()
    if len(cc.ranks) > 3:
        d3 = cc.boundaries[2]
        above = ([d3[t] for t in live],) + cc.boundaries[3:]
    return ChainComplex(
        ranks=(roots, len(edges), len(live)) + cc.ranks[3:],
        boundaries=(d1, d2) + above,
    )


def reference_simplicial_homology(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Homology of a simplicial chain complex: :func:`reference_forest`
    first, then the elimination and the Smith form of any chain complex."""
    return homology_of_chain_complex(reference_forest(cc), max_degree)


def reference_forest(cc: ChainComplex) -> ChainComplex:
    """A simplicial chain complex with the edges of a spanning forest
    eliminated.

    Every edge has boundary v - u, so union-find over the vertices, with
    edges in order, finds a spanning forest.  Eliminating a tree edge
    against the root of one endpoint's tree only renames that root to
    the other's in every later boundary, so each remaining edge ends
    with boundary root - root = 0: one vertex per component is left, d_1
    vanishes and d_2 keeps the rows of the remaining edges.  Vertices
    are left to no later elimination, which would pile the edges of
    merged vertices up in long rows.
    """
    if len(cc.ranks) < 2:
        return cc
    parent = list(range(cc.ranks[0]))
    ends = [[] for _ in range(cc.ranks[1])]
    for v, row in enumerate(cc.boundaries[0]):
        for e in row:
            ends[e].append(v)
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
    roots = sum(v == p for v, p in enumerate(parent))
    d2 = tuple([d[e] for e in kept] for d in cc.boundaries[1:2])
    return ChainComplex(
        ranks=(roots, len(kept)) + cc.ranks[2:],
        boundaries=([{} for _ in range(roots)],) + d2 + cc.boundaries[2:],
    )


def reference_eliminate(cc: ChainComplex, top: int) -> ChainComplex:
    """The complex in degrees 0..top with unit pairs eliminated.

    Degree by degree from the bottom, each live cell, in order, is
    eliminated against its least live coface whose entry is +-1: that
    coface's column, times the ratio of entries, is subtracted from the
    cell's other cofaces, and the pair's rows and columns are dropped on
    both sides.  A cell with no unit coface stays.  Free faces and
    coreductions are pairs with nothing to subtract.  By the
    Gaussian-elimination lemma homology is unchanged; degrees above
    ``top`` are dropped, which keeps homology below ``top``.  Only
    degrees that exist are built, and input rows are copied, never
    changed.
    """
    top = min(top, len(cc.ranks) - 1)
    if top < 0:
        return cc
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


def eliminated_homology_of_chain_complex(
    cc: ChainComplex, max_degree: int
) -> HomologyResult:
    """Integral homology of a chain complex through ``max_degree``.

    The complex is first shrunk by :func:`reference_eliminate`; only
    what remains of each boundary goes to the Smith form, and only if it
    is nonzero.
    """
    if max_degree < 0:
        raise ValidationError("max_degree must be nonnegative")
    cc = reference_eliminate(cc, max_degree + 1)
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


def augmented(cc: ChainComplex) -> ChainComplex:
    """The complex shifted up one degree over the augmentation C_0 -> Z."""
    epsilon = [{j: 1 for j in range(cc.rank(0))}]
    return ChainComplex(
        ranks=(1,) + cc.ranks, boundaries=(epsilon,) + cc.boundaries
    )


def augmented_simplicial_homology(cc: ChainComplex, max_degree: int) -> HomologyResult:
    """Homology of a simplicial chain complex, read off its reduced
    homology over the augmentation, where the peel has a start even on a
    closed surface (every edge there lies in two triangles, every vertex
    in three or more edges).  Degree 0 gets its Z back."""
    if cc.rank(0) == 0:
        return reference_homology_of_chain_complex(cc, max_degree)
    reduced = reference_homology_of_chain_complex(
        augmented(cc), max_degree + 1
    ).groups
    h0 = HomologyGroup(reduced[1].betti + 1, reduced[1].torsion)
    return HomologyResult(groups=(h0,) + reduced[2:])


class HomologyWorkspace:
    """Homology with explicit cycle bases and canonical class labels.

    Degree by degree this keeps a basis of the cycle lattice, the
    relation matrix of the boundary image in that basis, and the Smith
    transform that reduces cycle coordinates to a canonical form, so two
    cycles are homologous exactly when their labels agree.
    """

    def __init__(self, cc: ChainComplex, max_degree: int):
        self.cc = cc
        self.max_degree = max_degree
        self._kernel_solver = {}
        self._relations = {}
        self._relation_snf = {}
        for k in range(max_degree + 1):
            self._prepare(k)

    def _prepare(self, k: int) -> None:
        n = self.cc.rank(k)
        if k == 0 or self.cc.rank(k - 1) == 0:
            solver = _unit_vectors(n)
            rank = 0
        else:
            form = sparse_smith_form(
                self.cc.boundary(k),
                (self.cc.rank(k - 1), n),
                want_left=False,
                want_right_inverse=True,
            )
            rank = form.rank
            solver = form.right_inverse
        self._kernel_solver[k] = (solver, rank)

    def cycle_coordinates(self, k: int, chain: Sequence[int]) -> List[int]:
        solver, rank = self._kernel_solver[k]
        coords = [sum(v * chain[j] for j, v in row.items()) for row in solver]
        if any(coords[:rank]):
            raise ValidationError("chain is not a cycle")
        return coords[rank:]

    def _relation_data(self, k: int):
        if k not in self._relations:
            solver, rank = self._kernel_solver[k]
            # kernel coordinates of every boundary column
            coords = sparse_multiply(solver, self.cc.boundary(k + 1))
            if any(coords[:rank]):
                raise ValidationError("chain is not a cycle")
            rel = coords[rank:]
            self._relations[k] = rel
            self._relation_snf[k] = sparse_smith_form(
                rel, (len(rel), self.cc.rank(k + 1)),
                want_left=True,
            )
        return self._relations[k], self._relation_snf[k]

    def group(self, k: int) -> HomologyGroup:
        rel, form = self._relation_data(k)
        kdim = len(rel)
        betti = kdim - form.rank
        torsion = tuple(d for d in form.diagonal if d > 1)
        return HomologyGroup(betti=betti, torsion=torsion)

    def class_label(self, k: int, chain: Sequence[int]) -> tuple:
        """Canonical label of a cycle's homology class.

        Labels of two cycles in the same degree agree iff the cycles are
        homologous.
        """
        coords = self.cycle_coordinates(k, chain)
        _, form = self._relation_data(k)
        reduced = [
            sum(v * coords[j] for j, v in row.items()) for row in form.left
        ]
        for i, d in enumerate(form.diagonal):
            if d:
                reduced[i] %= d
        return tuple(reduced)

    def relation_matrix(self, k: int) -> SparseRows:
        """Sparse rows of the boundary image in cycle coordinates."""
        return self._relation_data(k)[0]


def _unit_vectors(n: int) -> SparseRows:
    return [{i: 1} for i in range(n)]


def _invariant_factors(rows: SparseRows, shape) -> tuple:
    form = sparse_smith_form(
        rows, shape, want_left=False, want_right_inverse=False
    )
    return tuple(d for d in form.diagonal if d != 0)


def cycle_basis(cc: ChainComplex, k: int) -> SparseRows:
    """Basis of the degree-k cycle lattice, one sparse column per vector.

    Cheaper than a full workspace: only the right transform of one Smith
    reduction is tracked.  The library's reduction keeps V^-1, not V, so
    the columns of V past the rank are solved for exactly: the same
    basis that tracking V gave.
    """
    n = cc.rank(k)
    if k == 0 or cc.rank(k - 1) == 0:
        return _unit_vectors(n)
    form = sparse_smith_form(
        cc.boundary(k),
        (cc.rank(k - 1), n),
        want_left=False,
        want_right_inverse=True,
    )
    return inverse_columns(form.right_inverse, n, form.rank)


def inverse_columns(rows: SparseRows, n: int, first: int = 0) -> SparseRows:
    """Columns ``first .. n - 1`` of the inverse of an invertible n x n
    integer matrix, given by sparse rows, whose inverse is integral.

    Exact Gauss-Jordan elimination of [A | E], where E holds only the
    unit columns asked for: each column of A takes a pivot of absolute
    value 1 where it has one (the sparsest such row), else a rational one.
    """
    work = [dict(row) for row in rows]
    solved = [{i - first: 1} if i >= first else {} for i in range(n)]
    holding = [set() for _ in range(n)]  # rows with a nonzero in each column
    for i, row in enumerate(work):
        for j in row:
            holding[j].add(i)
    free = set(range(n))
    pivot_rows = []
    for c in range(n):
        p = min(holding[c] & free,
                key=lambda i: (abs(work[i][c]) != 1, len(work[i]), i))
        free.discard(p)
        pivot_rows.append(p)
        v = work[p][c]
        scale = v if abs(v) == 1 else Fraction(1, v)
        work[p] = {j: x * scale for j, x in work[p].items()}
        solved[p] = {j: x * scale for j, x in solved[p].items()}
        for i in holding[c] - {p}:
            q = work[i][c]
            for j, x in work[p].items():
                new = work[i].get(j, 0) - q * x
                if new:
                    work[i][j] = new
                    holding[j].add(i)
                else:
                    del work[i][j]
                    holding[j].discard(i)
            for j, x in solved[p].items():
                new = solved[i].get(j, 0) - q * x
                if new:
                    solved[i][j] = new
                else:
                    del solved[i][j]
    columns = [{} for _ in range(n - first)]
    for c, p in enumerate(pivot_rows):
        for j, x in solved[p].items():
            assert x.denominator == 1, "the inverse is not integral"
            columns[j][c] = int(x)
    return columns


def induced_map_surjective(
    chain_map: SparseRows,
    source_kernel: SparseRows,
    target: HomologyWorkspace,
    degree: int,
) -> bool:
    """Whether the induced map hits all of the target homology group.

    ``chain_map`` is sparse rows in degree ``degree`` and
    ``source_kernel`` a cycle basis as returned by :func:`cycle_basis`.
    """
    image_of: dict = {}
    for i, row in enumerate(chain_map):
        for l, v in row.items():
            image_of.setdefault(l, []).append((i, v))
    columns = []
    for vec in source_kernel:
        mapped = [0] * target.cc.rank(degree)
        for l, x in vec.items():
            for i, v in image_of.get(l, ()):
                mapped[i] += v * x
        columns.append(target.cycle_coordinates(degree, mapped))
    relations = target.relation_matrix(degree)
    kdim = len(relations)
    if kdim == 0:
        return True
    src_rank = len(columns)
    combined = [{} for _ in range(kdim)]
    for j, coords in enumerate(columns):
        for i, v in enumerate(coords):
            if v:
                combined[i][j] = v
    for i, rel_row in enumerate(relations):
        for c, v in rel_row.items():
            combined[i][src_rank + c] = v
    factors = _invariant_factors(
        combined, (kdim, src_rank + target.cc.rank(degree + 1))
    )
    return len(factors) == kdim and all(d == 1 for d in factors)


def map_induces_homology_isomorphism(f: SimplicialMap, max_degree: int) -> bool:
    """Whether a simplicial map is a homology isomorphism through a degree.

    Both sides must have equal invariants degree by degree and the induced
    map must be surjective; a surjection between isomorphic finitely
    generated abelian groups is an isomorphism.
    """
    src_cc = chain_complex_of(f.source, min(max_degree + 1, max(f.source.dim, 0)))
    tgt_cc = chain_complex_of(f.target, min(max_degree + 1, max(f.target.dim, 0)))
    src_hom = augmented_simplicial_homology(src_cc, max_degree)
    target = HomologyWorkspace(tgt_cc, max_degree)
    chain_maps = simplicial_chain_map(f, max_degree)
    for k in range(max_degree + 1):
        if src_hom.group(k) != target.group(k):
            return False
        kernel = cycle_basis(src_cc, k)
        if not induced_map_surjective(chain_maps[k], kernel, target, k):
            return False
    return True


class _CyclicReducer:
    """Mod-m cocycles modulo coboundaries for one cyclic factor Z/m.

    ``edge_cobounds`` holds one sparse vector per edge, its coboundary
    over the triangles; ``delta2`` is the coboundary from triangles to
    tetrahedra as sparse rows.
    """

    def __init__(self, modulus: int, edge_cobounds, delta2, dim: int):
        self.modulus = modulus
        self.dim = dim
        # lattice of mod-m cocycles: coordinates scaled so delta2 lands in m*Z
        if delta2:
            form2 = sparse_smith_form(
                delta2, (len(delta2), dim), want_left=False,
                want_right_inverse=True,
            )
            diag = list(form2.diagonal) + [0] * (dim - len(form2.diagonal))
            self._scale = [
                modulus // math.gcd(diag[j], modulus) if diag[j] else 1
                for j in range(dim)
            ]
            self._solver = form2.right_inverse
        else:
            self._scale = [1] * dim
            self._solver = [{i: 1} for i in range(dim)]
        # coboundary + modulus sublattice, in kernel coordinates: one
        # column per edge, then m times each unit vector
        cols1 = len(edge_cobounds)
        generators = [{} for _ in range(dim)]
        for j, vec in enumerate(edge_cobounds):
            for i, v in vec.items():
                generators[i][j] = v
        for i in range(dim):
            generators[i][cols1 + i] = modulus
        rel = []
        for s, row in zip(self._scale, sparse_multiply(self._solver, generators)):
            if any(v % s for v in row.values()):
                raise ValidationError("vector is not a mod-m cocycle")
            rel.append({j: v // s for j, v in row.items()})
        self._relation_form = sparse_smith_form(
            rel, (dim, cols1 + dim), want_left=True
        )
        self.class_count = 1
        for d in self._relation_form.diagonal:
            if d == 0:
                raise ValidationError("cocycle lattice is not of finite index")
            self.class_count *= d

    def _coordinates(self, vec) -> list:
        out = []
        for s, row in zip(self._scale, self._solver):
            raw = sum(v * vec[j] for j, v in row.items())
            if raw % s:
                raise ValidationError("vector is not a mod-m cocycle")
            out.append(raw // s)
        return out

    def label(self, vec) -> tuple:
        coords = self._coordinates(vec)
        form = self._relation_form
        reduced = [
            sum(v * coords[j] for j, v in row.items()) for row in form.left
        ]
        for i, d in enumerate(form.diagonal):
            reduced[i] %= d
        return tuple(reduced)


class CechClassifier:
    """Degree-2 cochain classes of a nerve with finite abelian coefficients.

    Coefficients are decomposed into cyclic factors; per factor the
    cocycle lattice mod (coboundaries + modulus) is reduced by one Smith
    form, giving canonical labels and the total class count.
    """

    def __init__(self, nerve: NerveComplex, coefficients):
        self.nerve = nerve
        self.coefficients = coefficients
        self.factors, self.coords = abelian_decomposition(coefficients)
        cx = nerve.complex
        self.triangles = cx.simplices_of_dim(2)
        edge_cobounds = reference_simplex_boundary_matrix(cx, 2)
        delta2 = sparse_columns(
            reference_simplex_boundary_matrix(cx, 3), cx.simplex_count(3)
        )
        self._reducers = [
            _CyclicReducer(m, edge_cobounds, delta2, len(self.triangles))
            for m in self.factors
        ]

    @property
    def class_count(self) -> int:
        out = 1
        for reducer in self._reducers:
            out *= reducer.class_count
        return out

    def label(self, witnesses: Mapping) -> tuple:
        out = []
        for axis, reducer in enumerate(self._reducers):
            vec = [
                self.coords[witnesses[tuple(t)]][axis] for t in self.triangles
            ]
            out.extend(reducer.label(vec))
        return tuple(out)
