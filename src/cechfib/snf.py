"""Exact integer matrix reduction: Smith normal form with transforms.

All arithmetic is on Python integers, so results are exact at any size.
Matrices are plain lists of rows.  The reduction runs a sparse pass that
consumes unit pivots first (boundary matrices of simplicial complexes
reduce almost entirely this way) and falls back to the classical
minimum-pivot algorithm for whatever remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

Matrix = list  # list of rows, each row a list of ints


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def matrix_multiply(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        row = a[i]
        acc = out[i]
        for k in range(inner):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        acc[j] += x * brow[j]
    return out


def transpose(a: Matrix, cols: Optional[int] = None) -> Matrix:
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


@dataclass(frozen=True)
class SmithNormalForm:
    """Diagonalization U * M * V = D with U, V unimodular.

    ``diagonal`` lists the diagonal of D (length min(m, n)); each nonzero
    entry is positive and divides the next.  ``right_inverse`` is V^-1,
    kept when requested because solving for kernel coordinates needs it.
    """

    shape: tuple
    diagonal: tuple
    left: Optional[Matrix] = None
    right: Optional[Matrix] = None
    right_inverse: Optional[Matrix] = None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _matrix_shape(mat: Sequence[Sequence[int]], shape):
    if shape is not None:
        return int(shape[0]), int(shape[1])
    m = len(mat)
    n = len(mat[0]) if m else 0
    return m, n


def smith_normal_form(
    mat: Sequence[Sequence[int]],
    shape=None,
    *,
    want_left: bool = True,
    want_right: bool = True,
    want_right_inverse: bool = False,
) -> SmithNormalForm:
    """Reduce an integer matrix to Smith normal form.

    Returns transforms with U*M*V diagonal, each diagonal entry dividing
    the next.  Transform tracking can be switched off per side when only
    invariant factors or one-sided data are needed.
    """
    m, n = _matrix_shape(mat, shape)
    rows = []
    for i in range(m):
        row = {}
        src = mat[i]
        for j in range(n):
            v = int(src[j])
            if v:
                row[j] = v
        rows.append(row)
    return _reduce(rows, m, n, want_left, want_right, want_right_inverse)


def invariant_factors(mat: Sequence[Sequence[int]], shape=None) -> tuple:
    """Nonzero diagonal of the Smith form, cheapest path (no transforms)."""
    form = smith_normal_form(
        mat, shape, want_left=False, want_right=False, want_right_inverse=False
    )
    return tuple(d for d in form.diagonal if d != 0)


def _reduce(rows, m, n, want_left, want_right, want_right_inv):
    col_index = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_index[j].add(i)

    left = identity_matrix(m) if want_left else None
    right = identity_matrix(n) if want_right else None
    right_inv = identity_matrix(n) if want_right_inv else None

    active_rows = set(range(m))
    active_cols = set(range(n))
    unit_queue = [
        (i, j) for i in range(m) for j, v in rows[i].items() if v in (1, -1)
    ]

    def row_sub(i, r, q):
        # row_i -= q * row_r
        target = rows[i]
        for j, v in rows[r].items():
            new = target.get(j, 0) - q * v
            if new:
                if j not in target:
                    col_index[j].add(i)
                target[j] = new
                if new in (1, -1) and i in active_rows and j in active_cols:
                    unit_queue.append((i, j))
            elif j in target:
                del target[j]
                col_index[j].discard(i)
        if left is not None:
            ui, ur = left[i], left[r]
            for k in range(m):
                if ur[k]:
                    ui[k] -= q * ur[k]

    def col_sub(j, c, q):
        # col_j -= q * col_c
        for i in list(col_index[c]):
            v = rows[i][c]
            new = rows[i].get(j, 0) - q * v
            if new:
                if j not in rows[i]:
                    col_index[j].add(i)
                rows[i][j] = new
                if new in (1, -1) and i in active_rows and j in active_cols:
                    unit_queue.append((i, j))
            elif j in rows[i]:
                del rows[i][j]
                col_index[j].discard(i)
        if right is not None:
            for k in range(n):
                if right[k][c]:
                    right[k][j] -= q * right[k][c]
        if right_inv is not None:
            rc, rj = right_inv[c], right_inv[j]
            for k in range(n):
                if rj[k]:
                    rc[k] += q * rj[k]

    def negate_row(r):
        row = rows[r]
        for j in list(row):
            row[j] = -row[j]
        if left is not None:
            left[r] = [-x for x in left[r]]

    def clear_pivot(r, c):
        # assumes |rows[r][c]| is 1 after sign fix
        for i in sorted(col_index[c] - {r}):
            row_sub(i, r, rows[i][c])
        for j in sorted(k for k in rows[r] if k != c):
            col_sub(j, c, rows[r][j])

    pivots = []

    # Pass 1: unit pivots, cheap eliminations.
    while unit_queue:
        r, c = unit_queue.pop()
        if r not in active_rows or c not in active_cols:
            continue
        v = rows[r].get(c, 0)
        if v not in (1, -1):
            continue
        if v == -1:
            negate_row(r)
        clear_pivot(r, c)
        active_rows.discard(r)
        active_cols.discard(c)
        pivots.append((r, c))

    # Pass 2: classical reduction of the residue.
    while True:
        best = None
        for i in active_rows:
            for j, v in rows[i].items():
                if j in active_cols:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
        if best is None:
            break
        _, r, c = best
        while True:
            p = rows[r][c]
            dirty = False
            for i in sorted(col_index[c] - {r}):
                q = rows[i][c] // p
                if q:
                    row_sub(i, r, q)
                if rows[i].get(c):
                    dirty = True
            if dirty:
                # a smaller remainder appeared in the column; re-pivot there
                r = min(
                    (i for i in col_index[c] if i in active_rows),
                    key=lambda i: abs(rows[i][c]),
                )
                continue
            for j in sorted(k for k in rows[r] if k != c):
                q = rows[r][j] // p
                if q:
                    col_sub(j, c, q)
                if rows[r].get(j):
                    dirty = True
            if dirty:
                c = min(
                    (j for j in rows[r] if j in active_cols),
                    key=lambda j: abs(rows[r][j]),
                )
                continue
            # pivot isolated; enforce divisibility against the rest
            p = rows[r][c]
            offender = None
            for i in active_rows:
                if i == r:
                    continue
                for j, v in rows[i].items():
                    if j in active_cols and v % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(r, offender, -1)
        if rows[r][c] < 0:
            negate_row(r)
        active_rows.discard(r)
        active_cols.discard(c)
        pivots.append((r, c))

    # Assemble the permutation sending pivot k to slot k.
    pivot_rows = [r for r, _ in pivots]
    pivot_cols = [c for _, c in pivots]
    row_order = pivot_rows + sorted(set(range(m)) - set(pivot_rows))
    col_order = pivot_cols + sorted(set(range(n)) - set(pivot_cols))

    diag = []
    for k in range(min(m, n)):
        if k < len(pivots):
            r, c = pivots[k]
            diag.append(rows[r].get(c, 0))
        else:
            diag.append(0)

    left_out = [left[r] for r in row_order] if left is not None else None
    right_out = None
    if right is not None:
        right_out = [[right[i][c] for c in col_order] for i in range(n)]
    right_inv_out = None
    if right_inv is not None:
        right_inv_out = [right_inv[c] for c in col_order]

    return SmithNormalForm(
        shape=(m, n),
        diagonal=tuple(diag),
        left=left_out,
        right=right_out,
        right_inverse=right_inv_out,
    )
