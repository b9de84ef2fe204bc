"""Exact integer matrix reduction: Smith normal form with transforms.

All arithmetic is on Python integers, so results are exact at any size.
A sparse matrix is a list of rows, each a dict from column index to a
nonzero entry, read together with its (rows, cols) shape; chain
complexes, chain maps and relation matrices are built in this form.
:func:`sparse_smith_form` is the one reduction.  It consumes unit pivots
first (boundary matrices of simplicial complexes reduce almost entirely
this way) and falls back to the classical minimum-pivot algorithm for
whatever remains.  Both passes isolate a pivot by one step: row
operations empty its column, and only then do column operations reduce
its row, so each of them changes the pivot row alone.  Its transforms
are sparse vectors as well.  Homology calls it only on what the unit
elimination of a chain complex leaves (see :mod:`cechfib.homology`);
transforms for class labels still come from full matrices.
:func:`sparse_rows` turns hand-written dense rows into this form.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

SparseRows = list  # list of rows, each a dict {column: nonzero int}


def sparse_rows(mat: Sequence[Sequence[int]], shape) -> SparseRows:
    """The nonzero entries of a dense matrix, row by row."""
    m, n = shape
    rows = []
    for i in range(m):
        src = mat[i]
        row = {}
        for j in range(n):
            v = int(src[j])
            if v:
                row[j] = v
        rows.append(row)
    return rows


def sparse_columns(rows: SparseRows, cols: int) -> SparseRows:
    """The transpose: one dict per column, keyed by row index."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[j][i] = v
    return out


def sparse_multiply(a: SparseRows, b: SparseRows) -> SparseRows:
    """Rows of the product a * b; row k of b is read for column k of a."""
    out = []
    for arow in a:
        acc = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


class SparseSmithForm(NamedTuple):
    """U * M * V = D with the transforms kept as sparse vectors.

    ``left`` holds the rows of U and ``right_inverse`` the rows of V^-1,
    each a dict from index to nonzero entry.
    """

    shape: tuple
    diagonal: tuple
    left: Optional[SparseRows] = None
    right_inverse: Optional[SparseRows] = None

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _subtract(target: dict, source: dict, q: int) -> None:
    # target -= q * source, for sparse vectors and q != 0
    for k, v in source.items():
        new = target.get(k, 0) - q * v
        if new:
            target[k] = new
        else:
            del target[k]


def sparse_smith_form(
    rows: SparseRows,
    shape,
    *,
    want_left: bool = True,
    want_right_inverse: bool = False,
) -> SparseSmithForm:
    """Reduce a sparse integer matrix to Smith normal form.

    ``rows`` is read, not changed; entries are taken in column order, so
    the result depends only on the matrix.  Transforms are returned as
    sparse vectors (see :class:`SparseSmithForm`).

    Both passes isolate a pivot (r, c) of value p by one step:
    ``clear_column`` takes ``a_ic // p`` times row r from every other row
    i, then ``clear_row`` takes ``a_rj // p`` times column c from every
    other column j.  Row operations keep U; the column operations run only
    once column c holds row r alone, so each changes row r's entry j and
    nothing else, and keeps V^-1.  Hence no other row holds a finished
    pivot's column, and a finished pivot row holds its pivot alone.
    """
    m, n = int(shape[0]), int(shape[1])
    rows = [{j: int(v) for j, v in sorted(row.items()) if v} for row in rows]
    col_index = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_index[j].add(i)

    left = [{i: 1} for i in range(m)] if want_left else None
    right_inv = [{j: 1} for j in range(n)] if want_right_inverse else None

    active_rows = set(range(m))
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
                if new in (1, -1):
                    unit_queue.append((i, j))
            elif j in target:
                del target[j]
                col_index[j].discard(i)
        if left is not None:
            _subtract(left[i], left[r], q)

    def negate_row(r):
        row = rows[r]
        for j in list(row):
            row[j] = -row[j]
        if left is not None:
            left[r] = {k: -v for k, v in left[r].items()}

    def clear_column(r, c):
        # row_i -= (a_ic // p) * row_r; whether a remainder is left in column c
        p = rows[r][c]
        for i in sorted(col_index[c] - {r}):
            q = rows[i][c] // p
            if q:
                row_sub(i, r, q)
        return len(col_index[c]) > 1

    def clear_row(r, c):
        # col_j -= (a_rj // p) * col_c: column c holds row r alone, so only
        # a_rj changes, to a_rj mod p; whether a remainder is left in row r
        row = rows[r]
        p = row[c]
        for j in sorted(k for k in row if k != c):
            q, rem = divmod(row[j], p)
            if not q:
                continue
            if rem:
                row[j] = rem
            else:
                del row[j]
                col_index[j].discard(r)
            if right_inv is not None:
                # row_c of V^-1 += q * row_j
                _subtract(right_inv[c], right_inv[j], -q)
        return len(row) > 1

    pivots = []

    # Pass 1: unit pivots, cheap eliminations.  A queued entry is stale
    # once its row is a pivot row or its value is no longer a unit.
    while unit_queue:
        r, c = unit_queue.pop()
        if r not in active_rows or rows[r].get(c) not in (1, -1):
            continue
        if rows[r][c] == -1:
            negate_row(r)
        clear_column(r, c)
        clear_row(r, c)
        active_rows.discard(r)
        pivots.append((r, c))

    # Pass 2: classical reduction of the residue.
    while True:
        best = min(
            ((abs(v), i, j) for i in active_rows for j, v in rows[i].items()),
            key=lambda e: e[0],
            default=None,
        )
        if best is None:
            break
        _, r, c = best
        while True:
            if clear_column(r, c):
                # a smaller remainder appeared in the column; re-pivot there
                r = min(col_index[c], key=lambda i: abs(rows[i][c]))
                continue
            if clear_row(r, c):
                c = min(rows[r], key=lambda j: abs(rows[r][j]))
                continue
            # pivot isolated; enforce divisibility against the rest
            p = rows[r][c]
            offender = next(
                (i for i in active_rows
                 if i != r and any(v % p for v in rows[i].values())),
                None,
            )
            if offender is None:
                break
            row_sub(r, offender, -1)
        if rows[r][c] < 0:
            negate_row(r)
        active_rows.discard(r)
        pivots.append((r, c))

    # Assemble the permutation sending pivot k to slot k.
    pivot_rows = [r for r, _ in pivots]
    pivot_cols = [c for _, c in pivots]
    row_order = pivot_rows + sorted(set(range(m)) - set(pivot_rows))
    col_order = pivot_cols + sorted(set(range(n)) - set(pivot_cols))

    diag = [rows[r][c] for r, c in pivots] + [0] * (min(m, n) - len(pivots))
    return SparseSmithForm(
        shape=(m, n),
        diagonal=tuple(diag),
        left=[left[r] for r in row_order] if left is not None else None,
        right_inverse=(
            [right_inv[c] for c in col_order] if right_inv is not None else None
        ),
    )
