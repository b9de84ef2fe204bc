"""Dense views of the library's sparse matrices (lists of dict rows), for
tests that multiply or index matrices entry by entry."""

from types import SimpleNamespace


def dense(rows, cols):
    """Sparse rows as plain lists of length ``cols``."""
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_multiply(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for row in a
    ]


def dense_form(form):
    """A sparse Smith form with both transforms as plain lists: the rows
    of U and of V^-1."""
    m, n = form.shape
    return SimpleNamespace(
        shape=form.shape, diagonal=form.diagonal,
        left=dense(form.left, m),
        right_inverse=dense(form.right_inverse, n),
    )
