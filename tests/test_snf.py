import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cechfib import barycentric_subdivision, chain_complex_of
from cechfib.homology import _invariant_factors
from cechfib.snf import sparse_rows, sparse_smith_form
from dense import dense, dense_form, identity_matrix, matrix_multiply

import corpus


def as_diagonal_matrix(form):
    m, n = form.shape
    out = [[0] * n for _ in range(m)]
    for i, d in enumerate(form.diagonal):
        out[i][i] = d
    return out


def check_form(mat, m, n):
    form = dense_form(sparse_smith_form(
        sparse_rows(mat, (m, n)), (m, n), want_right_inverse=True
    ))
    # U * A * V = D, read as U * A = D * V^-1 so that V itself is never needed
    product = matrix_multiply(form.left, [list(r) for r in mat])
    assert product == matrix_multiply(as_diagonal_matrix(form), form.right_inverse)
    nonzero = [d for d in form.diagonal if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    if m:
        assert sympy.Matrix(form.left).det() in (1, -1)
    if n:
        assert sympy.Matrix(form.right_inverse).det() in (1, -1)
    return form


def test_identity_matrix_is_fixed():
    assert check_form([[1, 0], [0, 1]], 2, 2).diagonal == (1, 1)


def test_zero_matrix():
    assert check_form([[0, 0], [0, 0]], 2, 2).diagonal == (0, 0)


def test_coprime_row_reduces_to_one():
    # the column step leaves 3 mod 2 = 1 beside the pivot 2, which must
    # then become the pivot
    form = check_form([[2, 3]], 1, 2)
    assert form.diagonal == (1,)
    assert (form.left, form.right_inverse) == ([[1]], [[2, 3], [1, 1]])


def test_diag_2_3_normalizes_to_1_6():
    assert check_form([[2, 0], [0, 3]], 2, 2).diagonal == (1, 6)


def test_empty_shapes():
    assert check_form([], 0, 3).diagonal == ()
    assert check_form([[], [], []], 3, 0).diagonal == ()


@pytest.mark.parametrize("seed", range(5))
def test_random_matrices_reduce_correctly(seed):
    rng = random.Random(seed)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        check_form(mat, m, n)


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
@settings(max_examples=60, deadline=None)
def test_invariant_factors_match_sympy(rows):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    shape = (len(rows), len(rows[0]))
    ours = sorted(_invariant_factors(sparse_rows(rows, shape), shape))
    s = sympy_snf(sympy.Matrix(rows))
    theirs = sorted(
        abs(s[i, i]) for i in range(min(len(rows), len(rows[0]))) if s[i, i]
    )
    assert ours == theirs


# Oracle for the sparse-transform reduction: the reduction with dense
# transforms that this library used before, kept verbatim.  Its pivot
# sequence and row and column operations are the same, so every
# transform must come out identical, not merely equivalent.
def dense_reduce(rows, m, n, want_left, want_right, want_right_inv):
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

    return tuple(diag), left_out, right_out, right_inv_out


def assert_same_as_dense_reduction(rows, m, n):
    diagonal, left, _, right_inv = dense_reduce(
        [dict(r) for r in rows], m, n, True, False, True)
    form = dense_form(sparse_smith_form(rows, (m, n), want_right_inverse=True))
    assert (form.diagonal, form.left, form.right_inverse) == (diagonal, left, right_inv)


def small_matrix(rng):
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    spread = rng.choice((1, 2, 6))
    return m, n, [
        [rng.randint(-spread, spread) if rng.random() < 0.6 else 0
         for _ in range(n)]
        for _ in range(m)
    ]


NON_UNIT_ENTRIES = [v for v in range(-6, 7) if v]


def non_unit_matrix(rng):
    # about 30% dense with entries in +-1..+-6: few unit pivots, so the
    # residue's re-pivots and divisibility step run many times
    m, n = rng.randint(5, 25), rng.randint(5, 25)
    return m, n, [
        [rng.choice(NON_UNIT_ENTRIES) if rng.random() < 0.3 else 0
         for _ in range(n)]
        for _ in range(m)
    ]


@pytest.mark.parametrize(
    "seed,draw,count",
    [pytest.param(seed, small_matrix, 60, id=str(seed)) for seed in range(4)]
    + [pytest.param(seed, non_unit_matrix, 15, id=f"non_unit-{seed}")
       for seed in range(4)],
)
def test_sparse_transforms_match_dense_reduction_on_random_matrices(seed, draw, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n, mat = draw(rng)
        rows = sparse_rows(mat, (m, n))
        assert_same_as_dense_reduction(rows, m, n)
        # transforms that are not asked for change nothing else
        full = sparse_smith_form(rows, (m, n), want_right_inverse=True)
        for want_left in (False, True):
            for want_right_inverse in (False, True):
                form = sparse_smith_form(
                    rows, (m, n), want_left=want_left,
                    want_right_inverse=want_right_inverse,
                )
                assert form.diagonal == full.diagonal
                assert form.left == (full.left if want_left else None)
                assert form.right_inverse == (
                    full.right_inverse if want_right_inverse else None
                )


def subdivided(x, times):
    for _ in range(times):
        x, _ = barycentric_subdivision(x)
    return x


CORPUS_COMPLEXES = {
    **corpus.SURFACES,
    "point": corpus.POINT,
    "edge": corpus.EDGE,
    "full_triangle": corpus.FULL_TRIANGLE,
    "hexagon": corpus.HEXAGON,
    "full_3simplex": corpus.FULL_3SIMPLEX,
    "two_components": corpus.TWO_COMPONENTS,
}
BOUNDARY_CASES = [
    (name, rung)
    for name in sorted(CORPUS_COMPLEXES)
    for rung in ((0, 1, 2) if name in ("rp2", "torus") else (0,))
]


@pytest.mark.parametrize("name,rung", BOUNDARY_CASES)
def test_sparse_transforms_match_dense_reduction_on_boundaries(name, rung):
    cc = chain_complex_of(subdivided(CORPUS_COMPLEXES[name], rung))
    for k in range(1, len(cc.ranks)):
        m, n = cc.rank(k - 1), cc.rank(k)
        # the boundary read through its dense rows is the same sparse matrix
        rows = sparse_rows(dense(cc.boundary(k), n), (m, n))
        assert rows == cc.boundary(k)
        assert_same_as_dense_reduction(cc.boundary(k), m, n)


@pytest.mark.parametrize("name", ["rp2", "torus"])
def test_rung_one_invariant_factors_match_sympy(name):
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    cc = chain_complex_of(subdivided(corpus.SURFACES[name], 1))
    for k in range(1, len(cc.ranks)):
        m, n = cc.rank(k - 1), cc.rank(k)
        form = sparse_smith_form(cc.boundary(k), (m, n), want_left=False)
        s = sympy_snf(sympy.Matrix(dense(cc.boundary(k), n)))
        theirs = sorted(abs(s[i, i]) for i in range(min(m, n)) if s[i, i])
        assert sorted(d for d in form.diagonal if d) == theirs
