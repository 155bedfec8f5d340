"""Exact rational linear algebra."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from lgmf import linalg

frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def matrix_strategy(rows=3, cols=3):
    return st.lists(st.lists(frac, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


# -- the dense reference: Gaussian elimination over lists of Fractions --------

def dense_rref(rows, width):
    """Reduced row echelon form in place; returns list of pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_rank(matrix):
    if not matrix:
        return 0
    rows = [[Fraction(v) for v in row] for row in matrix]
    return len(dense_rref(rows, len(rows[0])))


def dense_solve(matrix, rhs):
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    rows = [[Fraction(v) for v in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    pivots = dense_rref(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n]:
            return None
    x = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rows[r][n]
    return x


def dense_nullspace(matrix, n=None):
    m = len(matrix)
    if n is None:
        n = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots = dense_rref(rows, n)
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


class DenseSpan:
    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        for c in range(self.width):
            if v[c]:
                inv = Fraction(1) / v[c]
                v = [a * inv for a in v]
                for i in range(len(self.rows)):
                    if self.rows[i][c]:
                        f = self.rows[i][c]
                        self.rows[i] = [a - f * b
                                        for a, b in zip(self.rows[i], v)]
                self.rows.append(v)
                self.pivots.append(c)
                return True
        return False


# -- mostly-zero rectangular matrices with zero and duplicate rows ------------

sparse_entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                         st.just(Fraction(0)), frac, st.integers(-3, 3))


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=7):
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(sparse_entry, min_size=n, max_size=n),
                         max_size=max_rows))
    extra = draw(st.lists(st.one_of(st.none(), st.integers(0, 99)),
                          max_size=3))
    for e in extra:
        if e is None:
            rows.insert(draw(st.integers(0, len(rows))), [0] * n)
        elif rows:
            rows.insert(draw(st.integers(0, len(rows))),
                        list(rows[e % len(rows)]))
    return n, rows


def all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


@given(sparse_matrices(), st.data())
def test_solve_matches_dense_reference(nm, data):
    n, A = nm
    x = data.draw(st.lists(sparse_entry, min_size=n, max_size=n))
    consistent = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in A]
    arbitrary = data.draw(st.lists(sparse_entry, min_size=len(A),
                                   max_size=len(A)))
    for b in (consistent, arbitrary):
        got = linalg.solve(A, b)
        assert got == dense_solve(A, b)
        if got is not None:
            assert all_fractions([got])


@given(sparse_matrices())
def test_nullspace_and_rank_match_dense_reference(nm):
    n, A = nm
    got = linalg.nullspace(A, n=n)
    assert got == dense_nullspace(A, n=n)
    assert all_fractions(got)
    assert linalg.nullspace(A) == dense_nullspace(A)
    assert linalg.rank(A) == dense_rank(A)


@given(sparse_matrices(), sparse_matrices())
def test_span_matches_dense_reference(added, probes):
    n, vectors = added
    probes = [row[:n] + [0] * (n - len(row)) for row in probes[1]]
    span, dense = linalg.Span(n), DenseSpan(n)
    for v in vectors:
        assert span.add(v) == dense.add(v)
        assert span.dim == len(dense.rows)
    for v in vectors + probes:
        got = span.reduce(v)
        assert got == dense.reduce(v)
        assert all_fractions([got])
        assert span.contains(v) == (not any(got))


def test_nullspace_keeps_pivots_in_column_order():
    # Sparsest-column-first pivoting would pick columns 1 and 2 and return
    # [[1, -1, -1]]; pivots in column order free column 2.
    A = [[1, 1, 0], [1, 0, 1]]
    assert linalg.nullspace(A) == [[-1, 1, 1]]
    assert linalg.solve(A, [1, 1]) == [1, 0, 0]


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert linalg.nullspace([], n=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace([]) == []


@given(matrix_strategy(), st.lists(frac, min_size=3, max_size=3))
def test_solve_reproduces_known_solution(A, x):
    b = [sum(A[i][j] * x[j] for j in range(3)) for i in range(3)]
    sol = linalg.solve(A, b)
    assert sol is not None
    got = [sum(A[i][j] * sol[j] for j in range(3)) for i in range(3)]
    assert got == b


@given(matrix_strategy(3, 4))
def test_nullspace_annihilates_and_rank_nullity(A):
    null = linalg.nullspace(A, n=4)
    for v in null:
        assert all(sum(A[i][j] * v[j] for j in range(4)) == 0
                   for i in range(3))
    assert linalg.rank(A) + len(null) == 4


def test_inconsistent_system_returns_none():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert linalg.solve(A, [Fraction(0), Fraction(1)]) is None
    assert linalg.solve([[0, 0]], [5]) is None
    assert linalg.solve([[], []], [0, 2]) is None
    assert linalg.solve([[], []], [0, 0]) == []


@given(matrix_strategy())
def test_invertible_iff_full_rank(A):
    assert linalg.invertible(A) == (linalg.rank(A) == 3)


@given(st.lists(st.lists(frac, min_size=4, max_size=4), min_size=1,
                max_size=5))
def test_span_membership(vectors):
    span = linalg.Span(4)
    added = []
    for v in vectors:
        if span.add(list(v)):
            added.append(v)
    assert span.dim == linalg.rank(added) if added else span.dim == 0
    for v in vectors:
        assert span.contains(list(v))
        assert all(c == 0 for c in span.reduce(list(v)))
