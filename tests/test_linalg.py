"""Exact rational linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgmf import linalg, polymat
from lgmf.mf import _boundary_columns, _dicts_to_vectors

from conftest import line_defect

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


# -- the sparse Fraction-row reference: the engine before integer rows --------

def _reference_axpy(v, f, row):
    f = -f
    for c, a in row.items():
        x = v[c] + f * a if c in v else f * a
        if x:
            v[c] = x
        else:
            del v[c]


class _ReferenceSpan:
    """Rows {column: Fraction} in reduced row echelon form, pivot entry 1."""

    def __init__(self, width):
        self.width = width
        self.rows = {}

    def reduce_sparse(self, v):
        for p in [c for c in v if c in self.rows]:
            _reference_axpy(v, v[p], self.rows[p])
        return v

    def insert(self, v):
        v = self.reduce_sparse(v)
        if not v:
            return None
        p = min(v)
        if v[p] != 1:
            inv = 1 / v[p]
            v = {c: x * inv for c, x in v.items()}
        for row in self.rows.values():
            if p in row:
                _reference_axpy(row, row[p], v)
        self.rows[p] = v
        return p

    def add(self, vec):
        return self.insert(_reference_sparse(vec)) is not None

    def reduce(self, vec):
        v = self.reduce_sparse(_reference_sparse(vec))
        return [v.get(c, Fraction(0)) for c in range(len(vec))]

    def contains(self, vec):
        return not self.reduce_sparse(_reference_sparse(vec))


def _reference_sparse(vec):
    return {c: Fraction(x) for c, x in enumerate(vec) if x}


def _reference_span(matrix, width):
    span = _ReferenceSpan(width)
    for row in matrix:
        span.insert(_reference_sparse(row))
    return span


def _reference_solve(matrix, rhs):
    if not matrix:
        return []
    n = len(matrix[0])
    span = _ReferenceSpan(n + 1)
    for row, b in zip(matrix, rhs):
        v = _reference_sparse(row)
        if b:
            v[n] = Fraction(b)
        if span.insert(v) == n:
            return None
    rows = span.rows
    return [rows[c].get(n, Fraction(0)) if c in rows else Fraction(0)
            for c in range(n)]


def _reference_nullspace(matrix, n):
    rows = _reference_span(matrix, n).rows
    basis = []
    for free in range(n):
        if free not in rows:
            v = [Fraction(0)] * n
            v[free] = Fraction(1)
            for c, row in rows.items():
                if free in row:
                    v[c] = -row[free]
            basis.append(v)
    return basis


def _check_rows(span):
    """The engine's invariant: integer rows with content 1 and a positive
    leftmost (pivot) entry, and no entry in another row's pivot column."""
    for p, row in span._rows.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        assert not (row.keys() & span._rows.keys()) - {p}


# -- large numerators, mixed denominators, negative leading entries ----------

big_entry = st.one_of(
    st.just(0), st.just(Fraction(0)), st.just(0), st.just(Fraction(0)),
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 50)))


@st.composite
def big_matrices(draw, max_rows=7, max_cols=7):
    """Rows over big_entry; a drawn half of them negated, so that leading
    entries of either sign occur, plus zero and repeated rows."""
    n = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.lists(big_entry, min_size=n, max_size=n),
                         max_size=max_rows))
    rows = [[-x for x in row] if draw(st.booleans()) else row
            for row in rows]
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
        rows.append([0] * n)
    return n, rows


@given(big_matrices(), st.data())
def test_solve_nullspace_rank_match_both_references(nm, data):
    n, A = nm
    got = linalg.nullspace(A, n=n)
    assert got == _reference_nullspace(A, n) == dense_nullspace(A, n=n)
    assert all_fractions(got)
    assert linalg.rank(A) == len(_reference_span(A, n).rows) == dense_rank(A)
    x = data.draw(st.lists(big_entry, min_size=n, max_size=n))
    consistent = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in A]
    arbitrary = data.draw(st.lists(big_entry, min_size=len(A),
                                   max_size=len(A)))
    for b in (consistent, arbitrary):
        got = linalg.solve(A, b)
        assert got == _reference_solve(A, b) == dense_solve(A, b)
        if got is not None:
            assert all_fractions([got])
    span = linalg._span(A, n)
    _check_rows(span)


@given(big_matrices(), big_matrices())
def test_span_matches_both_references(added, probes):
    n, vectors = added
    probes = [row[:n] + [0] * (n - len(row)) for row in probes[1]]
    span, ref, dense = linalg.Span(n), _ReferenceSpan(n), DenseSpan(n)
    for v in vectors:
        grew = span.add(v)
        assert grew == ref.add(v) == dense.add(v)
        _check_rows(span)
    for v in vectors + probes:
        got = span.reduce(v)
        assert got == ref.reduce(v) == dense.reduce(v)
        assert all_fractions([got])
        assert span.contains(v) == ref.contains(v) == (not any(got))


# -- the boundary systems of the x^p - y^p line defects ----------------------

@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_line_defect_boundary_systems_match_the_reference(p):
    """What hom_cohomology and the Cardy supertrace ask of the engine, on
    the real systems at the cohomology bound 2p: cocycles, coboundary
    spans with reductions, and solves."""
    X = line_defect(p).base
    systems = [_boundary_columns(X, X, parity, 2 * p, X.ctx)[1]
               for parity in (0, 1)]
    for parity, cols in enumerate(systems):
        cob = systems[parity ^ 1]
        keys, vecs = _dicts_to_vectors(cols + cob)
        matrix = polymat.transpose(vecs[:len(cols)])
        n = len(cols)
        got = linalg.nullspace(matrix, n=n)
        assert got == _reference_nullspace(matrix, n)
        assert got and all_fractions(got)
        span, ref = linalg.Span(len(keys)), _ReferenceSpan(len(keys))
        for v in vecs[len(cols):]:
            assert span.add(v) == ref.add(v)
        _check_rows(span)
        for v in vecs[:len(cols)]:
            got = span.reduce(v)
            assert got == ref.reduce(v) and all_fractions([got])
        # the boundary of the sum of every other unknown, halved: consistent
        rhs = [Fraction(sum(row[::2]), 2) for row in matrix]
        got = linalg.solve(matrix, rhs)
        assert got is not None and got == _reference_solve(matrix, rhs)
        assert all_fractions([got])
        bad = list(rhs)
        bad[0] += 1
        assert linalg.solve(matrix, bad) == _reference_solve(matrix, bad)
