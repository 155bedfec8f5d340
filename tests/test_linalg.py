"""Exact rational linear algebra."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgmf import linalg, polymat
from lgmf.mf import _boundary_columns, _equations

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


# -- the dense face of the sparse API: the one adapter the dense tests use ----

def sparse(vec):
    return {c: x for c, x in enumerate(vec) if x}


def densify(vec, n):
    return [vec.get(c, Fraction(0)) for c in range(n)]


def no_zero_entry(vectors):
    return all(x for v in vectors for x in v.values())


class dense_linalg:
    """linalg on dense lists: rows are sparsified on the way in, results
    padded with Fraction(0) on the way out."""

    @staticmethod
    def solve(matrix, rhs):
        sol = linalg.solve([sparse(row) for row in matrix], rhs)
        assert sol is None or no_zero_entry([sol])
        return (None if sol is None
                else densify(sol, len(matrix[0]) if matrix else 0))

    @staticmethod
    def nullspace(matrix, n=None):
        if n is None:
            n = len(matrix[0]) if matrix else 0
        rank, null = linalg.nullspace([sparse(row) for row in matrix], n, n)
        assert no_zero_entry(null) and rank == n - len(null)
        return [densify(v, n) for v in null]

    @staticmethod
    def rank(matrix):
        return linalg.rank([sparse(row) for row in matrix])

    @staticmethod
    def invertible(matrix):
        return linalg.invertible([sparse(row) for row in matrix],
                                 len(matrix[0]) if matrix else 0)

    @staticmethod
    def _span(matrix, n):
        return linalg._span([sparse(row) for row in matrix])

    class Span:
        def __init__(self, width):
            self.span = linalg.Span()

        def add(self, vec):
            return self.span.add(sparse(vec))

        def reduce(self, vec):
            got = self.span.reduce(sparse(vec))
            assert no_zero_entry([got])
            return densify(got, len(vec))

        def contains(self, vec):
            return self.span.contains(sparse(vec))

        @property
        def dim(self):
            return self.span.dim


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
        got = dense_linalg.solve(A, b)
        assert got == dense_solve(A, b)
        if got is not None:
            assert all_fractions([got])


@given(sparse_matrices())
def test_nullspace_and_rank_match_dense_reference(nm):
    n, A = nm
    got = dense_linalg.nullspace(A, n=n)
    assert got == dense_nullspace(A, n=n)
    assert all_fractions(got)
    assert dense_linalg.nullspace(A) == dense_nullspace(A)
    assert dense_linalg.rank(A) == dense_rank(A)


@given(sparse_matrices(), sparse_matrices())
def test_span_matches_dense_reference(added, probes):
    n, vectors = added
    probes = [row[:n] + [0] * (n - len(row)) for row in probes[1]]
    span, dense = dense_linalg.Span(n), DenseSpan(n)
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
    assert dense_linalg.nullspace(A) == [[-1, 1, 1]]
    assert dense_linalg.solve(A, [1, 1]) == [1, 0, 0]


def test_nullspace_of_no_rows_is_the_standard_basis():
    assert dense_linalg.nullspace([], n=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dense_linalg.nullspace([]) == []


@given(matrix_strategy(), st.lists(frac, min_size=3, max_size=3))
def test_solve_reproduces_known_solution(A, x):
    b = [sum(A[i][j] * x[j] for j in range(3)) for i in range(3)]
    sol = dense_linalg.solve(A, b)
    assert sol is not None
    got = [sum(A[i][j] * sol[j] for j in range(3)) for i in range(3)]
    assert got == b


@given(matrix_strategy(3, 4))
def test_nullspace_annihilates_and_rank_nullity(A):
    null = dense_linalg.nullspace(A, n=4)
    for v in null:
        assert all(sum(A[i][j] * v[j] for j in range(4)) == 0
                   for i in range(3))
    assert dense_linalg.rank(A) + len(null) == 4


def test_inconsistent_system_returns_none():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert dense_linalg.solve(A, [Fraction(0), Fraction(1)]) is None
    assert dense_linalg.solve([[0, 0]], [5]) is None
    assert dense_linalg.solve([[], []], [0, 2]) is None
    assert dense_linalg.solve([[], []], [0, 0]) == []


@given(matrix_strategy())
def test_invertible_iff_full_rank(A):
    assert dense_linalg.invertible(A) == (dense_linalg.rank(A) == 3)


@given(st.lists(st.lists(frac, min_size=4, max_size=4), min_size=1,
                max_size=5))
def test_span_membership(vectors):
    span = dense_linalg.Span(4)
    added = []
    for v in vectors:
        if span.add(list(v)):
            added.append(v)
    assert span.dim == dense_linalg.rank(added) if added else span.dim == 0
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
    got = dense_linalg.nullspace(A, n=n)
    assert got == _reference_nullspace(A, n) == dense_nullspace(A, n=n)
    assert all_fractions(got)
    assert (dense_linalg.rank(A) == len(_reference_span(A, n).rows)
            == dense_rank(A))
    x = data.draw(st.lists(big_entry, min_size=n, max_size=n))
    consistent = [sum(Fraction(a) * b for a, b in zip(row, x)) for row in A]
    arbitrary = data.draw(st.lists(big_entry, min_size=len(A),
                                   max_size=len(A)))
    for b in (consistent, arbitrary):
        got = dense_linalg.solve(A, b)
        assert got == _reference_solve(A, b) == dense_solve(A, b)
        if got is not None:
            assert all_fractions([got])
    span = dense_linalg._span(A, n)
    _check_rows(span)


@given(big_matrices(), big_matrices())
def test_span_matches_both_references(added, probes):
    n, vectors = added
    probes = [row[:n] + [0] * (n - len(row)) for row in probes[1]]
    span, ref, dense = dense_linalg.Span(n), _ReferenceSpan(n), DenseSpan(n)
    for v in vectors:
        grew = span.add(v)
        assert grew == ref.add(v) == dense.add(v)
        _check_rows(span.span)
    for v in vectors + probes:
        got = span.reduce(v)
        assert got == ref.reduce(v) == dense.reduce(v)
        assert all_fractions([got])
        assert span.contains(v) == ref.contains(v) == (not any(got))


# -- the sparse API on keys of any order -------------------------------------

key = st.tuples(st.integers(0, 2), st.integers(0, 2),
                st.tuples(st.integers(0, 3), st.integers(0, 3)))
nonzero = st.one_of(st.integers(-9, 9), frac).filter(bool)
tuple_vectors = st.lists(st.dictionaries(key, nonzero, max_size=6),
                         max_size=7)


@given(tuple_vectors, tuple_vectors)
def test_span_over_tuple_keys_agrees_with_span_over_their_ranks(added,
                                                                probes):
    """Pivots are least keys, so a span over (i, j, exp) keys chooses the
    pivots of a span over the keys' ranks in sorted order."""
    keys = sorted({k for v in added + probes for k in v})
    rank = {k: r for r, k in enumerate(keys)}
    by_key, by_rank = linalg.Span(), linalg.Span()
    for v in added:
        assert by_key.add(v) == by_rank.add({rank[k]: x for k, x in v.items()})
        assert by_key.dim == by_rank.dim
        _check_rows(by_key)
    for v in added + probes:
        got = by_key.reduce(v)
        assert no_zero_entry([got]) and all_fractions([got.values()])
        assert got == {keys[r]: x for r, x in by_rank.reduce(
            {rank[k]: x for k, x in v.items()}).items()}
        assert by_key.contains(v) == (not got)


@given(sparse_matrices(), st.data())
def test_kernel_vectors_and_solutions_hold_no_zero_entry(nm, data):
    n, A = nm
    rows = [sparse(row) for row in A]
    null = linalg.nullspace(rows, n, n)[1]
    assert no_zero_entry(null) and all(v for v in null)
    b = data.draw(st.lists(sparse_entry, min_size=len(A), max_size=len(A)))
    for rhs in (b, [0] * len(A)):
        sol = linalg.solve(rows, rhs)
        assert sol is None or no_zero_entry([sol])
    assert linalg.solve(rows, [0] * len(A)) == {}


def test_solve_refuses_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError, match="1 rows but 2 right-hand sides"):
        linalg.solve([{0: 1}], [1, 5])


def test_nullspace_refuses_a_column_outside_its_width():
    with pytest.raises(ValueError, match=r"outside range\(2\)"):
        linalg.nullspace([{2: 1}], n=2, m=2)
    with pytest.raises(ValueError, match=r"outside range\(2\)"):
        linalg.nullspace([{0: 1}, {-1: 1}], n=2, m=2)


@given(sparse_matrices(), st.data())
def test_the_kernel_on_the_first_columns_ignores_the_columns_after(nm, data):
    """nullspace(rows, n, m) is the kernel basis of the rows cut to
    range(m), and its rank is that of all n columns."""
    n, A = nm
    m = data.draw(st.integers(0, n))
    rows = [sparse(row) for row in A]
    cut = [{c: x for c, x in row.items() if c < m} for row in rows]
    rank, null = linalg.nullspace(rows, n, m)
    assert null == linalg.nullspace(cut, m, m)[1]
    assert rank == linalg.rank(rows)


# -- the boundary systems of the x^p - y^p line defects ----------------------

def _dense_system(dicts):
    """The dicts as dense vectors over their sorted keys: the references'
    input, built apart from the engine's sparse path."""
    keys = sorted({k for d in dicts for k in d})
    return keys, [[d.get(k, 0) for k in keys] for d in dicts]


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_line_defect_boundary_systems_match_the_reference(p):
    """What hom_cohomology and the Cardy supertrace ask of the engine, on
    the real systems at the cohomology bound 2p: cocycles, coboundary
    spans with reductions, and solves.  The engine takes _boundary_columns
    output through mf._equations and spans over its (i, j, exp) keys."""
    X = line_defect(p).base
    systems = [_boundary_columns(X, X, parity, 2 * p, X.ctx)[1]
               for parity in (0, 1)]
    for parity, cols in enumerate(systems):
        cob = systems[parity ^ 1]
        keys, vecs = _dense_system(cols + cob)
        matrix = polymat.transpose(vecs[:len(cols)])
        n = len(cols)
        got = linalg.nullspace(_equations(cols)[0], n=n, m=n)[1]
        assert [densify(v, n) for v in got] == _reference_nullspace(matrix, n)
        assert got and all_fractions(v.values() for v in got)
        assert no_zero_entry(got)
        span, ref = linalg.Span(), _ReferenceSpan(len(keys))
        for d, v in zip(cob, vecs[len(cols):]):
            assert span.add(d) == ref.add(v)
        _check_rows(span)
        for d, v in zip(cols, vecs[:len(cols)]):
            got = span.reduce(d)
            assert [got.get(k, Fraction(0)) for k in keys] == ref.reduce(v)
            assert all_fractions([got.values()]) and no_zero_entry([got])
        # the boundary of the sum of every other unknown, halved: consistent
        rhs = [Fraction(sum(row[::2]), 2) for row in matrix]
        got = linalg.solve(*_equations(
            cols, {k: b for k, b in zip(keys, rhs) if b}))
        assert got is not None
        assert densify(got, n) == _reference_solve(matrix, rhs)
        assert all_fractions([got.values()]) and no_zero_entry([got])
        bad = list(rhs)
        bad[0] += 1
        got = linalg.solve(*_equations(
            cols, {k: b for k, b in zip(keys, bad) if b}))
        assert (got if got is None else densify(got, n)) == _reference_solve(
            matrix, bad)


# -- the per-step reduction: content divided after every elimination step ----

def _per_step_integral(d):
    den = lcm(*[x.denominator for x in d.values()])
    return {c: x.numerator * (den // x.denominator) for c, x in d.items()}


def _per_step_eliminate(v, row, p):
    a, b = row[p], v[p]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for c in v:
            v[c] *= a
    for c, x in row.items():
        if c in v:
            y = v[c] - b * x
            if y:
                v[c] = y
            else:
                del v[c]
        else:
            v[c] = -b * x
    g = gcd(*v.values())
    if g > 1:
        v = {c: x // g for c, x in v.items()}
    return v, a, g


class _PerStepSpan:
    """The engine before one content division per reduction: v's content
    is divided out after every step, and again when a row is inserted."""

    def __init__(self):
        self._rows = {}

    def reduce_integral(self, v):
        num = den = 1
        for p in [c for c in v if c in self._rows]:
            v, a, g = _per_step_eliminate(v, self._rows[p], p)
            den *= a
            num *= g
        return v, num, den

    def insert(self, v):
        v = self.reduce_integral(v)[0]
        if not v:
            return None
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            v = {c: x // g for c, x in v.items()}
        for q, row in self._rows.items():
            if p in row:
                self._rows[q] = _per_step_eliminate(row, v, p)[0]
        self._rows[p] = v
        return p

    def add(self, vec):
        return self.insert(_per_step_integral(vec)) is not None

    def reduce(self, vec):
        den = lcm(*[x.denominator for x in vec.values()])
        v, num, d = self.reduce_integral(_per_step_integral(vec))
        return {c: Fraction(x * num, den * d) for c, x in v.items()}

    def contains(self, vec):
        return not self.reduce_integral(_per_step_integral(vec))[0]


def _per_step_solve(rows, rhs):
    n = 1 + max((max(row) for row in rows if row), default=-1)
    span = _PerStepSpan()
    for row, b in zip(rows, rhs):
        if span.insert(_per_step_integral({**row, n: b} if b else row)) == n:
            return None
    return {c: Fraction(row[n], row[c])
            for c, row in sorted(span._rows.items()) if n in row}


def _per_step_nullspace(rows, m):
    span = _PerStepSpan()
    for row in rows:
        span.add(row)
    rows = span._rows
    basis = []
    for free in range(m):
        if free not in rows:
            v = {c: Fraction(-rows[c][free], rows[c][c])
                 for c in sorted(rows) if free in rows[c]}
            v[free] = Fraction(1)
            basis.append(v)
    return len(rows), basis


def _layout(span):
    """The stored rows with their pivot order and each row's entry order."""
    return [(p, list(row.items())) for p, row in span._rows.items()]


step_entry = st.one_of(
    st.integers(-4, 4), st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 50)),
).filter(bool)
step_vectors = st.lists(st.dictionaries(st.integers(0, 7), step_entry,
                                        max_size=6), max_size=9)


@given(step_vectors, step_vectors, st.data())
def test_span_matches_the_per_step_reduction(added, probes, data):
    """Dividing the content once per reduction stores the same primitive
    rows, in the same order, and gives the same remainders, solutions,
    ranks and kernels as dividing it after every step."""
    span, ref = linalg.Span(), _PerStepSpan()
    for v in added:
        assert span.add(v) == ref.add(v)
        assert _layout(span) == _layout(ref)
        _check_rows(span)
    for v in added + probes:
        got = span.reduce(v)
        assert list(got.items()) == list(ref.reduce(v).items())
        assert span.contains(v) == ref.contains(v)
    rhs = data.draw(st.lists(st.one_of(st.just(0), step_entry),
                             min_size=len(added), max_size=len(added)))
    assert linalg.solve(added, rhs) == _per_step_solve(added, rhs)
    assert linalg.rank(added) == len(ref._rows)
    n = 1 + max((max(v) for v in added if v), default=7)
    m = data.draw(st.integers(0, n))
    assert linalg.nullspace(added, n, m) == _per_step_nullspace(added, m)


# -- refused inputs -----------------------------------------------------------

def test_nullspace_refuses_a_kernel_range_outside_its_columns():
    with pytest.raises(ValueError, match=r"range\(5\) outside range\(2\)"):
        linalg.nullspace([], 2, 5)
    with pytest.raises(ValueError, match=r"range\(-1\) outside range\(2\)"):
        linalg.nullspace([{0: 1}], 2, -1)
    assert linalg.nullspace([], 2, 2) == (0, [{0: 1}, {1: 1}])
    assert linalg.nullspace([{0: 1}], 2, 0) == (1, [])


def test_an_explicit_zero_entry_is_refused_with_its_key():
    with pytest.raises(ValueError, match="zero entry at key 0"):
        linalg.solve([{0: 0, 1: 1}, {0: 1}], [1, 2])
    with pytest.raises(ValueError, match="zero entry at key 0"):
        linalg.Span([{0: 0}])
    with pytest.raises(ValueError, match=r"zero entry at key \(1, 2\)"):
        linalg.Span().reduce({(0, 0): Fraction(1, 2), (1, 2): Fraction(0)})
    assert linalg.solve([{1: 1}, {0: 1}], [1, 2]) == {0: 2, 1: 1}
