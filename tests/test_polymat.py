"""The sparse matrix product against the dense triple loop, and the
determinant against the Leibniz sum, sympy and the expansion over Q."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmf import polymat
from lgmf.ring import (LIMIT, ContextMismatch, ExponentOverflow, RingContext,
                       _terms_add, _terms_mul, _terms_scale)

from conftest import canonical_coefficient
from test_ideal import _from_sympy, _to_sympy
from test_ring import (_same_terms, _snapshot, _unchanged, _view,
                       poly_strategy, rational_polys)

CTX = RingContext(["x", "y"])
OTHER = RingContext(["x", "y", "z"])


def dense_mat_mul(a, b):
    """Every product a[i][k] * b[k][j], zero factors included."""
    if not a:
        return []
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                t = a[i][k] * b[k][j]
                acc = t if acc is None else acc + t
            row.append(acc)
        out.append(row)
    return out


def _outcome(mul, a, b):
    try:
        return mul(a, b)
    except ContextMismatch:
        return ContextMismatch


# three zeros in four entries
ENTRY = st.tuples(st.integers(0, 3),
                  poly_strategy(CTX, max_deg=2, max_terms=3)).map(
    lambda t: t[1] if t[0] == 0 else CTX.zero())


def _matrix(rows, cols):
    return st.lists(st.lists(ENTRY, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def factor_pairs(draw):
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(_matrix(rows, inner)), draw(_matrix(inner, cols))


_X = CTX.gen("x")


@settings(max_examples=100, deadline=None)
@given(factor_pairs())
# within the second product x^2 cancels; updating the cell term by term
# instead would move x^2 (the first product) behind x^3
@example(([[CTX.const(-2), -2 * _X - 1]], [[_X ** 2], [2 * _X ** 2 - _X]]))
def test_mat_mul_equals_the_dense_product(ab):
    """Equal values and the same term order: each cell is the sum of its
    products, each formed before it is added, as in Poly arithmetic."""
    a, b = ab
    got = polymat.mat_mul(a, b)
    want = dense_mat_mul(a, b)
    assert got == want
    for row, wrow in zip(got, want):
        for e, w in zip(row, wrow):
            _same_terms(e.packed, w.packed)
    assert all(e.ctx == CTX for row in got for e in row)


def test_mat_mul_degenerate_shapes():
    z, one = CTX.zero(), CTX.one()
    assert polymat.mat_mul([], [[one]]) == []
    assert polymat.mat_mul([[], []], []) == [[], []]
    assert polymat.mat_mul([[one], [z]], [[]]) == [[], []]
    assert polymat.mat_mul([[z, z]], [[z], [z]]) == [[z]]


@settings(max_examples=100, deadline=None)
@given(ab=factor_pairs(), in_a=st.booleans(), zero=st.booleans(),
       data=st.data())
def test_mat_mul_raises_exactly_when_the_dense_product_does(ab, in_a, zero,
                                                            data):
    a, b = ab
    target = a if in_a else b
    cells = [(i, j) for i, row in enumerate(target) for j in range(len(row))]
    if cells:
        i, j = data.draw(st.sampled_from(cells))
        e = target[i][j]
        target[i][j] = (OTHER.zero() if zero or e.is_zero()
                        else OTHER.gen("z") + OTHER.one())
    assert _outcome(polymat.mat_mul, a, b) == _outcome(dense_mat_mul, a, b)


def test_mat_mul_checks_contexts_of_zero_entries():
    z, one = CTX.zero(), CTX.one()
    for a, b in (([[OTHER.zero()]], [[one]]),
                 ([[one, z]], [[one], [OTHER.zero()]])):
        assert _outcome(dense_mat_mul, a, b) is ContextMismatch
        assert _outcome(polymat.mat_mul, a, b) is ContextMismatch
    # with no product to form, the dense loop never compares contexts
    assert polymat.mat_mul([[OTHER.zero()]], [[]]) == [[]]


def test_shapes_that_do_not_chain_or_match_are_refused():
    x = CTX.gen("x")
    for a, b in (([[x, x, x]], [[x], [x]]), ([[x, x]], [[x], [x, x]]),
                 ([[x], [x, x]], [[x]])):
        with pytest.raises(ValueError, match="do not chain"):
            polymat.mat_mul(a, b)
    for a, b in (([[x]], [[x], [x]]), ([[x, x]], [[x]]),
                 ([[x], [x]], [[x], [x, x]])):
        for op in (polymat.mat_add, polymat.mat_sub):
            with pytest.raises(ValueError, match="different shapes"):
                op(a, b)
            with pytest.raises(ValueError, match="different shapes"):
                op(b, a)


# -- the determinant ------------------------------------------------------------

def leibniz_det(a, ctx):
    """The sum over permutations s of sign(s) * prod_i a[i][s(i)]."""
    n = len(a)
    acc = ctx.zero()
    for perm in itertools.permutations(range(n)):
        term = ctx.one()
        for i, k in enumerate(perm):
            term = term * a[i][k]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        acc = acc - term if inversions % 2 else acc + term
    return acc


# mixed denominators, one zero in three entries
DET_ENTRY = st.tuples(st.integers(0, 2),
                      rational_polys(CTX, max_deg=2, max_terms=3)).map(
    lambda t: t[1] if t[0] else CTX.zero())


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 4))
    return draw(st.lists(st.lists(DET_ENTRY, min_size=n, max_size=n),
                         min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(square_matrices())
def test_det_equals_the_leibniz_sum(a):
    before = _snapshot(*[e for row in a for e in row])
    got = polymat.det(a, CTX)
    assert got == leibniz_det(a, CTX)
    assert got.ctx == CTX
    assert all(canonical_coefficient(c) for c in got.terms.values())
    _unchanged(before)


def test_det_of_the_empty_matrix_needs_a_context():
    assert polymat.det([], CTX) == CTX.one()
    assert polymat.det([], OTHER).ctx == OTHER
    with pytest.raises(ValueError, match="needs a context"):
        polymat.det([])


def test_det_refuses_a_non_square_matrix():
    x = CTX.gen("x")
    for a in ([[x, x]], [[x], [x]], [[x, x], [x]], [[x], [x, x]]):
        with pytest.raises(ValueError, match="non-square"):
            polymat.det(a)


def test_det_refuses_entries_in_different_contexts():
    x, z = CTX.gen("x"), OTHER.gen("z")
    for a in ([[x, x], [x, z]], [[x, OTHER.zero()], [x, x]],
              # no product of the expansion meets the zero of OTHER
              [[OTHER.zero(), x], [x, x]],
              [[x, CTX.zero(), x], [x, x, x], [x, x, OTHER.one()]]):
        with pytest.raises(ContextMismatch):
            polymat.det(a)


def test_det_past_the_field_edge_raises():
    cx = RingContext(["x"])
    x = cx.gen("x")
    edge = x ** (LIMIT - 1)
    with pytest.raises(ExponentOverflow):
        polymat.det([[edge, x], [x, x]], cx)
    with pytest.raises(ExponentOverflow):
        polymat.det([[x, cx.one(), x], [x, edge, x], [cx.one(), x, x]], cx)


# -- the determinant against independent oracles ---------------------------

def _rational_det_terms(a):
    """The expansion over Q: Laplace along the first row on term dicts with
    rational coefficients, each product formed, negated at an odd column
    and added in column order."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j, x in enumerate(a[0]):
        if not x:
            continue
        t = _terms_mul(x, _rational_det_terms(
            [[row[k] for k in range(n) if k != j] for row in a[1:]]))
        if j % 2:
            t = _terms_scale(t, -1)
        acc = t if acc is None else _terms_add(acc, t)
    return {} if acc is None else acc


# integer and rational coefficients, negative ones included; terms with
# coefficients +-1 and +-2 on few monomials, so that running sums often
# cancel and come back
_COEFF = st.one_of(st.sampled_from([1, -1, 2, -2, Fraction(1, 2),
                                    Fraction(-1, 3)]),
                   st.integers(-5, 5),
                   st.fractions(min_value=-4, max_value=4,
                                max_denominator=6))


def _entries(ctx):
    term = st.tuples(st.tuples(*[st.integers(0, 1) for _ in ctx.names]),
                     _COEFF)
    poly = st.lists(term, max_size=3).map(
        lambda ts: ctx.poly(dict(ts)))
    return st.one_of(st.just(ctx.zero()), poly, poly)


@st.composite
def oracle_matrices(draw):
    """n x n, n = 0..4, over 1 to 3 variables; zero entries, and at times a
    zero row."""
    ctx = draw(st.sampled_from([RingContext(["x"]), CTX, OTHER]))
    n = draw(st.integers(0, 4))
    a = draw(st.lists(st.lists(_entries(ctx), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n and draw(st.booleans()):
        a[draw(st.integers(0, n - 1))] = [ctx.zero()] * n
    return ctx, a


_CX = RingContext(["x"])


@settings(max_examples=150, deadline=None)
@given(oracle_matrices())
# the running sum at x passes through zero inside the second product, which
# a multiply-accumulate into the sum would show by moving x to the end
@example((_CX, [[_CX.one(), _CX.poly({(0,): -1, (1,): -1})],
                [_CX.poly({(1,): -1, (0,): 2}), _CX.gen("x")]]))
@example((CTX, [[CTX.poly({(0, 0): Fraction(1, 2)}), CTX.zero()],
                [CTX.poly({(1, 0): 3}), CTX.poly({(0, 1): Fraction(-2, 3)})]]))
def test_det_matches_sympy_and_the_expansion_over_q(ca):
    """In value against sympy's determinant; in value and term order
    against the Laplace expansion over Q."""
    ctx, a = ca
    got = polymat.det(a, ctx)
    assert got.ctx == ctx
    syms = sympy.symbols(ctx.names)
    want = sympy.Matrix([[_to_sympy(x, syms) for x in row] for row in a])
    assert got == _from_sympy(sympy.expand(want.det()), syms, ctx)
    if a:
        ref = _rational_det_terms([[x.packed for x in row] for row in a])
        _same_terms(_view(ctx, got.packed), _view(ctx, ref))
