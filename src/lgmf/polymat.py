"""Matrix helpers for rectangular arrays of Poly."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ring import (ContextMismatch, Poly, RingContext, _poly, _terms_iadd,
                   _terms_mul, _terms_scale)


def zeros(ctx: RingContext, rows: int, cols: int):
    z = ctx.zero()
    return [[z] * cols for _ in range(rows)]


def identity(ctx: RingContext, n: int):
    return [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)]


def _check_same_shape(a, b):
    if len(a) != len(b) or any(len(ra) != len(rb) for ra, rb in zip(a, b)):
        raise ValueError("matrices of different shapes")


def mat_add(a, b):
    _check_same_shape(a, b)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    _check_same_shape(a, b)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    """a * b, forming only the products of two nonzero entries.

    Each output cell is a sum of products: each product is formed
    (``_terms_mul``) and added into one term dict (``_terms_iadd``), so the
    cell has the value and the term order of the dense product, and is
    wrapped in a Poly once.  Cells that get no product are the zero of the
    entries' common context; as in the dense product, entries in different
    contexts raise ContextMismatch whenever there is a product to form.
    Factors whose shapes do not chain raise ValueError.
    """
    if not a:
        return []
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    if (any(len(row) != inner for row in a)
            or any(len(row) != cols for row in b)):
        raise ValueError("matrix shapes do not chain")
    if not cols:
        return [[] for _ in range(rows)]
    ctx = a[0][0].ctx
    if (any(row[k].ctx is not ctx and row[k].ctx != ctx
            for row in a for k in range(inner))
            or any(row[j].ctx is not ctx and row[j].ctx != ctx
                   for row in b for j in range(cols))):
        raise ContextMismatch("matrix entries in different contexts")
    b_nonzero = [[(j, row[j].packed) for j in range(cols) if row[j].packed]
                 for row in b]
    zero = ctx.zero()
    out = []
    for row in a:
        acc = [None] * cols
        for k in range(inner):
            x = row[k].packed
            if not x:
                continue
            for j, y in b_nonzero[k]:
                t = _terms_mul(x, y)
                cell = acc[j]
                acc[j] = t if cell is None else _terms_iadd(cell, t)
        out.append([zero if e is None else _poly(ctx, e) for e in acc])
    return out


def mat_map(f, a):
    return [[f(x) for x in row] for row in a]


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero_matrix(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def det(a, ctx: RingContext | None = None) -> Poly:
    """Determinant by Laplace expansion along the first row (desk scale).

    Fraction-free: each row is scaled by the lcm of its denominators, the
    expansion (``_det_terms``) runs on integer term dicts, and one division
    by the product of the scales gives an int where it is exact and a
    Fraction elsewhere.  Positive scales move no partial sum to or from
    zero, so the terms come in the order of the expansion over Q.  A 0x0
    matrix needs ``ctx`` and has determinant 1.  Entries in different
    contexts raise ContextMismatch, checked once up front as in
    ``mat_mul``; a non-square matrix raises ValueError.
    """
    n = len(a)
    if n == 0:
        if ctx is None:
            raise ValueError("determinant of empty matrix needs a context")
        return ctx.one()
    if any(len(row) != n for row in a):
        raise ValueError("determinant of non-square matrix")
    if n == 1:
        return a[0][0]
    ctx = a[0][0].ctx
    if any(x.ctx is not ctx and x.ctx != ctx for row in a for x in row):
        raise ContextMismatch("matrix entries in different contexts")
    rows, den = [], 1
    for row in a:
        s = lcm(*[c.denominator for x in row for c in x.packed.values()])
        den *= s
        rows.append([x.packed if s == 1 else
                     {e: c.numerator * (s // c.denominator)
                      for e, c in x.packed.items()} for x in row])
    t = _det_terms(rows)
    if den != 1:
        t = {e: Fraction(c, den) if c % den else c // den
             for e, c in t.items()}
    return _poly(ctx, t)


def _det_terms(a) -> dict:
    """The Laplace expansion of ``det`` on a square matrix of term dicts,
    n >= 1, zero entries of the first row skipped; a sum of products (see
    ``ring._terms_iadd``).  The result is a fresh dict unless n = 1."""
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = None
    for j, x in enumerate(a[0]):
        if not x:
            continue
        t = _terms_mul(x, _det_terms([[row[k] for k in range(n) if k != j]
                                      for row in a[1:]]))
        if j % 2:
            t = _terms_scale(t, -1)
        acc = t if acc is None else _terms_iadd(acc, t)
    return {} if acc is None else acc
