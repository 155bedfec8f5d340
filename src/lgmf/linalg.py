"""Exact linear algebra over Q: solving, rank, nullspace, span membership.

One sparse engine, ``Span``, does all elimination, without ``Fraction``
arithmetic.  Its rows are primitive integer rows ``{column: int}``: content
(the gcd of the entries) 1 and a positive pivot entry (the leftmost nonzero).
Each stands for the reduced row ``row / row[pivot]``, and the rows are kept
in reduced row echelon form: no row has an entry in another row's pivot
column.  Pivots follow column order, so every result comes from the unique
reduced form, whatever the integer scalings on the way.

An input vector is scaled by the lcm of its denominators.  Eliminating pivot
p from v with row r is the fraction-free step v <- (a/g) v - (b/g) r, with
a = r[p], b = v[p] and g = gcd(a, b), after which v's content is divided out
(Bareiss 1968 keeps integers the same way).  Results are ``Fraction``s
formed only at the end.  Matrices and vectors are dense lists of ints or
``Fraction``s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral(d):
    """{column: int | Fraction} -> ({column: int}, den): den * d, integral.

    Every value must be nonzero.
    """
    den = lcm(*[x.denominator for x in d.values()])
    if den == 1:
        return {c: x.numerator for c, x in d.items()}, 1
    return {c: x.numerator * (den // x.denominator)
            for c, x in d.items()}, den


def _sparse(vec):
    return _integral({c: x for c, x in enumerate(vec) if x})


def _eliminate(v, row, p):
    """v <- (a/g) v - (b/g) row for a = row[p], b = v[p], g = gcd(a, b),
    dividing out the content; returns (v, the factor a/g, the content)."""
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


class Span:
    """An incrementally built row space with exact membership/reduction."""

    def __init__(self, width: int):
        self.width = width
        self._rows = {}     # pivot column -> primitive row, pivot entry > 0

    def _reduce(self, v):
        """Reduce an integer row against the span; returns (w, num, den)
        with v's reduced vector equal to w * num / den."""
        rows = self._rows
        num = den = 1
        for p in [c for c in v if c in rows]:
            v, a, g = _eliminate(v, rows[p], p)
            den *= a
            num *= g
        return v, num, den

    def _insert(self, v):
        """Insert an integer row (consumed); its new pivot column, or None."""
        v = self._reduce(v)[0]
        if not v:
            return None
        p = min(v)
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        if g != 1:
            v = {c: x // g for c, x in v.items()}
        rows = self._rows
        for q, row in rows.items():
            if p in row:
                rows[q] = _eliminate(row, v, p)[0]
        rows[p] = v
        return p

    def reduce(self, vec):
        v, den = _sparse(vec)
        v, num, d = self._reduce(v)
        den *= d
        zero = Fraction(0)
        return [Fraction(v[c] * num, den) if c in v else zero
                for c in range(len(vec))]

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec)[0])[0]

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        return self._insert(_sparse(vec)[0]) is not None

    @property
    def dim(self) -> int:
        return len(self._rows)


def _span(matrix, width):
    span = Span(width)
    for row in matrix:
        span._insert(_sparse(row)[0])
    return span


def rank(matrix) -> int:
    return _span(matrix, len(matrix[0]) if matrix else 0).dim


def solve(matrix, rhs):
    """One solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero (deterministically).
    """
    if not matrix:
        return []
    n = len(matrix[0])
    span = Span(n + 1)
    for row, b in zip(matrix, rhs):
        v = {c: x for c, x in enumerate(row) if x}
        if b:
            v[n] = b
        if span._insert(_integral(v)[0]) == n:
            return None
    rows, zero = span._rows, Fraction(0)
    return [Fraction(rows[c][n], rows[c][c])
            if c in rows and n in rows[c] else zero for c in range(n)]


def nullspace(matrix, n=None):
    """Basis of the kernel of matrix (m x n); returns list of vectors."""
    if n is None:
        n = len(matrix[0]) if matrix else 0
    rows = _span(matrix, n)._rows
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for free in range(n):
        if free not in rows:
            v = [zero] * n
            v[free] = one
            for c, row in rows.items():
                if free in row:
                    v[c] = Fraction(-row[free], row[c])
            basis.append(v)
    return basis


def invertible(matrix) -> bool:
    m = len(matrix)
    return m == 0 or (len(matrix[0]) == m and rank(matrix) == m)
