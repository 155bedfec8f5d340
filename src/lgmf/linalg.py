"""Exact linear algebra over Q: solving, rank, nullspace, span membership.

One sparse engine, ``Span``, does all elimination: its rows are
``{column: Fraction}`` dicts in reduced row echelon form, keyed by their pivot
(leftmost nonzero, scaled to 1).  Pivots follow column order, so every result
comes from the unique reduced form.  Matrices and vectors are dense lists.
"""

from __future__ import annotations

from fractions import Fraction


def _sparse(vec):
    return {c: x if type(x) is Fraction else Fraction(x)
            for c, x in enumerate(vec) if x}


def _axpy(v, f, row):
    """v -= f * row, in place, dropping entries that cancel."""
    f = -f
    for c, a in row.items():
        x = v[c] + f * a if c in v else f * a
        if x:
            v[c] = x
        else:
            del v[c]


class Span:
    """An incrementally built row space with exact membership/reduction."""

    def __init__(self, width: int):
        self.width = width
        self._rows = {}     # pivot column -> reduced row, pivot entry 1

    def _reduce(self, v):
        for p in [c for c in v if c in self._rows]:
            _axpy(v, v[p], self._rows[p])
        return v

    def _insert(self, v):
        """Insert a sparse row (consumed); its new pivot column, or None."""
        v = self._reduce(v)
        if not v:
            return None
        p = min(v)
        if v[p] != 1:
            inv = 1 / v[p]
            v = {c: x * inv for c, x in v.items()}
        for row in self._rows.values():
            if p in row:
                _axpy(row, row[p], v)
        self._rows[p] = v
        return p

    def reduce(self, vec):
        v, zero = self._reduce(_sparse(vec)), Fraction(0)
        return [v.get(c, zero) for c in range(len(vec))]

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(vec))

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        return self._insert(_sparse(vec)) is not None

    @property
    def dim(self) -> int:
        return len(self._rows)


def _span(matrix, width):
    span = Span(width)
    for row in matrix:
        span._insert(_sparse(row))
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
        v = _sparse(row)
        if b:
            v[n] = Fraction(b)
        if span._insert(v) == n:
            return None
    rows, zero = span._rows, Fraction(0)
    return [rows[c].get(n, zero) if c in rows else zero for c in range(n)]


def nullspace(matrix, n=None):
    """Basis of the kernel of matrix (m x n); returns list of vectors."""
    if n is None:
        n = len(matrix[0]) if matrix else 0
    rows = _span(matrix, n)._rows
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


def invertible(matrix) -> bool:
    m = len(matrix)
    return m == 0 or (len(matrix[0]) == m and rank(matrix) == m)
