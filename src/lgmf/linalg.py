"""Exact linear algebra over Q: solving, rank, nullspace, span membership.

One sparse engine, ``Span``, does all elimination, without ``Fraction``
arithmetic.  Its rows are primitive integer rows ``{key: int}``: content
(the gcd of the entries) 1 and a positive pivot entry (at the least key).
Each stands for the reduced row ``row / row[pivot]``, and the rows are kept
in reduced row echelon form: no row has an entry in another row's pivot
column.  Pivots follow key order, so every result comes from the unique
reduced form, whatever the integer scalings on the way.

An input vector is scaled by the lcm of its denominators.  Eliminating pivot
p from v with row r is the fraction-free step v <- (a/g) v - (b/g) r, with
a = r[p], b = v[p] and g = gcd(a, b) (Bareiss 1968 keeps integers the same
way).  A reduction carries v through all its steps, tracking only the
product of the factors a/g, and divides v's content out once at the end; a
new row is stored with its pivot entry made positive, and each stored row it
is substituted into is divided by its content again, so every stored row
stays primitive.  Results are ``Fraction``s formed only at the end.

A vector is a sparse dict ``{key: value}`` of ints or ``Fraction``s over
any totally ordered keys; a matrix is a list of such rows over the column
indices, and every result holds only nonzero entries.  An explicit zero
entry is refused with ``ValueError`` naming its key, since a stored zero
would become a pivot entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integral(d):
    """{column: int | Fraction} -> ({column: int}, den): den * d, integral.

    Raises ValueError on a zero entry.
    """
    den = lcm(*[x.denominator for x in d.values()])
    if den == 1:
        v = {c: x.numerator for c, x in d.items()}
    else:
        v = {c: x.numerator * (den // x.denominator) for c, x in d.items()}
    if 0 in v.values():
        raise ValueError("zero entry at key "
                         f"{next(c for c, x in v.items() if not x)!r}")
    return v, den


def _eliminate(v, row, p):
    """v <- (a/g) v - (b/g) row in place, for a = row[p], b = v[p] and
    g = gcd(a, b); returns the factor a/g."""
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
    return a


def _primitive(v):
    """v divided by its content g, the gcd of its entries: (v / g, g)."""
    g = gcd(*v.values())
    if g > 1:
        v = {c: x // g for c, x in v.items()}
    return v, g


class Span:
    """An incrementally built row space with exact membership/reduction.

    Vectors are sparse dicts over any totally ordered keys; a row's pivot is
    its least key."""

    def __init__(self, vectors=()):
        self._rows = {}     # pivot key -> primitive row, pivot entry > 0
        for vec in vectors:
            self.add(vec)

    def _reduce(self, v):
        """Reduce an integer row (consumed) against the span; returns
        (w, num, den) with w primitive, a positive multiple of v's reduced
        vector, which equals w * num / den."""
        rows = self._rows
        den = 1
        # the rows have no entry in each other's pivot columns, so the
        # steps add none of them to v
        for p in [c for c in v if c in rows]:
            den *= _eliminate(v, rows[p], p)
        v, num = _primitive(v)
        return v, num, den

    def _insert(self, v):
        """Insert an integer row (consumed); its new pivot column, or None."""
        v = self._reduce(v)[0]
        if not v:
            return None
        p = min(v)
        if v[p] < 0:
            v = {c: -x for c, x in v.items()}
        rows = self._rows
        for q, row in rows.items():
            if p in row:
                _eliminate(row, v, p)
                rows[q] = _primitive(row)[0]
        rows[p] = v
        return p

    def reduce(self, vec) -> dict:
        """vec reduced against the span: its nonzero ``Fraction`` entries."""
        v, den = _integral(vec)
        v, num, d = self._reduce(v)
        den *= d
        return {c: Fraction(x * num, den) for c, x in v.items()}

    def contains(self, vec) -> bool:
        return not self._reduce(_integral(vec)[0])[0]

    def add(self, vec) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        return self._insert(_integral(vec)[0]) is not None

    def add_remainder(self, vec, modulo: Span) -> bool:
        """Insert vec's remainder modulo the span ``modulo``; returns True if
        it enlarged this span.  The remainder is inserted as a positive
        multiple of ``modulo.reduce(vec)``; scaling cannot change whether it
        is independent."""
        return self._insert(modulo._reduce(_integral(vec)[0])[0]) is not None

    @property
    def dim(self) -> int:
        return len(self._rows)


def _span(rows):
    span = Span()
    for row in rows:
        span._insert(_integral(row)[0])
    return span


def _require_columns(rows, n):
    for row in rows:
        if row and (min(row) < 0 or max(row) >= n):
            raise ValueError(f"row {row} has a column outside range({n})")


def rank(rows) -> int:
    return _span(rows).dim


def solve(rows, rhs):
    """One solution x of the equations sum_c row[c] x[c] = rhs[i], as its
    nonzero entries {column: Fraction}, or None if they are inconsistent.

    Free variables are zero (deterministically).
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    # the right-hand side is the column after every unknown
    n = 1 + max((max(row) for row in rows if row), default=-1)
    span = Span()
    for row, b in zip(rows, rhs):
        if span._insert(_integral({**row, n: b} if b else row)[0]) == n:
            return None
    return {c: Fraction(row[n], row[c])
            for c, row in sorted(span._rows.items()) if n in row}


def nullspace(rows, n, m):
    """The rank of the rows over the columns range(n), and the basis of their
    kernel on range(m): one vector per free column below m, as its nonzero
    entries {column: Fraction}, the same whatever columns follow m.
    Raises ValueError unless 0 <= m <= n."""
    if not 0 <= m <= n:
        raise ValueError(f"kernel columns range({m}) outside range({n})")
    _require_columns(rows, n)
    rows = _span(rows)._rows
    pivots = sorted(rows)
    one = Fraction(1)
    basis = []
    for free in range(m):
        if free not in rows:
            # only rows with a smaller pivot have an entry at ``free``
            v = {c: Fraction(-rows[c][free], rows[c][c])
                 for c in pivots if free in rows[c]}
            v[free] = one
            basis.append(v)
    return len(rows), basis


def invertible(rows, n) -> bool:
    """Whether the rows form an invertible n x n matrix."""
    _require_columns(rows, n)
    return len(rows) == n and rank(rows) == n
