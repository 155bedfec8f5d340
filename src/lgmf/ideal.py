"""Groebner-basis engine with cofactor tracking, in graded-lex order.

Buchberger's algorithm (sugar strategy, leading coefficients normalised to 1),
division with remainder and cofactors, finite quotient monomial bases (with
an unbounded-variable witness when infinite), and power membership
(certified by the quotient dimension) used by the residue transformation
rule.  Monomials are the packed keys of ``ring``, as in Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors": the one monomial order, graded lex (the order in which
``format_poly`` prints terms), is integer order on keys, a leading term is the
largest key, a quotient monomial is a key difference, and divisibility is
one test against the context's guard mask.

One reduction kernel, ``_reduce``, serves division, Buchberger, normal forms
and power membership.  It reduces one working term dict in place and
records quotient terms only when it is handed cofactor dicts: division and
Buchberger hand them, normal forms and the normal-form chain of power
membership do not.  Its divisors come as their leading terms and tails
(``_lt``), built by ``division`` and ``groebner`` only; a basis carries
those of its generators (``reducers``) for normal forms and power
membership.  A basis's standard monomials are keys;
``QuotientBasis.monomials`` is their exponent-tuple view.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .ring import (LIMIT, ContextMismatch, ExponentOverflow, Poly,
                   RingContext, _canon, _no_overflow, _poly, _terms_iadd,
                   _terms_mul)


def leading_term(p: Poly):
    """(key, coefficient) of the grlex-leading term, the largest packed key;
    None for zero."""
    if p.is_zero():
        return None
    key = max(p.packed)
    return key, p.packed[key]


def division(g: Poly, divisors):
    """Multivariate division: g = sum cofactor_i * divisors_i + remainder.

    The remainder is supported on monomials divisible by no divisor leading
    term.  Deterministic: first matching divisor in list order.
    """
    ctx = g.ctx
    for d in divisors:
        if d.ctx != ctx:
            raise ContextMismatch(f"division of {ctx} by {d.ctx}")
    return _divide(g, [_lt(j, d, leading_term(d))
                       for j, d in enumerate(divisors) if not d.is_zero()],
                   len(divisors))


def _lt(j, d: Poly, lead):
    """The reduction data of the nonzero divisor d, number j in its list,
    with leading term ``lead``: (j, leading key, leading coefficient, the
    term dict of the other terms)."""
    lkey, lc = lead
    tail = dict(d.packed)
    del tail[lkey]
    return j, lkey, lc, tail


def _reduce(p: dict, lts, guard: int, cof=None) -> dict:
    """The remainder of the term dict p by the divisors described in
    ``lts`` (see ``_lt``); p is the working dict, reduced in place.

    The grlex-largest term of p, its largest key, goes first.  The first
    divisor in list order whose leading key divides it (the difference has
    no bit of ``guard``, the context's guard mask) cancels it:
    p -= q * x^m * d_j, which skips the leading term it cancels and updates
    p at the tail's terms only, each key m plus a tail key.  A tail term has
    a degree no higher than its leading term's, so no key can overflow.  A
    term no leading key divides moves to the remainder.  The leading key of
    p strictly decreases, so each cofactor and the remainder gain their
    terms in that order.  Given a list ``cof`` of term dicts, the quotient
    term q x^m is recorded in ``cof[j]``.  A working coefficient may be an
    integral Fraction, so each leading coefficient is made canonical before
    it becomes a quotient or a remainder term; the quotient by a leading
    coefficient other than 1 is taken as a Fraction, since int / int would
    be a float.
    """
    rem = {}
    get = p.get
    while p:
        exp = max(p)
        c = _canon(p.pop(exp))
        for j, lexp, lc, tail in lts:
            m = exp - lexp
            if not m & guard:
                q = c if lc == 1 else _canon(Fraction(c, lc))
                if cof is not None:
                    cof[j][m] = q
                for eb, cb in tail.items():
                    key = m + eb
                    s = get(key)
                    if s is None:
                        p[key] = -(q * cb)
                    else:
                        s = s - q * cb
                        if s:
                            p[key] = s
                        else:
                            del p[key]
                break
        else:
            rem[exp] = c
    return rem


def _divide(g: Poly, lts, n: int):
    """``division`` of g by n divisors, the nonzero ones described in
    ``lts``: the cofactors and the remainder as Polys, from one ``_reduce``
    of a copy of g's terms."""
    ctx = g.ctx
    cof = [{} for _ in range(n)]
    rem = _reduce(dict(g.packed), lts, ctx._guard, cof)
    return [_poly(ctx, t) for t in cof], _poly(ctx, rem)


def _combine(row, terms):
    """row + sum of c * r over (c, r) in terms, entry by entry.

    Rows are cofactor rows over the original generators; zero factors are
    skipped.
    """
    out = list(row)
    for c, r in terms:
        if c.is_zero():
            continue
        for j, a in enumerate(r):
            if not a.is_zero():
                out[j] = out[j] + c * a
    return out


@dataclass
class QuotientBasis:
    """The standard monomials of an ideal, as packed keys of ``ctx`` in
    increasing grlex order, or None with an unbounded-variable witness."""

    keys: list | None
    ctx: RingContext
    witness: str | None = None

    @property
    def monomials(self) -> list | None:
        """The standard monomials as exponent tuples (None if infinite)."""
        if self.keys is None:
            return None
        return [self.ctx.unpack(k) for k in self.keys]

    @property
    def finite(self) -> bool:
        return self.keys is not None

    @property
    def dimension(self) -> int:
        if not self.finite:
            raise ValueError("infinite quotient")
        return len(self.keys)


def _standard_monomials(lead, ctx: RingContext) -> QuotientBasis:
    """Monomials under no key of ``lead``, or an infinity witness."""
    # finite iff each variable has a pure-power leading key
    bounds = []
    for name, unit in zip(ctx.names, ctx._units):
        caps = [k for k in lead if k == ctx.degree(k) * unit]
        if not caps:
            return QuotientBasis(None, ctx, witness=name)
        bounds.append(ctx.degree(min(caps)))
    if sum(bounds) - len(bounds) >= LIMIT:
        raise ExponentOverflow(sum(bounds) - len(bounds))
    monos = [0]
    for unit, b in zip(ctx._units, bounds):
        monos = [m + e * unit for m in monos for e in range(b)]
    guard = ctx._guard
    standard = [m for m in monos if all((m - l) & guard for l in lead)]
    standard.sort()
    return QuotientBasis(standard, ctx)


@dataclass
class GroebnerBasis:
    generators: list            # the reduced, monic basis, in grlex order
    original_gens: list
    cofactor_log: list          # generators[i] = sum_j cofactor_log[i][j] * original_gens[j]
    ctx: RingContext
    quotient: QuotientBasis     # standard monomials of the ideal
    # the reduction data of each generator (see ``_lt``), built with the basis
    reducers: list = field(repr=False, compare=False)


def groebner(gens) -> GroebnerBasis:
    """Buchberger's algorithm with sugar-strategy pair selection and cofactors."""
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatch("generators in different contexts")

    zero_row = [ctx.zero() for _ in gens]
    polys, rows, lead, degree = [], [], [], []     # the basis so far
    lts = []        # the reduction data of polys[k] (see ``_lt``)
    pairs = []      # heap of (sugar, lcm key, i, j); keys are unique
    deg = ctx.degree

    def append(rem, row, terms):
        """Add rem / lc(rem), with cofactor row (row + sum c*r) / lc(rem)."""
        exp, c = leading_term(rem)
        inv = c if c == 1 or c == -1 else Fraction(1, c)
        k = len(polys)
        polys.append(rem * inv)
        lts.append(_lt(k, polys[k], (exp, polys[k].packed[exp])))
        rows.append(_combine([a * inv for a in row],
                             [(f * inv, r) for f, r in terms]))
        lead.append(exp)
        degree.append(polys[k].total_degree())
        for m in range(k):
            lcm = ctx.lcm(lead[m], exp)
            if lead[m] + exp == lcm:
                continue  # Buchberger's coprimality criterion
            s = max(degree[m] + deg(lcm) - deg(lead[m]),
                    degree[k] + deg(lcm) - deg(exp))
            heapq.heappush(pairs, (s, lcm, m, k))

    def reduce(p, row, terms):
        """Append p's remainder by the basis, if nonzero; p has cofactor
        row row + sum c*r over terms."""
        cof, rem = _divide(p, lts, len(lts))
        if not rem.is_zero():
            append(rem, row, terms + [(-c, r) for c, r in zip(cof, rows)
                                      if not c.is_zero()])

    for j, g in enumerate(gens):
        if not g.is_zero():
            unit = list(zero_row)
            unit[j] = ctx.one()
            reduce(g, unit, [])

    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        ti = _poly(ctx, {lcm - lead[i]: 1})
        tj = _poly(ctx, {lcm - lead[j]: 1})
        reduce(ti * polys[i] - tj * polys[j], zero_row,
               [(ti, rows[i]), (-tj, rows[j])])

    # minimal basis: drop elements whose leading key another divides
    keep = [i for i, e in enumerate(lead)
            if not any(o != i and ctx.divides(lead[o], e)
                       and (lead[o] != e or o < i) for o in range(len(lead)))]
    # tail-reduce each kept element against the others (leading terms stay)
    final = []
    for i in keep:
        others = [o for o in keep if o != i]
        b, row = polys[i], rows[i]
        if others:
            cof, b = _divide(b, [lts[o] for o in others], len(lts))
            row = _combine(row, [(-cof[o], rows[o]) for o in others
                                 if not cof[o].is_zero()])
        final.append((lead[i], b, row))
    final.sort(key=lambda t: t[0])
    return GroebnerBasis(
        generators=[b for _, b, _ in final],
        original_gens=gens,
        cofactor_log=[r for _, _, r in final],
        ctx=ctx,
        quotient=_standard_monomials([e for e, _, _ in final], ctx),
        reducers=[_lt(j, b, (e, b.packed[e]))
                  for j, (e, b, _) in enumerate(final)],
    )


def normal_form(g: Poly, gb: GroebnerBasis) -> Poly:
    if g.ctx != gb.ctx:
        raise ContextMismatch("normal_form context mismatch")
    return _poly(g.ctx, _reduce(dict(g.packed), gb.reducers, gb.ctx._guard))


def membership_with_cofactors(g: Poly, gens):
    """g = sum cofactors_j * gens_j + remainder, remainder in normal form."""
    gb = groebner(gens)
    cof = [{} for _ in gb.generators]
    rem = _reduce(dict(g.packed), gb.reducers, gb.ctx._guard, cof)
    return _lift_cofactors(cof, gb), _poly(g.ctx, rem)


def _lift_cofactors(cof, gb: GroebnerBasis):
    """Cofactors over the original generators, as Polys, from the cofactor
    term dicts over the basis: the sums of products
    sum_k cof[k] * cofactor_log[k][j] (see ``ring._terms_iadd``)."""
    out = [{} for _ in gb.original_gens]
    for c, row in zip(cof, gb.cofactor_log):
        if not c:
            continue
        for j, a in enumerate(row):
            if a.packed:
                _terms_iadd(out[j], _terms_mul(c, a.packed))
    return [_poly(gb.ctx, t) for t in out]


def power_membership(v: str, gb: GroebnerBasis):
    """Minimal a with v^a in the ideal, plus cofactors over the original gens.

    The quotient A = k[x]/I must be finite, of dimension D.  Then v is
    nilpotent in A iff v^D lies in I: the chain A > vA > v^2 A > ... descends
    strictly until it is stable, so it has at most D steps.  Raises
    ValueError for an infinite quotient or a v that is not nilpotent.

    The minimal a comes from the chain of normal forms r_1 = NF(v),
    r_a = NF(v r_{a-1}) = NF(v^a), reduced on term dicts with no cofactors
    after the first; v r_{a-1} adds v's key to each key of r_{a-1}.  Only v^a itself is then divided with cofactors (at a = 1 that is the
    first reduction already made), and they are lifted to the original
    generators through the basis's cofactor log on term dicts.
    """
    q = gb.quotient
    if not q.finite:
        raise ValueError(f"infinite quotient: no power of {q.witness} "
                         f"lies in the ideal")
    D = q.dimension
    lts = gb.reducers
    guard = gb.ctx._guard
    unit = gb.ctx.unit(v)
    cof = [{} for _ in gb.generators]
    r = _reduce({unit: 1}, lts, guard, cof)
    a = 1
    while r:
        if a >= D:
            raise ValueError(f"{v} is not nilpotent: {v}^{D} is not in the "
                             f"ideal, whose quotient has dimension D = {D}")
        a += 1
        _no_overflow(max(r) + unit)
        r = _reduce({e + unit: c for e, c in r.items()}, lts, guard)
    if a > 1:
        cof = [{} for _ in gb.generators]
        _reduce({a * unit: 1}, lts, guard, cof)
    return a, _lift_cofactors(cof, gb)
