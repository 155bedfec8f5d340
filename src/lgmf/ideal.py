"""Groebner-basis engine with cofactor tracking, in graded-lex order.

Buchberger's algorithm (sugar strategy, leading coefficients normalised to 1),
division with remainder and cofactors, finite quotient monomial bases (with
an unbounded-variable witness when infinite), and power membership
(certified by the quotient dimension) used by the residue transformation
rule.  The one monomial order is ``ring.grlex_key``, the order of
``Poly.sorted_terms``.  Buchberger, normal forms and power membership reduce
with the loop behind ``division``, handed leading terms they already hold
(a basis stores those of its generators).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, sub

from .ring import ContextMismatch, Poly, RingContext, _canon, _poly, grlex_key


def leading_term(p: Poly):
    """(exponent, coefficient) of the grlex-leading term; None for zero."""
    if p.is_zero():
        return None
    exp = max(p.terms, key=grlex_key)
    return exp, p.terms[exp]


def _divides(a, b):
    return all(map(le, a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono(ctx: RingContext, exp, coeff=1) -> Poly:
    return Poly(ctx, {tuple(exp): coeff})


def division(g: Poly, divisors):
    """Multivariate division: g = sum cofactor_i * divisors_i + remainder.

    The remainder is supported on monomials divisible by no divisor leading
    term.  Deterministic: first matching divisor in list order.
    """
    ctx = g.ctx
    for d in divisors:
        if d.ctx != ctx:
            raise ContextMismatch(f"division of {ctx} by {d.ctx}")
    return _divide(g, divisors, [leading_term(d) for d in divisors])


def _divide(g: Poly, divisors, leads):
    """``division`` by divisors whose leading terms (exponent, coefficient),
    None for a zero divisor, are given in ``leads``.

    The dividend is one working term dict, reduced in place (p -= q * x^m *
    d_j term by term); the leading exponent strictly decreases, so each
    cofactor and the remainder gain their terms in that order.  A working
    coefficient may be an integral Fraction, so each leading coefficient is
    made canonical before it becomes a quotient or a remainder term; the
    quotient by a leading coefficient other than 1 is taken as a Fraction,
    since int / int would be a float.
    """
    ctx = g.ctx
    lts = [None if lt is None else (lt[0], lt[1], d.terms)
           for d, lt in zip(divisors, leads)]
    cof = [{} for _ in lts]
    rem = {}
    p = dict(g.terms)
    get = p.get
    while p:
        exp = max(p, key=grlex_key)
        c = _canon(p[exp])
        for j, lt in enumerate(lts):
            if lt is not None and _divides(lt[0], exp):
                lexp, lc, dterms = lt
                m = tuple(map(sub, exp, lexp))
                q = c if lc == 1 else _canon(Fraction(c, lc))
                cof[j][m] = q
                for eb, cb in dterms.items():
                    key = tuple(map(add, m, eb))
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
            del p[exp]
    return ([_poly(ctx, t) if t else ctx.zero() for t in cof],
            _poly(ctx, rem) if rem else ctx.zero())


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
    monomials: list | None      # list of exponent tuples, or None for infinite
    witness: str | None = None  # unbounded-variable witness when infinite

    @property
    def finite(self) -> bool:
        return self.monomials is not None

    @property
    def dimension(self) -> int:
        if not self.finite:
            raise ValueError("infinite quotient")
        return len(self.monomials)


def _standard_monomials(lead, ctx: RingContext) -> QuotientBasis:
    """Monomials under no exponent of ``lead``, or an infinity witness."""
    # finite iff each variable has a pure-power leading exponent
    bounds = []
    for i, name in enumerate(ctx.names):
        caps = [exp[i] for exp in lead
                if all(e == 0 for k, e in enumerate(exp) if k != i)]
        if not caps:
            return QuotientBasis(None, witness=name)
        bounds.append(min(caps))
    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    standard = [m for m in monos if not any(_divides(l, m) for l in lead)]
    standard.sort(key=grlex_key)
    return QuotientBasis(standard)


@dataclass
class GroebnerBasis:
    generators: list            # the reduced, monic basis, in grlex order
    original_gens: list
    cofactor_log: list          # generators[i] = sum_j cofactor_log[i][j] * original_gens[j]
    ctx: RingContext
    quotient: QuotientBasis     # standard monomials of the ideal
    leading: list               # (exponent, coefficient) of each generator


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
    leads = []      # (lead[k], leading coefficient of polys[k])
    pairs = []      # heap of (sugar, grlex(lcm), i, j); keys are unique

    def append(rem, row, terms):
        """Add rem / lc(rem), with cofactor row (row + sum c*r) / lc(rem)."""
        exp, c = leading_term(rem)
        inv = c if c == 1 or c == -1 else Fraction(1, c)
        k = len(polys)
        polys.append(rem * inv)
        leads.append((exp, polys[k].terms[exp]))
        rows.append(_combine([a * inv for a in row],
                             [(f * inv, r) for f, r in terms]))
        lead.append(exp)
        degree.append(polys[k].total_degree())
        for m in range(k):
            lcm = _exp_lcm(lead[m], exp)
            if all(x + y == z for x, y, z in zip(lead[m], exp, lcm)):
                continue  # Buchberger's coprimality criterion
            s = max(degree[m] + sum(lcm) - sum(lead[m]),
                    degree[k] + sum(lcm) - sum(exp))
            heapq.heappush(pairs, (s, grlex_key(lcm), m, k))

    def reduce(p, row, terms):
        """Append p's remainder by the basis, if nonzero; p has cofactor
        row row + sum c*r over terms."""
        cof, rem = _divide(p, polys, leads)
        if not rem.is_zero():
            append(rem, row, terms + [(-c, r) for c, r in zip(cof, rows)
                                      if not c.is_zero()])

    for j, g in enumerate(gens):
        if not g.is_zero():
            unit = list(zero_row)
            unit[j] = ctx.one()
            reduce(g, unit, [])

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lcm = _exp_lcm(lead[i], lead[j])
        ti = _mono(ctx, _exp_sub(lcm, lead[i]))
        tj = _mono(ctx, _exp_sub(lcm, lead[j]))
        reduce(ti * polys[i] - tj * polys[j], zero_row,
               [(ti, rows[i]), (-tj, rows[j])])

    # minimal basis: drop elements whose leading exponent another divides
    keep = [i for i, e in enumerate(lead)
            if not any(o != i and _divides(lead[o], e)
                       and (lead[o] != e or o < i) for o in range(len(lead)))]
    # tail-reduce each kept element against the others (leading terms stay)
    final = []
    for i in keep:
        others = [o for o in keep if o != i]
        b, row = polys[i], rows[i]
        if others:
            cof, b = _divide(b, [polys[o] for o in others],
                             [leads[o] for o in others])
            row = _combine(row, [(-c, rows[o]) for c, o in zip(cof, others)
                                 if not c.is_zero()])
        final.append((lead[i], b, row))
    final.sort(key=lambda t: grlex_key(t[0]))
    return GroebnerBasis(
        generators=[b for _, b, _ in final],
        original_gens=gens,
        cofactor_log=[r for _, _, r in final],
        ctx=ctx,
        quotient=_standard_monomials([e for e, _, _ in final], ctx),
        leading=[(e, b.terms[e]) for e, b, _ in final],
    )


def normal_form(g: Poly, gb: GroebnerBasis) -> Poly:
    if g.ctx != gb.ctx:
        raise ContextMismatch("normal_form context mismatch")
    _, rem = _divide(g, gb.generators, gb.leading)
    return rem


def membership_with_cofactors(g: Poly, gens):
    """g = sum cofactors_j * gens_j + remainder, remainder in normal form."""
    gb = groebner(gens)
    cof_gb, rem = _divide(g, gb.generators, gb.leading)
    return _lift_cofactors(cof_gb, gb), rem


def _lift_cofactors(cof_gb, gb: GroebnerBasis):
    """Cofactors over the original generators from cofactors over the basis."""
    return _combine([gb.ctx.zero() for _ in gb.original_gens],
                    zip(cof_gb, gb.cofactor_log))


def power_membership(v: str, gb: GroebnerBasis):
    """Minimal a with v^a in the ideal, plus cofactors over the original gens.

    The quotient A = k[x]/I must be finite, of dimension D.  Then v is
    nilpotent in A iff v^D lies in I: the chain A > vA > v^2 A > ... descends
    strictly until it is stable, so it has at most D steps.  Raises
    ValueError for an infinite quotient or a v that is not nilpotent.

    The minimal a comes from the chain of normal forms r_1 = NF(v),
    r_a = NF(v r_{a-1}) = NF(v^a); only v^a itself is then divided with
    cofactors (at a = 1 that is the first division already made).
    """
    q = gb.quotient
    if not q.finite:
        raise ValueError(f"infinite quotient: no power of {q.witness} "
                         f"lies in the ideal")
    D = q.dimension
    gens, leads = gb.generators, gb.leading
    x = gb.ctx.gen(v)
    cof_gb, r = _divide(x, gens, leads)
    a = 1
    while not r.is_zero():
        if a >= D:
            raise ValueError(f"{v} is not nilpotent: {v}^{D} is not in the "
                             f"ideal, whose quotient has dimension D = {D}")
        a += 1
        r = _divide(x * r, gens, leads)[1]
    if a > 1:
        cof_gb, _ = _divide(x ** a, gens, leads)
    return a, _lift_cofactors(cof_gb, gb)
