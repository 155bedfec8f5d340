"""Groebner-basis engine with cofactor tracking.

Buchberger's algorithm (sugar strategy, leading coefficients normalised to 1),
division with remainder and cofactors, finite quotient monomial bases, the
potential certificate (finite Jacobi colength over Q), and power membership
(certified by the quotient dimension) used by the residue transformation
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import ContextMismatch, Poly, RingContext, partial_derivative


@dataclass(frozen=True)
class MonomialOrder:
    """A total monomial order: 'grlex' (default) or 'lex' over context order."""

    kind: str = "grlex"

    def key(self, exp):
        if self.kind == "grlex":
            return (sum(exp), exp)
        if self.kind == "lex":
            return exp
        raise ValueError(f"unknown order kind {self.kind!r}")


GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")


def leading_term(p: Poly, order: MonomialOrder):
    """(exponent, coefficient) of the leading term; None for zero."""
    if p.is_zero():
        return None
    exp = max(p.terms, key=order.key)
    return exp, p.terms[exp]


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono(ctx: RingContext, exp, coeff=Fraction(1)) -> Poly:
    return Poly(ctx, {tuple(exp): coeff})


def division(g: Poly, divisors, order: MonomialOrder):
    """Multivariate division: g = sum cofactor_i * divisors_i + remainder.

    The remainder is supported on monomials divisible by no divisor leading
    term.  Deterministic: first matching divisor in list order.
    """
    ctx = g.ctx
    lts = [leading_term(d, order) for d in divisors]
    cof = [ctx.zero() for _ in divisors]
    rem = ctx.zero()
    p = g
    while not p.is_zero():
        exp, c = leading_term(p, order)
        for j, lt in enumerate(lts):
            if lt is not None and _divides(lt[0], exp):
                t = _mono(ctx, _exp_sub(exp, lt[0]), c / lt[1])
                cof[j] = cof[j] + t
                p = p - t * divisors[j]
                break
        else:
            t = _mono(ctx, exp, c)
            rem = rem + t
            p = p - t
    return cof, rem


@dataclass
class GroebnerBasis:
    generators: list            # the reduced, monic basis
    order: MonomialOrder
    original_gens: list
    cofactor_log: list          # generators[i] = sum_j cofactor_log[i][j] * original_gens[j]
    ctx: RingContext

    def leading_exponents(self):
        return [leading_term(g, self.order)[0] for g in self.generators]


def groebner(gens, order: MonomialOrder = GRLEX) -> GroebnerBasis:
    """Buchberger's algorithm with sugar-strategy pair selection and cofactors."""
    gens = [g for g in gens]
    if not gens:
        raise ValueError("empty generator list")
    ctx = gens[0].ctx
    for g in gens:
        if g.ctx != ctx:
            raise ContextMismatch("generators in different contexts")

    basis = []      # list of (poly, cofactor row over original gens)
    nil = [ctx.zero() for _ in gens]

    def unit_row(j):
        row = list(nil)
        row[j] = ctx.one()
        return row

    def row_add(r1, r2):
        return [a + b for a, b in zip(r1, r2)]

    def row_mul(r, p):
        return [a * p for a in r]

    def reduce_full(p: Poly, row):
        """Fully reduce p against current basis, updating its cofactor row."""
        rem = ctx.zero()
        while not p.is_zero():
            exp, c = leading_term(p, order)
            hit = False
            for b, brow in basis:
                lt = leading_term(b, order)
                if _divides(lt[0], exp):
                    t = _mono(ctx, _exp_sub(exp, lt[0]), c / lt[1])
                    p = p - t * b
                    row = [a - t * bc for a, bc in zip(row, brow)]
                    hit = True
                    break
            if not hit:
                t = _mono(ctx, exp, c)
                rem = rem + t
                p = p - t
        return rem, row

    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        rem, row = reduce_full(g, unit_row(j))
        if not rem.is_zero():
            lt = leading_term(rem, order)
            inv = Fraction(1) / lt[1]
            basis.append((rem * inv, row_mul(row, ctx.const(inv))))

    # pair queue with sugar degrees
    def sugar(p):
        return p.total_degree()

    pairs = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pairs.append((i, j))

    def pair_key(ij):
        i, j = ij
        li = leading_term(basis[i][0], order)[0]
        lj = leading_term(basis[j][0], order)[0]
        lcm = _exp_lcm(li, lj)
        s = max(sugar(basis[i][0]) + sum(lcm) - sum(li),
                sugar(basis[j][0]) + sum(lcm) - sum(lj))
        return (s, order.key(lcm), i, j)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        bi, rowi = basis[i]
        bj, rowj = basis[j]
        li = leading_term(bi, order)
        lj = leading_term(bj, order)
        lcm = _exp_lcm(li[0], lj[0])
        if all(x + y == m for x, y, m in zip(li[0], lj[0], lcm)):
            continue  # Buchberger's coprimality criterion
        ti = _mono(ctx, _exp_sub(lcm, li[0]), Fraction(1) / li[1])
        tj = _mono(ctx, _exp_sub(lcm, lj[0]), Fraction(1) / lj[1])
        s = ti * bi - tj * bj
        srow = row_add(row_mul(rowi, ti), row_mul(rowj, -tj))
        rem, srow = reduce_full(s, srow)
        if rem.is_zero():
            continue
        lt = leading_term(rem, order)
        inv = Fraction(1) / lt[1]
        basis.append((rem * inv, row_mul(srow, ctx.const(inv))))
        k = len(basis) - 1
        for m in range(k):
            pairs.append((m, k))

    # inter-reduce: drop elements whose leading term is divisible by another's
    keep = []
    for idx, (b, _) in enumerate(basis):
        lb = leading_term(b, order)[0]
        if any(
            o != idx and _divides(leading_term(basis[o][0], order)[0], lb)
            and (leading_term(basis[o][0], order)[0] != lb or o < idx)
            for o in range(len(basis))
        ):
            continue
        keep.append(idx)
    # tail-reduce kept elements against each other (without cofactor loss)
    final = []
    for idx in keep:
        b, row = basis[idx]
        others = [basis[o][0] for o in keep if o != idx]
        if others:
            cof, rem = division(b, others, order)
            # rem = b - sum cof*other; update row accordingly
            for c, o in zip(cof, (o for o in keep if o != idx)):
                row = [a - c * bc for a, bc in zip(row, basis[o][1])]
            b = rem
        lt = leading_term(b, order)
        inv = Fraction(1) / lt[1]
        final.append((b * inv, row_mul(row, ctx.const(inv))))
    final.sort(key=lambda br: order.key(leading_term(br[0], order)[0]))
    return GroebnerBasis(
        generators=[b for b, _ in final],
        order=order,
        original_gens=gens,
        cofactor_log=[r for _, r in final],
        ctx=ctx,
    )


def normal_form(g: Poly, gb: GroebnerBasis) -> Poly:
    if g.ctx != gb.ctx:
        raise ContextMismatch("normal_form context mismatch")
    _, rem = division(g, gb.generators, gb.order)
    return rem


def membership_with_cofactors(g: Poly, gens, order: MonomialOrder = GRLEX):
    """g = sum cofactors_j * gens_j + remainder, remainder in normal form."""
    gb = groebner(gens, order)
    cof_gb, rem = division(g, gb.generators, gb.order)
    return _lift_cofactors(cof_gb, gb), rem


def _lift_cofactors(cof_gb, gb: GroebnerBasis):
    """Cofactors over the original generators from cofactors over the basis."""
    cof = [gb.ctx.zero() for _ in gb.original_gens]
    for c, row in zip(cof_gb, gb.cofactor_log):
        for j in range(len(cof)):
            cof[j] = cof[j] + c * row[j]
    return cof


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


def quotient_monomial_basis(gb: GroebnerBasis) -> QuotientBasis:
    """Standard monomials under the leading-term ideal, or an infinity witness."""
    lead = gb.leading_exponents()
    n = len(gb.ctx.names)
    # finite iff each variable has a pure-power leading exponent
    bounds = []
    for i in range(n):
        cap = None
        for exp in lead:
            if all(e == 0 for k, e in enumerate(exp) if k != i):
                cap = exp[i] if cap is None else min(cap, exp[i])
        if cap is None:
            return QuotientBasis(None, witness=gb.ctx.names[i])
        bounds.append(cap)
    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    standard = [m for m in monos if not any(_divides(l, m) for l in lead)]
    standard.sort(key=gb.order.key)
    return QuotientBasis(standard)


@dataclass
class PotentialCertificate:
    W: Poly
    ctx: RingContext
    partials: list
    gb: GroebnerBasis
    quotient: QuotientBasis

    @property
    def is_potential(self) -> bool:
        return self.quotient.finite

    @property
    def jacobi_dimension(self) -> int:
        return self.quotient.dimension


def check_potential(W: Poly, order: MonomialOrder = GRLEX) -> PotentialCertificate:
    """Certify that W has a finite-colength Jacobi ideal (over Q this is the
    full potential condition); rejection carries an unbounded-monomial witness."""
    ctx = W.ctx
    partials = [partial_derivative(W, n) for n in ctx.names]
    gb = groebner(partials, order)
    quotient = quotient_monomial_basis(gb)
    return PotentialCertificate(W=W, ctx=ctx, partials=partials, gb=gb, quotient=quotient)


def power_membership(v, gb: GroebnerBasis):
    """Minimal a with v^a in the ideal, plus cofactors over the original gens.

    The quotient A = k[x]/I must be finite, of dimension D.  Then v is
    nilpotent in A iff v^D lies in I: the chain A > vA > v^2 A > ... descends
    strictly until it is stable, so it has at most D steps.  Raises
    ValueError for an infinite quotient or a v that is not nilpotent.
    """
    name = v if isinstance(v, str) else v.name
    q = quotient_monomial_basis(gb)
    if not q.finite:
        raise ValueError(f"infinite quotient: no power of {q.witness} "
                         f"lies in the ideal")
    D = q.dimension
    x = gb.ctx.gen(name)
    for a in range(1, max(D, 1) + 1):
        cof_gb, rem = division(x ** a, gb.generators, gb.order)
        if rem.is_zero():
            return a, _lift_cofactors(cof_gb, gb)
    raise ValueError(f"{name} is not nilpotent: {name}^{D} is not in the "
                     f"ideal, whose quotient has dimension D = {D}")
