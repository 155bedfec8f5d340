"""Grothendieck residue symbols, absolute and relative.

The residue Res[g dx/(f_1,...,f_n)] is computed through the transformation
rule: power membership supplies x_i^{a_i} = sum_j C_ij f_j, and the
residue becomes coefficient extraction of det(C) * g at prod x_i^{a_i - 1}.
Denominators must be free of parameter variables; results are polynomials in
the parameters (rationals when there are none).

A residue plan does the denominator work once: ``residue_plan`` runs the
Groebner basis, the power-membership certificates and det(C) for one
denominator tuple.  The plan is the residue functional as data: its
``support`` maps each monomial x^m with a nonzero residue to
Res[x^m dx/(f)] = d_{a-1-m}, d_e the coefficients of det(C), and a call reads
each residue off that map, forming no product.  The support is keyed by
packed monomials over the integration variables, in their order and free of
their names, so a caller may read it over renamed variables
(``ResiduePlan.over``) or contract toward it without forming the terms it
ignores, as the Zorro composites do.  Reading a numerator places the
support in its context's layout; ``ResiduePlan.placed`` places it once for
a loop over one context.
Loops that take many residues over one tuple build one plan;
``grothendieck_residue`` builds a plan and applies it once.  A caller that
already holds the Groebner basis of the denominators builds the plan from it
with ``_plan_from_basis``, skipping the basis, as ``JacobiRing`` does with
that of dW.  Power membership finds each a_i by a chain of normal forms and
divides x_i^{a_i} with cofactors once; det(C) is expanded on integers with
one division (``polymat.det``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import polymat
from .ideal import (GroebnerBasis, QuotientBasis, groebner, normal_form,
                    power_membership)
from .ring import (ContextMismatch, ExponentOverflow, Poly, RingContext,
                   _clean, _moved_terms, _no_overflow, _poly, _restrict, _runs,
                   divided_difference, embed, partial_derivative)


@dataclass
class ResidueQuery:
    numerator: Poly
    denominators: list
    integration_vars: list          # names, ordered (the dx order)
    parameter_vars: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.denominators) != len(self.integration_vars):
            raise ValueError("need exactly one denominator per integration variable")


def monomial_residue(g: Poly, exponents, var_names) -> Poly:
    """Coefficient of prod v_i^{a_i - 1} in g, as a polynomial in the rest."""
    if any(a < 1 for a in exponents):
        raise ValueError("monomial residue needs exponents >= 1")
    return g.coefficient_of({n: a - 1 for n, a in zip(var_names, exponents)})


class DenominatorError(ValueError):
    pass


def residue_plan(denominators, integration_vars) -> ResiduePlan:
    """g -> Res[g dx / (f)] for one denominator tuple f.

    Restricts the denominators to the integration variables, runs their
    Groebner basis and hands it to ``_plan_from_basis``.  With no
    integration variables the plan is the identity.
    """
    names = list(integration_vars)
    if len(denominators) != len(names):
        raise ValueError("need exactly one denominator per integration variable")
    sub = RingContext(names)
    fs = []
    for d in denominators:
        f = _restrict(d, sub)
        if f is None:
            raise DenominatorError(
                f"denominator {d} touches parameter variables")
        fs.append(f)
    return _plan_from_basis(groebner(fs) if names else None, names)


def _plan_from_basis(gb: GroebnerBasis | None, names) -> ResiduePlan:
    """The residue functional of the denominators with Groebner basis gb.

    ``gb`` lives over exactly the integration variables ``names``, in that
    order; None stands for no variables (the plan is then the identity, with
    support {0: 1}, 0 the key of the constant monomial).  Runs the power membership of every integration
    variable (certified by the quotient dimension) and det(C) once.  With
    exponents a_i and det(C) = sum_e d_e x^e, Res[x^m dx / (f)] = d_{a-1-m}.
    """
    names = list(names)
    sub = RingContext([]) if gb is None else gb.ctx
    if list(sub.names) != names:
        raise ValueError(f"basis over {sub} for the integration variables "
                         f"{names}")
    top, C = 0, []              # the key of prod x_i^(a_i - 1)
    for name in names:
        try:
            a, cof = power_membership(name, gb)
        except ExponentOverflow:
            raise
        except ValueError as exc:
            raise DenominatorError(str(exc)) from None
        top += (a - 1) * sub.unit(name)
        _no_overflow(top)
        C.append(cof)
    guard = sub._guard
    support = {}
    for e, d in polymat.det(C, sub).packed.items():
        m = top - e
        if not m & guard:
            support[m] = d
    return ResiduePlan(names, support)


class ResiduePlan:
    """The residue functional g -> Res[g dx / (f)] of one denominator tuple.

    ``support`` maps the packed key of each monomial x^m over ``names`` (in
    the layout of a context of len(names) variables) that has a nonzero
    residue to Res[x^m dx / (f)]; every other monomial has residue 0.  A
    term c x^m t^f of g (t the parameter variables) contributes
    c Res[x^m dx / (f)] t^f.
    """

    __slots__ = ("names", "support")

    def __init__(self, names, support: dict):
        self.names = tuple(names)
        self.support = support

    def over(self, names) -> ResiduePlan:
        """The same functional read over other variables, position by
        position (the denominators renamed to ``names``)."""
        if len(names) != len(self.names):
            raise ValueError(f"{names} do not match the integration "
                             f"variables {self.names}")
        return ResiduePlan(names, self.support)

    def __call__(self, numerator: Poly) -> Poly:
        return self.placed(numerator.ctx)(numerator)

    def placed(self, ctx: RingContext):
        """The functional on numerators in ``ctx``, the support placed in
        ctx's layout once for all of them."""
        pos = [ctx.index(n) for n in self.names]
        mask = ctx.field_mask(pos)
        # the support placed in the numerator's layout, keyed by its fields
        # at ``pos``; a term's key minus the placed key is its rest
        moved = _moved_terms(self.support, _runs(len(pos), pos, len(ctx)))
        get = {k & mask: (k, d) for k, d in moved.items()}.get

        def read(numerator: Poly) -> Poly:
            if numerator.ctx is not ctx and numerator.ctx != ctx:
                raise ContextMismatch(f"a numerator over {numerator.ctx} "
                                      f"read through a plan placed in {ctx}")
            out = {}
            for key, c in numerator.packed.items():
                hit = get(key & mask)
                if hit is None:
                    continue
                rest = key - hit[0]
                s = out.get(rest)
                out[rest] = c * hit[1] if s is None else s + c * hit[1]
            return _clean(ctx, out)

        return read


def grothendieck_residue(q: ResidueQuery) -> Poly:
    """Residue via the transformation rule to monomial denominators."""
    ctx = q.numerator.ctx
    plan = residue_plan([embed(d, ctx) for d in q.denominators],
                        q.integration_vars)
    return plan(q.numerator)


def residue(numerator: Poly, denominators, integration_vars) -> Poly:
    """Convenience wrapper building the ResidueQuery."""
    return grothendieck_residue(
        ResidueQuery(numerator, list(denominators), list(integration_vars)))


def jacobian_delta(fs, pairs) -> Poly:
    """det of the difference-quotient matrix (d_[i] f_j) over k[x,x'].

    ``pairs`` lists (unprimed, primed) names fixing the operator order; the
    fs must live in a context containing both blocks.
    """
    if not fs:
        raise ValueError("empty sequence")
    n = len(fs)
    if len(pairs) != n:
        raise ValueError("need as many variable pairs as polynomials")
    mat = [[divided_difference(fs[j], i + 1, pairs=pairs) for j in range(n)]
           for i in range(n)]
    return polymat.det(mat)


# -- Jacobi rings ------------------------------------------------------------

class NotAPotential(ValueError):
    """Jac(W) is infinite; ``witness`` is a variable with no power in (dW)."""

    def __init__(self, W: Poly, witness: str):
        self.witness = witness
        super().__init__(f"W = {W} is not a potential: its Jacobi ideal has "
                         f"infinite colength (unbounded in {witness})")


class JacobiRing:
    """k[x]/(dW/dx_1, ..., dW/dx_n) with its standard-monomial basis.

    The one certificate that W is a potential (over Q: a finite quotient).
    """

    def __init__(self, W: Poly):
        ctx = W.ctx
        partials = [partial_derivative(W, n) for n in ctx.names]
        gb = groebner(partials) if partials else None
        basis = gb.quotient if gb is not None else QuotientBasis([0], ctx)
        if not basis.finite:
            raise NotAPotential(W, basis.witness)
        self.potential = W
        self.ctx = ctx
        self.partials = tuple(partials)
        self.gb = gb                # None when W has no variables
        self.basis = basis

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def residue_plan(self):
        """A new plan g -> Res[g dx / dW], built from this ring's Groebner
        basis of dW (the identity when W has no variables).

        The plan is not kept on the ring: each call makes its own.
        """
        return _plan_from_basis(self.gb, self.ctx.names)

    def reduce(self, p) -> "JacobiElement":
        p = _rep(p, self)
        p = embed(p, self.ctx) if p.ctx != self.ctx else p
        rep = p if self.gb is None else normal_form(p, self.gb)
        return JacobiElement(self, rep)

    def one(self) -> "JacobiElement":
        return JacobiElement(self, self.ctx.one())

    def zero(self) -> "JacobiElement":
        return JacobiElement(self, self.ctx.zero())

    def coordinates(self, el: "JacobiElement"):
        """Coefficient vector of a (normal-form) element over the basis."""
        vec = []
        seen = dict(el.rep.packed)
        for key in self.basis.keys:
            vec.append(Fraction(seen.pop(key, 0)))
        if seen:
            raise ValueError("representative is not in normal form")
        return vec

    def basis_elements(self):
        return [JacobiElement(self, _poly(self.ctx, {k: 1}))
                for k in self.basis.keys]

    def __eq__(self, other):
        return (isinstance(other, JacobiRing)
                and self.ctx == other.ctx
                and self.potential == other.potential)

    def __repr__(self):
        return (f"JacobiRing({self.potential!r}, dim={self.dimension})")


@dataclass(frozen=True)
class JacobiElement:
    """A bulk field: the normal form of a polynomial modulo (dW)."""

    ring: JacobiRing
    rep: Poly

    def __add__(self, other):
        return self.ring.reduce(self.rep + _rep(other, self.ring))

    def __sub__(self, other):
        return self.ring.reduce(self.rep - _rep(other, self.ring))

    def __neg__(self):
        return JacobiElement(self.ring, -self.rep)

    def __mul__(self, other):
        return self.ring.reduce(self.rep * _rep(other, self.ring))

    def scale(self, c):
        return JacobiElement(self.ring, self.rep * Fraction(c))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        if isinstance(other, JacobiElement):
            return self.ring == other.ring and self.rep == other.rep
        return NotImplemented

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"[{self.rep!r}]"


def _rep(other, ring: JacobiRing) -> Poly:
    """A polynomial standing for ``other`` in ``ring``; an element of another
    Jacobi ring (a ring not equal to ``ring``) raises ValueError."""
    if isinstance(other, JacobiElement):
        if other.ring is not ring and other.ring != ring:
            raise ValueError(f"element of {other.ring}, not of {ring}")
        return other.rep
    if isinstance(other, Poly):
        return other
    return ring.ctx.const(Fraction(other))
