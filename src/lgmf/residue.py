"""Grothendieck residue symbols, absolute and relative.

The residue Res[g dx/(f_1,...,f_n)] is computed through the transformation
rule: power membership supplies x_i^{a_i} = sum_j C_ij f_j, and the
residue becomes coefficient extraction of det(C) * g at prod x_i^{a_i - 1}.
Denominators must be free of parameter variables; results are polynomials in
the parameters (rationals when there are none).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import polymat
from .ideal import GRLEX, MonomialOrder, groebner, power_membership
from .ring import Poly, RingContext, _restrict, divided_difference, embed


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


def grothendieck_residue(q: ResidueQuery, order: MonomialOrder = GRLEX) -> Poly:
    """Residue via the transformation rule to monomial denominators."""
    ctx = q.numerator.ctx
    sub = RingContext(q.integration_vars)
    fs = []
    for d in q.denominators:
        p = embed(d, ctx)
        f = _restrict(p, sub)
        if f is None:
            raise DenominatorError(
                f"denominator {p} touches parameter variables")
        fs.append(f)
    gb = groebner(fs, order)
    a_list = []
    C = []
    for name in q.integration_vars:
        try:
            a, cof = power_membership(name, gb)
        except ValueError as exc:
            raise DenominatorError(str(exc)) from None
        a_list.append(a)
        C.append([embed(c, ctx) for c in cof])
    detC = polymat.det(C, ctx)
    g = detC * embed(q.numerator, ctx)
    return monomial_residue(g, a_list, q.integration_vars)


def residue(numerator: Poly, denominators, integration_vars, **kw) -> Poly:
    """Convenience wrapper building the ResidueQuery."""
    return grothendieck_residue(
        ResidueQuery(numerator, list(denominators), list(integration_vars)), **kw)


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

