"""Grothendieck residues: defining property, transformation rule, duality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmf.ideal import groebner, normal_form
from lgmf.residue import (DenominatorError, ResidueQuery, grothendieck_residue,
                          jacobian_delta, monomial_residue, residue)
from lgmf.ring import RingContext, _restrict, embed, partial_derivative, rename

from conftest import corpus_potentials
from test_ring import poly_strategy


def test_defining_property_single_variable():
    ctx = RingContext(["x"])
    x = ctx.gen("x")
    for a in range(1, 6):
        r = residue(ctx.one(), [x ** a], ["x"])
        assert r == (ctx.one() if a == 1 else ctx.zero())


def test_non_nilpotent_denominator_is_rejected():
    ctx = RingContext(["x"])
    x = ctx.gen("x")
    with pytest.raises(DenominatorError, match=r"x\^2 .*D = 2"):
        residue(ctx.one(), [x ** 2 - 1], ["x"])


def test_infinite_quotient_is_rejected():
    ctx = RingContext(["x", "y"])
    x = ctx.gen("x")
    with pytest.raises(DenominatorError, match="infinite quotient"):
        residue(ctx.one(), [ctx.zero(), x ** 2], ["x", "y"])
    with pytest.raises(DenominatorError, match="infinite quotient"):
        residue(ctx.one(), [x, x ** 2], ["x", "y"])


def test_monomial_residue_picks_top_coefficient():
    ctx = RingContext(["x", "y"])
    x, y = ctx.gen("x"), ctx.gen("y")
    g = 5 * x ** 2 * y + 3 * x * y ** 2 - x
    # residue against (x^3, y^2): coefficient of x^2 * y
    assert monomial_residue(g, (3, 2), ["x", "y"]) == ctx.const(Fraction(5))


@settings(max_examples=30)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_transformation_rule_unimodular(a, b):
    """Row operations on the denominators rescale by the determinant."""
    ctx = RingContext(["x", "y"])
    x, y = ctx.gen("x"), ctx.gen("y")
    f = [x ** 3, y ** 2]
    # A = [[1, a], [b, 1 + a b]] has determinant 1
    g = [f[0] + ctx.const(Fraction(a)) * f[1],
         ctx.const(Fraction(b)) * f[0]
         + ctx.const(Fraction(1 + a * b)) * f[1]]
    num = x ** 2 * y + x * y - 1
    assert residue(num, g, ["x", "y"]) == residue(num, f, ["x", "y"])


def test_transformation_rule_scaling():
    ctx = RingContext(["x"])
    x = ctx.gen("x")
    assert residue(x, [3 * x ** 2], ["x"]) == ctx.const(Fraction(1, 3))
    assert residue(x, [x ** 2], ["x"]) == ctx.one()


@pytest.mark.parametrize("key", ["x^3", "x^4", "xy", "x^2-y^2", "x^3-y^3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_determinant_residue_identity(key, data):
    """res[g * delta dx / dW] = g(x') modulo the primed Jacobi ideal."""
    W = corpus_potentials()[key]
    ctx = W.ctx
    names = list(ctx.names)
    primes = [n + "'" for n in names]
    dctx = RingContext(names + primes)
    pairs = list(zip(names, primes))
    g = data.draw(poly_strategy(ctx, max_deg=4, max_terms=4))
    fs = [partial_derivative(W, n) for n in names]
    delta = jacobian_delta([embed(f, dctx) for f in fs], pairs)
    num = embed(g, dctx) * delta
    res = grothendieck_residue(
        ResidueQuery(num, [embed(f, dctx) for f in fs], names))
    pctx = RingContext(primes)
    gp = rename(g, dict(pairs), pctx)
    fsp = [rename(f, dict(pairs), pctx) for f in fs]
    gb = groebner(fsp)
    lhs = _restrict(res, pctx)
    assert lhs is not None
    assert normal_form(lhs - gp, gb).is_zero()


def test_parameters_allowed_in_numerator_only():
    dctx = RingContext(["x", "t"])
    x, t = dctx.gen("x"), dctx.gen("t")
    out = grothendieck_residue(ResidueQuery(t * x, [x ** 2], ["x"]))
    assert embed(out, dctx) == t
    with pytest.raises(DenominatorError):
        grothendieck_residue(ResidueQuery(x, [t * x ** 2], ["x"]))
