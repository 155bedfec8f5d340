"""Grothendieck residues: defining property, transformation rule, duality,
and residue plans against the product form of the transformation rule."""

import functools
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmf import adjunction, ideal, polymat, residue as residue_module, tft
from lgmf.ideal import groebner, normal_form, power_membership
from lgmf.residue import (DenominatorError, ResidueQuery, grothendieck_residue,
                          jacobian_delta, monomial_residue, residue,
                          residue_plan)
from lgmf.ring import (LIMIT, ContextMismatch, ExponentOverflow,
                       RingContext, _canon, _restrict, embed,
                       partial_derivative, rename)

from conftest import corpus_potentials, delta_defect, line_defect
from test_ring import poly_strategy, rational_polys


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


# -- residue plans ------------------------------------------------------------

def reference_residue(numerator, denominators, names):
    """The product form: coefficient of x^(a-1) in det(C) * numerator."""
    ctx = numerator.ctx
    sub = RingContext(names)
    gb = groebner([_restrict(embed(d, ctx), sub) for d in denominators])
    a_list, C = [], []
    for name in names:
        a, cof = power_membership(name, gb)
        a_list.append(a)
        C.append([embed(c, ctx) for c in cof])
    return monomial_residue(polymat.det(C, ctx) * numerator, a_list, names)


PCTX = RingContext(["x", "y", "t"])


def _denominator_tuples():
    """Denominator pairs over x, y with a finite, origin-supported quotient."""
    x, y = PCTX.gen("x"), PCTX.gen("y")
    out = {key: [embed(partial_derivative(W, n), PCTX) for n in W.ctx.names]
           for key, W in corpus_potentials().items() if len(W.ctx) == 2}
    out["x^3,y^2"] = [x ** 3, y ** 2]
    out["x^2+xy,y^3"] = [x ** 2 + x * y, y ** 3]
    out["x^3+y^2,xy"] = [x ** 3 + y ** 2, x * y]
    out["d(x^3y+y^4)"] = [3 * x ** 2 * y, x ** 3 + 4 * y ** 3]
    return out


DENOMINATORS = _denominator_tuples()


def _unimodular(fs, a, b):
    """(f1 + a f2, b f1 + (1 + ab) f2): the same ideal, a non-monomial C."""
    return [fs[0] + Fraction(a) * fs[1],
            Fraction(b) * fs[0] + Fraction(1 + a * b) * fs[1]]


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(sorted(DENOMINATORS)), a=st.integers(-2, 2),
       b=st.integers(-2, 2), with_t=st.booleans(), data=st.data())
def test_plan_equals_product_form(key, a, b, with_t, data):
    dens = _unimodular(DENOMINATORS[key], a, b)
    num = data.draw(poly_strategy(PCTX, ["x", "y"], max_deg=3, max_terms=8))
    if with_t:
        # the parameter t rides along on terms that have residues
        t = PCTX.gen("t")
        num = num + t * num * data.draw(
            poly_strategy(PCTX, max_deg=2, max_terms=3))
    plan = residue_plan(dens, ["x", "y"])
    assert plan(num) == reference_residue(num, dens, ["x", "y"])
    assert grothendieck_residue(ResidueQuery(num, dens, ["x", "y"])) \
        == plan(num)


@settings(max_examples=15, deadline=None)
@given(key=st.sampled_from(sorted(DENOMINATORS)),
       nums=st.lists(poly_strategy(PCTX, max_deg=4, max_terms=5),
                     min_size=1, max_size=6))
def test_one_plan_serves_many_numerators(key, nums):
    dens = DENOMINATORS[key]
    plan = residue_plan(dens, ["x", "y"])
    assert ([plan(n) for n in nums]
            == [residue_plan(dens, ["x", "y"])(n) for n in nums])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), c=st.fractions(min_value=-5, max_value=5).filter(
    bool), g=poly_strategy(RingContext(["x"]), max_deg=8, max_terms=6))
def test_univariate_residue_matches_sympy(k, c, g):
    ctx = g.ctx
    x = sympy.Symbol("x")
    gs = sum((sympy.Rational(v.numerator, v.denominator) * x ** e[0]
              for e, v in g.terms.items()), sympy.Integer(0))
    want = sympy.residue(gs / (sympy.Rational(c.numerator, c.denominator)
                               * x ** k), x, 0)
    got = residue_plan([ctx.const(c) * ctx.gen("x") ** k], ["x"])(g)
    assert got == ctx.const(Fraction(int(want.p), int(want.q)))


@given(p=poly_strategy(PCTX))
def test_plan_without_integration_variables_is_the_identity(p):
    assert residue_plan([], [])(p) == p


def test_plan_build_rejects_bad_denominators():
    x, t = PCTX.gen("x"), PCTX.gen("t")
    cx = RingContext(["x"])
    with pytest.raises(DenominatorError, match="parameter"):
        residue_plan([t * x ** 2], ["x"])
    with pytest.raises(DenominatorError, match="not nilpotent"):
        residue_plan([cx.gen("x") ** 2 - 1], ["x"])
    with pytest.raises(DenominatorError, match="infinite quotient"):
        residue_plan([PCTX.zero(), x ** 2], ["x", "y"])


def test_an_overflow_in_a_plan_is_reported_as_an_overflow(monkeypatch):
    """An ExponentOverflow in power membership's chain is no fault of the
    denominators: it reaches the caller as it is."""
    cx = RingContext(["x"])
    with pytest.raises(DenominatorError, match="not nilpotent"):
        residue_plan([cx.gen("x") ** 2 - 1], ["x"])

    def overflow(v, gb):
        raise ExponentOverflow(LIMIT)

    monkeypatch.setattr(residue_module, "power_membership", overflow)
    for build in (lambda: residue_plan([cx.gen("x") ** 2], ["x"]),
                  tft.JacobiRing(cx.gen("x") ** 3).residue_plan):
        with pytest.raises(ExponentOverflow) as info:
            build()
        assert not isinstance(info.value, DenominatorError)


# -- one plan per loop --------------------------------------------------------

def _count_groebner(monkeypatch):
    """Count the Groebner bases built through any lgmf module's binding."""
    calls = []
    real = ideal.groebner

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (ideal, residue_module, adjunction):
        monkeypatch.setattr(module, "groebner", wrapper)
    return calls


def _count_plans(monkeypatch):
    """Count the residue plans built from a Jacobi ring's own basis."""
    calls = []
    real = tft.JacobiRing.residue_plan

    def wrapper(ring):
        calls.append(ring)
        return real(ring)

    monkeypatch.setattr(tft.JacobiRing, "residue_plan", wrapper)
    return calls


def test_a_plan_takes_one_membership_per_variable_and_one_determinant(
        monkeypatch):
    """The calls that the benchmark's spans count per plan: one
    ``power_membership`` per integration variable and one ``polymat.det``,
    whose expansion does not re-enter the public name."""
    members, dets = [], []
    real_member, real_det = residue_module.power_membership, polymat.det

    def member(v, gb):
        members.append(v)
        return real_member(v, gb)

    def det(a, ctx=None):
        dets.append(len(a))
        return real_det(a, ctx)

    monkeypatch.setattr(residue_module, "power_membership", member)
    monkeypatch.setattr(polymat, "det", det)
    c3 = RingContext(["x", "y", "z"])
    x, y, z = (c3.gen(n) for n in c3.names)
    for W in (x ** 3 * y + y ** 3 * z + z ** 3 * x,
              RingContext(["x"]).gen("x") ** 4, RingContext([]).one()):
        ring = tft.JacobiRing(W)
        del members[:], dets[:]
        ring.residue_plan()
        assert members == list(W.ctx.names)
        assert dets == [len(W.ctx)]


def test_zorro_composite_builds_one_plan_per_variant(monkeypatch):
    cxy = RingContext(["x", "y"])
    data = delta_defect(cxy.gen("x") ** 3 + cxy.gen("y") ** 3)
    calls = _count_groebner(monkeypatch)
    plans = _count_plans(monkeypatch)
    # the functional is the defect's own ring's: no basis is built
    for side, ring in (("right", data.source.ring),
                       ("left", data.target.ring)):
        del plans[:]
        adjunction.zorro_composite(data, side)
        assert calls == [] and len(plans) == 1 and plans[0] is ring


def test_defect_operator_builds_one_plan(monkeypatch):
    data = line_defect(3)
    calls = _count_groebner(monkeypatch)
    plans = _count_plans(monkeypatch)
    with pytest.warns(tft.ParityWarning):
        op = tft.defect_operator(data, "right")
    # the rings are the defect's own, built with it; the plan is the
    # source ring's
    assert len(op.images) == 2 and calls == []
    assert plans == [op.source] and op.source is data.source.ring


def _count_placements(monkeypatch):
    """Count the placements of a plan's support in a context."""
    calls = []
    real = residue_module.ResiduePlan.placed

    def wrapper(plan, ctx):
        calls.append(ctx)
        return real(plan, ctx)

    monkeypatch.setattr(residue_module.ResiduePlan, "placed", wrapper)
    return calls


def test_a_loop_over_one_plan_places_its_support_once(monkeypatch):
    """A Zorro composite (r^2 residues), a Gram matrix (one per pair) and a
    defect wrap (one per bulk field) each read every numerator through
    one placement."""
    placed = _count_placements(monkeypatch)
    cxy = RingContext(["x", "y"])
    data = delta_defect(cxy.gen("x") ** 3 + cxy.gen("y") ** 3)
    for side in ("right", "left"):
        del placed[:]
        adjunction.zorro_composite(data, side)
        assert len(placed) == 1
    del placed[:]
    ring = tft.JacobiRing(cxy.gen("x") ** 4 + cxy.gen("y") ** 3)
    tft.bulk_gram_matrix(ring)
    assert placed == [ring.ctx]
    del placed[:]
    with pytest.warns(tft.ParityWarning):
        op = tft.defect_operator(line_defect(3), "right")
    assert len(op.images) == 2 and len(placed) == 1


def test_bulk_gram_matrix_builds_one_plan(monkeypatch):
    cxy = RingContext(["x", "y"])
    ring = tft.JacobiRing(cxy.gen("x") ** 4 + cxy.gen("y") ** 3)
    calls = _count_groebner(monkeypatch)
    plans = _count_plans(monkeypatch)
    gram = tft.bulk_gram_matrix(ring)
    assert len(gram) == ring.dimension == 6
    assert calls == [] and plans == [ring]
    els = ring.basis_elements()
    assert gram == [[tft.bulk_pairing(a, b, ring) for b in els] for a in els]


# -- plans from a Jacobi ring's own basis -------------------------------------

_C3 = RingContext(["x", "y", "z"])
_X, _Y, _Z = (_C3.gen(n) for n in _C3.names)
_CXY = RingContext(["x", "y"])
_CX = RingContext(["x"])

# potential -> dim Jac(W), which local duality makes Res[det Hess(W) dx / dW]
JACOBI_POTENTIALS = {
    "Klein quartic": (_X ** 3 * _Y + _Y ** 3 * _Z + _Z ** 3 * _X, 27),
    "Fermat cubic": (_X ** 3 + _Y ** 3 + _Z ** 3, 8),
    "x^4+y^3": (_CXY.gen("x") ** 4 + _CXY.gen("y") ** 3, 6),
    "x^5": (_CX.gen("x") ** 5, 4),
    "no variables": (RingContext([]).const(Fraction(2)), 1),
}


@functools.cache
def _jacobi_ring(key):
    return tft.JacobiRing(JACOBI_POTENTIALS[key][0])


@settings(max_examples=40, deadline=None)
@given(key=st.sampled_from(sorted(JACOBI_POTENTIALS)), with_t=st.booleans(),
       data=st.data())
def test_ring_plan_equals_the_plan_of_its_partials(key, with_t, data):
    ring = _jacobi_ring(key)
    names = list(ring.ctx.names)
    ctx = RingContext(names + ["t"]) if with_t else ring.ctx
    num = data.draw(poly_strategy(ctx, max_deg=7, max_terms=6))
    want = residue_plan([embed(p, ctx) for p in ring.partials], names)(num)
    assert ring.residue_plan()(num) == want


@pytest.mark.parametrize("key", sorted(JACOBI_POTENTIALS))
def test_local_duality_certifies_the_ring_plan(key):
    """Res[det Hess(W) dx / dW] = dim Jac(W)."""
    ring = _jacobi_ring(key)
    W, dim = JACOBI_POTENTIALS[key]
    hess = polymat.det([[partial_derivative(partial_derivative(W, a), b)
                         for b in W.ctx.names] for a in W.ctx.names], W.ctx)
    assert ring.dimension == dim
    assert ring.residue_plan()(hess) == W.ctx.const(Fraction(dim))
    assert tft.bulk_pairing(hess, ring.one(), ring) == dim


@pytest.mark.parametrize("key", sorted(JACOBI_POTENTIALS))
def test_plan_support_is_its_functional(key):
    """plan(x^m) = support[m] on the box 0 <= m <= a, and the support of a
    plan does not depend on the names of the integration variables."""
    ring = _jacobi_ring(key)
    names = list(ring.ctx.names)
    plan = ring.residue_plan()
    tops = [power_membership(n, ring.gb)[0] for n in names]
    # the support is keyed by packed monomials of the ring's layout
    support = {ring.ctx.unpack(k): d for k, d in plan.support.items()}
    assert all(all(k < a for k, a in zip(m, tops)) and d
               for m, d in support.items())
    for m in itertools.product(*(range(a + 1) for a in tops)):
        mono = ring.ctx.poly({m: Fraction(1)})
        want = support.get(m, Fraction(0))
        assert plan(mono) == ring.ctx.const(want)
    renamed = [n + "r" for n in names]
    rctx = RingContext(renamed)
    partials = [rename(p, dict(zip(names, renamed)), rctx)
                for p in ring.partials]
    other = residue_plan(partials, renamed)
    assert other.support == plan.support
    assert other.names == tuple(renamed)
    # read over the renamed variables, the ring's plan is the other plan
    g = sum((ring.ctx.poly({m: Fraction(i + 1)}) for i, m in
             enumerate(itertools.product(*(range(a) for a in tops)))),
            ring.ctx.zero())
    g_renamed = rename(g, dict(zip(names, renamed)), rctx)
    assert plan.over(renamed)(g_renamed) == other(g_renamed)
    assert _restrict(other(g_renamed), RingContext([])) == _restrict(
        plan(g), RingContext([]))


@settings(max_examples=80, deadline=None)
@given(key=st.sampled_from(sorted(JACOBI_POTENTIALS)), data=st.data())
def test_a_plan_reads_its_support_like_the_tuple_functional(key, data):
    """plan(g) against the support read on exponent tuples: a term
    c x^m t^f contributes c support[m] t^f, in value and term order, with
    the plan's variables anywhere in g's context."""
    ring = _jacobi_ring(key)
    plan = ring.residue_plan()
    names = list(plan.names)
    ctx = RingContext(data.draw(st.permutations(names + ["p1", "p2"])))
    g = data.draw(rational_polys(ctx, max_deg=4, max_terms=10))
    support = {ring.ctx.unpack(k): d for k, d in plan.support.items()}
    want = {}
    for exp, c in g.terms.items():
        d = support.get(tuple(exp[ctx.index(n)] for n in names))
        if d is not None:
            rest = tuple(0 if n in names else e
                         for n, e in zip(ctx.names, exp))
            want[rest] = want.get(rest, 0) + c * d
    got = plan(g)
    assert got.ctx is ctx
    assert list(got.terms.items()) == [(e, _canon(c)) for e, c in want.items()
                                       if c]


def test_plan_without_integration_variables_is_the_identity():
    plan = residue_plan([], [])
    assert plan.support == {RingContext([]).pack(()): 1} and plan.names == ()
    assert _jacobi_ring("no variables").residue_plan().support == {0: 1}
    p = PCTX.gen("t") ** 2 + PCTX.const(Fraction(3))
    assert plan(p) == p
    with pytest.raises(ValueError, match="integration variables"):
        plan.over(["x"])


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(sorted(JACOBI_POTENTIALS)), data=st.data())
def test_a_placed_plan_reads_like_the_plan(key, data):
    """Numerators read through one placement come out as the plan's own
    calls give them, term order included; a numerator of another context
    is refused."""
    ring = _jacobi_ring(key)
    plan = ring.residue_plan()
    ctx = ring.ctx.extend(["t"])
    read = plan.placed(ctx)
    for p in data.draw(st.lists(rational_polys(ctx, max_deg=3), max_size=4)):
        assert list(read(p).terms.items()) == list(plan(p).terms.items())
    with pytest.raises(ContextMismatch):
        read(RingContext(["s"]).one())


def test_plan_from_a_basis_over_other_variables_is_rejected():
    gb = _jacobi_ring("x^4+y^3").gb
    with pytest.raises(ValueError, match="integration variables"):
        residue_module._plan_from_basis(gb, ["y", "x"])
    with pytest.raises(ValueError, match="integration variables"):
        residue_module._plan_from_basis(None, ["x"])


def test_an_element_of_another_jacobi_ring_is_refused():
    """Jac(x^3) and Jac(x^4) share their context but not their relations: an
    element of one does not enter the other, while equal rings built twice
    still mix."""
    cx = RingContext(["x"])
    x = cx.gen("x")
    r3, r4 = residue_module.JacobiRing(x ** 3), residue_module.JacobiRing(x ** 4)
    x2 = r4.reduce(x ** 2)
    for bad in (lambda: r3.reduce(x2),
                lambda: tft.bulk_pairing(x2, r4.reduce(x), r3),
                lambda: r3.one() + x2, lambda: r3.one() * x2):
        with pytest.raises(ValueError, match="element of JacobiRing"):
            bad()
    again = residue_module.JacobiRing(x ** 3)
    assert again.reduce(r3.reduce(x)) == r3.reduce(x)
    assert r3.one() + again.one() == r3.reduce(2 * cx.one())
    assert tft.bulk_pairing(r3.one(), again.reduce(x), r3) == Fraction(1, 3)
