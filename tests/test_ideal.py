"""Groebner bases, normal forms, Jacobi quotients, potential certification.

A potential is certified by building its ``JacobiRing``, which holds the
Groebner basis and quotient monomials of its partials.
"""

from fractions import Fraction
from operator import add, le, sub

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmf.ideal import (division, groebner, leading_term,
                        membership_with_cofactors, normal_form,
                        power_membership)
from lgmf.residue import JacobiRing, NotAPotential
from lgmf.ring import (ContextMismatch, Poly, RingContext, _canon,
                       _terms_add, _terms_mul, parse_poly,
                       partial_derivative)

from conftest import canonical_coefficient, corpus_potentials
from test_ring import (CONTEXTS, _reference_terms_mul, _same_terms,
                       _snapshot, _unchanged, _view, grlex_key,
                       poly_strategy, rational_polys)

CTX = RingContext(["x", "y"])


def _gens():
    x, y = CTX.gen("x"), CTX.gen("y")
    return [x ** 2 + y, x * y - 1, y ** 3 - x]


def test_normal_form_is_zero_on_generators():
    gens = _gens()
    gb = groebner(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()
    for a in gb.generators:
        for b in gens:
            assert normal_form(a * b, gb).is_zero()


@settings(max_examples=40)
@given(poly_strategy(CTX), poly_strategy(CTX))
def test_normal_form_is_linear_and_idempotent(p, q):
    gb = groebner(_gens())
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(p + q, gb) == normal_form(np_ + nq, gb)
    assert normal_form(np_, gb) == np_


@settings(max_examples=30)
@given(poly_strategy(CTX))
def test_membership_with_cofactors_reconstructs(p):
    gens = _gens()
    cofactors, remainder = membership_with_cofactors(p, gens)
    acc = CTX.zero()
    for c, g in zip(cofactors, gens):
        acc = acc + c * g
    assert acc + remainder == p
    gb = groebner(gens)
    assert remainder == normal_form(p, gb)


def test_jacobi_dimensions_of_corpus():
    expected = {"x^3": 2, "x^4": 3, "xy": 1, "x^2-y^2": 1, "x^3-y^3": 4}
    for key, W in corpus_potentials().items():
        assert JacobiRing(W).dimension == expected[key], key


def test_non_potential_rejected_with_witness():
    x, y = CTX.gen("x"), CTX.gen("y")
    # (dW) = (2xy, x^2): no power of y is a leading monomial
    with pytest.raises(NotAPotential) as err:
        JacobiRing(x ** 2 * y)
    assert err.value.witness == "y"
    assert str(err.value) == ("W = x^2*y is not a potential: its Jacobi "
                              "ideal has infinite colength (unbounded in y)")


def test_quotient_basis_x3_y3():
    W = corpus_potentials()["x^3-y^3"]
    monos = JacobiRing(W).basis.monomials
    assert sorted(monos) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_power_membership_in_jacobi_ideal():
    W = corpus_potentials()["x^3"]
    gb = JacobiRing(W).gb
    k, cof = power_membership("x", gb)
    x = W.ctx.gen("x")
    assert k >= 1
    assert normal_form(x ** k, gb).is_zero()
    acc = W.ctx.zero()
    for c, g in zip(cof, gb.original_gens):
        acc = acc + c * g
    assert acc == x ** k


def test_power_membership_bound_is_the_quotient_dimension():
    x, y = CTX.gen("x"), CTX.gen("y")
    # modulo (x - y^2, y^6), y is nilpotent of index exactly D = 6
    gb = groebner([x - y ** 2, y ** 6])
    assert gb.quotient.dimension == 6
    assert power_membership("x", gb)[0] == 3
    assert power_membership("y", gb)[0] == 6
    with pytest.raises(ValueError, match=r"x\^2 is not in the ideal"):
        power_membership("x", groebner([x ** 2 - 1, y]))
    with pytest.raises(ValueError, match="infinite quotient"):
        power_membership("x", groebner([x ** 3]))


def test_groebner_requires_matching_contexts():
    other = RingContext(["z"])
    with pytest.raises(Exception):
        groebner([CTX.gen("x"), other.gen("z")])
    with pytest.raises(ValueError):
        groebner([])


def test_zero_variable_potential_has_a_one_dimensional_quotient():
    ring = JacobiRing(RingContext([]).one())
    assert ring.partials == () and ring.gb is None
    assert ring.dimension == 1 and ring.basis.monomials == [()]


# -- differential tests: a reference Buchberger and a sympy oracle -----------

def _lead(p):
    exp = max(p.terms, key=grlex_key)
    return exp, p.terms[exp]


def _mono(ctx, exp, coeff=Fraction(1)):
    return Poly(ctx, {tuple(exp): coeff})


def _reference_groebner(gens):
    """Buchberger as first written: a private reduction loop that updates the
    cofactor row at every step, and a pair list re-sorted by a recomputed
    (sugar, grlex(lcm), i, j) key at every iteration.

    Returns (generators, cofactor_log, standard monomials or None).
    """
    ctx = gens[0].ctx
    n = len(gens)

    def reduce_full(p, row, basis):
        rem = ctx.zero()
        while not p.is_zero():
            exp, c = _lead(p)
            for b, brow in basis:
                lt = _lead(b)
                if all(x <= y for x, y in zip(lt[0], exp)):
                    t = _mono(ctx, [e - f for e, f in zip(exp, lt[0])],
                              c / lt[1])
                    p = p - t * b
                    row = [a - t * bc for a, bc in zip(row, brow)]
                    break
            else:
                t = _mono(ctx, exp, c)
                rem = rem + t
                p = p - t
        return rem, row

    def monic(rem, row):
        inv = Fraction(1) / _lead(rem)[1]
        return rem * inv, [a * ctx.const(inv) for a in row]

    basis = []
    for j, g in enumerate(gens):
        if g.is_zero():
            continue
        unit = [ctx.one() if k == j else ctx.zero() for k in range(n)]
        rem, row = reduce_full(g, unit, basis)
        if not rem.is_zero():
            basis.append(monic(rem, row))

    def lcm_of(i, j):
        li, lj = _lead(basis[i][0])[0], _lead(basis[j][0])[0]
        return li, lj, tuple(max(a, b) for a, b in zip(li, lj))

    def pair_key(ij):
        li, lj, lcm = lcm_of(*ij)
        s = max(basis[ij[0]][0].total_degree() + sum(lcm) - sum(li),
                basis[ij[1]][0].total_degree() + sum(lcm) - sum(lj))
        return (s, grlex_key(lcm), ij[0], ij[1])

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        li, lj, lcm = lcm_of(i, j)
        if all(a + b == m for a, b, m in zip(li, lj, lcm)):
            continue
        ti = _mono(ctx, [m - a for m, a in zip(lcm, li)])
        tj = _mono(ctx, [m - b for m, b in zip(lcm, lj)])
        (bi, ri), (bj, rj) = basis[i], basis[j]
        rem, row = reduce_full(ti * bi - tj * bj,
                               [ti * a - tj * b for a, b in zip(ri, rj)],
                               basis)
        if not rem.is_zero():
            basis.append(monic(rem, row))
            pairs.extend((m, len(basis) - 1) for m in range(len(basis) - 1))

    leads = [_lead(b)[0] for b, _ in basis]
    keep = [i for i, e in enumerate(leads)
            if not any(o != i and all(x <= y for x, y in zip(leads[o], e))
                       and (leads[o] != e or o < i)
                       for o in range(len(leads)))]
    final = []
    for i in keep:
        b, row = reduce_full(basis[i][0], basis[i][1],
                             [basis[o] for o in keep if o != i])
        final.append(monic(b, row))
    final.sort(key=lambda br: grlex_key(_lead(br[0])[0]))

    lead = [_lead(b)[0] for b, _ in final]
    bounds = []
    for i in range(len(ctx.names)):
        caps = [e[i] for e in lead
                if all(v == 0 for k, v in enumerate(e) if k != i)]
        if not caps:
            return final, None
        bounds.append(min(caps))
    monos = [()]
    for b in bounds:
        monos = [m + (e,) for m in monos for e in range(b)]
    standard = sorted((m for m in monos
                       if not any(all(x <= y for x, y in zip(l, m))
                                  for l in lead)), key=grlex_key)
    return final, standard


@st.composite
def ideals(draw):
    """Generators in 1-3 variables with rational coefficients; zero and
    repeated generators included."""
    n = draw(st.integers(1, 3))
    ctx = RingContext(["x", "y", "z"][:n])
    gens = draw(st.lists(poly_strategy(ctx, max_deg=3 if n < 3 else 2,
                                       max_terms=3),
                         min_size=1, max_size=3))
    if draw(st.booleans()):
        gens.append(gens[draw(st.integers(0, len(gens) - 1))])
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), ctx.zero())
    return gens


@settings(max_examples=150, deadline=None)
@given(ideals())
def test_groebner_matches_the_reference_buchberger(gens):
    gb = groebner(gens)
    final, standard = _reference_groebner(gens)
    assert gb.generators == [b for b, _ in final]
    assert gb.cofactor_log == [r for _, r in final]
    assert gb.quotient.monomials == standard


def test_groebner_matches_the_reference_on_the_klein_jacobi_ideal():
    ctx = RingContext(["x", "y", "z"])
    x, y, z = (ctx.gen(n) for n in ctx.names)
    gens = [3 * x ** 2 * y + z ** 3, 3 * y ** 2 * z + x ** 3,
            3 * z ** 2 * x + y ** 3]
    gb = groebner(gens)
    final, standard = _reference_groebner(gens)
    assert gb.generators == [b for b, _ in final]
    assert gb.cofactor_log == [r for _, r in final]
    assert gb.quotient.monomials == standard and len(standard) == 27


def _to_sympy(p: Poly, syms):
    out = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exp):
            term *= s ** e
        out += term
    return out


def _from_sympy(expr, syms, ctx):
    poly = sympy.Poly(expr, *syms, domain="QQ")
    return Poly(ctx, {exp: Fraction(int(c.p), int(c.q))
                      for exp, c in poly.terms() if c})


@settings(max_examples=40, deadline=None)
@given(ideals(), st.data())
def test_groebner_and_normal_form_match_sympy(gens, data):
    ctx = gens[0].ctx
    syms = sympy.symbols(ctx.names)
    gb = groebner(gens)
    want = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                          order="grlex", domain="QQ")
    got = {frozenset(g.terms.items()) for g in gb.generators}
    assert got == {frozenset(_from_sympy(e, syms, ctx).terms.items())
                   for e in want.exprs}
    f = data.draw(poly_strategy(ctx, max_deg=4, max_terms=4))
    _, rem = sympy.reduced(_to_sympy(f, syms), list(want.exprs), *syms,
                           order="grlex", domain="QQ")
    assert normal_form(f, gb) == _from_sympy(rem, syms, ctx)


# -- division against its first-written form ---------------------------------

def _reference_division(g, divisors):
    """The first-written division: the dividend, cofactors and remainder are
    Polys, and every step subtracts t * divisor as a whole product."""
    ctx = g.ctx
    lts = [None if d.is_zero() else _lead(d) for d in divisors]
    cof = [ctx.zero() for _ in divisors]
    rem = ctx.zero()
    p = g
    while not p.is_zero():
        exp, c = _lead(p)
        for j, lt in enumerate(lts):
            if lt is not None and all(x <= y for x, y in zip(lt[0], exp)):
                t = _mono(ctx, [e - f for e, f in zip(exp, lt[0])], c / lt[1])
                cof[j] = cof[j] + t
                p = p - Poly(ctx, _reference_terms_mul(t.terms,
                                                       divisors[j].terms))
                break
        else:
            t = _mono(ctx, exp, c)
            rem = rem + t
            p = p - t
    return cof, rem


@st.composite
def divisions(draw):
    """A dividend and 0-4 divisors with mixed denominators, zero divisors
    and repeated leading terms included; 0- to 3-variable contexts."""
    ctx = draw(st.sampled_from(CONTEXTS))
    g = draw(rational_polys(ctx, max_deg=3, max_terms=6))
    divisors = draw(st.lists(rational_polys(ctx, max_terms=3), max_size=4))
    if draw(st.booleans()):
        divisors.insert(draw(st.integers(0, len(divisors))), ctx.zero())
    return g, divisors


_CXY = RingContext(["x", "y"])


@settings(max_examples=80, deadline=None)
@given(divisions())
@example((parse_poly("x^2*y + x*y^2 + y^2", _CXY),
          [parse_poly("x*y - 1", _CXY), _CXY.zero(),
           parse_poly("y^2 - 1", _CXY)]))
@example((RingContext([]).const(Fraction(5, 7)),
          [RingContext([]).zero(), RingContext([]).const(Fraction(-3, 2))]))
def test_division_matches_the_reference_in_value_and_order(args):
    g, divisors = args
    cof, rem = division(g, divisors)
    want_cof, want_rem = _reference_division(g, divisors)
    for got, want in zip(cof, want_cof):
        _same_terms(got.terms, want.terms)
    _same_terms(rem.terms, want_rem.terms)
    assert len(cof) == len(divisors)
    acc = rem
    for c, d in zip(cof, divisors):
        acc = acc + c * d
    assert acc == g


def _loop_division(g, divisors, leads):
    """The division loop that ``_reduce`` replaced: one working term dict,
    whose update by q * x^m * d_j includes the cancelled leading term, and
    cofactor dicts written at every step."""
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
            if lt is not None and all(map(le, lt[0], exp)):
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
    return ([Poly(ctx, t) for t in cof], Poly(ctx, rem))


@settings(max_examples=150, deadline=None)
@given(ideals(), st.data())
def test_division_and_normal_form_match_the_loop_they_replaced(gens, data):
    """The same cofactors and remainder, term order included, dividing by
    the generators and by their basis; the normal form is the loop's
    remainder by the basis."""
    ctx = gens[0].ctx
    g = data.draw(rational_polys(ctx, max_deg=4, max_terms=6))
    gb = groebner(gens)
    for divisors in (gens, gb.generators):
        # the leading terms come as packed keys; the loop reads tuples
        leads = [None if lt is None else (ctx.unpack(lt[0]), lt[1])
                 for lt in map(leading_term, divisors)]
        cof, rem = division(g, divisors)
        want_cof, want_rem = _loop_division(g, divisors, leads)
        assert len(cof) == len(want_cof)
        for got, want in zip(cof, want_cof):
            _same_terms(got.terms, want.terms)
        _same_terms(rem.terms, want_rem.terms)
    _same_terms(normal_form(g, gb).terms, want_rem.terms)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CONTEXTS).flatmap(rational_polys))
def test_leading_term_is_the_grlex_largest_term(p):
    """The leading term's key is the largest packed key, and it is the
    grlex-largest exponent tuple."""
    lead = leading_term(p)
    if p.is_zero():
        assert lead is None
        return
    exp = max(p.terms, key=grlex_key)
    assert lead == (p.ctx.pack(exp), p.terms[exp])


def _integral(p: Poly, lead=None) -> Poly:
    """p with each coefficient replaced by its numerator, and the leading
    coefficient by ``lead`` if given."""
    terms = {e: Fraction(c).numerator for e, c in p.terms.items()}
    if lead is not None and terms:
        terms[max(terms, key=grlex_key)] = lead
    return Poly(p.ctx, terms)


def _all_canonical(polys) -> bool:
    return all(canonical_coefficient(c)
               for p in polys for c in p.terms.values())


@settings(max_examples=100, deadline=None)
@given(ideals(), st.data())
def test_leading_coefficients_2_and_3_keep_division_exact(gens, data):
    """Integer generators led by 2 or 3: the quotients by those leading
    coefficients are Fractions (int / int would be a float), and every
    cofactor, remainder and basis coefficient is exact and canonical."""
    gens = [_integral(g, 2 + k % 2) for k, g in enumerate(gens)]
    ctx = gens[0].ctx
    g = _integral(data.draw(poly_strategy(ctx, max_terms=4)))
    cof, rem = division(g, gens)
    assert _all_canonical(cof + [rem])
    acc = rem
    for c, d in zip(cof, gens):
        acc = acc + c * d
    assert acc == g
    for d in gens:
        if not d.is_zero():
            exp = max(d.terms, key=grlex_key)
            (q,), r = division(Poly(ctx, {exp: 1}), [d])
            assert q.terms == {(0,) * len(exp): Fraction(1, d.terms[exp])}
            assert type(q.terms[(0,) * len(exp)]) is Fraction
            assert _all_canonical([r])
    gb = groebner(gens)
    assert _all_canonical(gb.generators)
    assert _all_canonical([c for row in gb.cofactor_log for c in row])
    assert all(type(lc) is int and lc == 1 for _, _, lc, _ in gb.reducers)
    nf = normal_form(g, gb)
    assert _all_canonical([nf])
    assert nf == division(g, gb.generators)[1]


def test_division_rejects_a_divisor_from_another_context():
    with pytest.raises(ContextMismatch):
        division(CTX.gen("x"), [RingContext(["x"]).gen("x")])


@settings(max_examples=25, deadline=None)
@given(divisions())
def test_division_and_normal_form_leave_their_inputs_alone(args):
    g, divisors = args
    before = _snapshot(g, *divisors)
    division(g, divisors)
    if divisors and any(not d.is_zero() for d in divisors):
        normal_form(g, groebner(divisors))
    _unchanged(before)
    assert g.ctx.zero().is_zero()


# -- power membership against its first-written form -------------------------

def _reference_power_membership(v, gb):
    """The first-written loop: divide v, v^2, ..., v^D in full until the
    remainder vanishes."""
    q = gb.quotient
    if not q.finite:
        raise ValueError(f"infinite quotient: no power of {q.witness} "
                         f"lies in the ideal")
    D = q.dimension
    x = gb.ctx.gen(v)
    for a in range(1, max(D, 1) + 1):
        cof_gb, rem = division(x ** a, gb.generators)
        if rem.is_zero():
            cof = [gb.ctx.zero() for _ in gb.original_gens]
            for c, row in zip(cof_gb, gb.cofactor_log):
                for j, r in enumerate(row):
                    cof[j] = cof[j] + c * r
            return a, cof
    raise ValueError(f"{v} is not nilpotent: {v}^{D} is not in the "
                     f"ideal, whose quotient has dimension D = {D}")


def _outcome(fn, v, gb):
    try:
        return fn(v, gb)
    except ValueError as exc:
        return str(exc)


_CX = RingContext(["x"])


@settings(max_examples=120, deadline=None)
@given(ideals())
@example([parse_poly("x^2 - y^2", _CXY), parse_poly("x*y", _CXY)])
@example([parse_poly("x^2 - 1", _CXY), parse_poly("y", _CXY)])
@example([parse_poly("x^3", _CXY)])
@example([parse_poly("x - x^2", _CX)])
@example([parse_poly(f, RingContext(["x", "y", "z"]))
          for f in ("3*x^2*y + z^3", "3*y^2*z + x^3", "3*z^2*x + y^3")])
def test_power_membership_matches_the_reference(gens):
    gb = groebner(gens)
    for v in gb.ctx.names:
        got = _outcome(power_membership, v, gb)
        want = _outcome(_reference_power_membership, v, gb)
        if isinstance(want, str):
            assert got == want
            continue
        assert got[0] == want[0] and len(got[1]) == len(want[1])
        for c, w in zip(got[1], want[1]):
            _same_terms(c.terms, w.terms)
        assert _check_lift(got[1], gb.ctx.gen(v) ** got[0], gb).is_zero()


# -- the cofactor lift against its expansion over Q --------------------------

def _lift_over_q(cof_gb, gb):
    """sum_k cof_gb[k] * cofactor_log[k][j] on term dicts, as first
    written: each product formed, then added in k order."""
    out = [{} for _ in gb.original_gens]
    for c, row in zip(cof_gb, gb.cofactor_log):
        for j, a in enumerate(row):
            if c.packed and a.packed:
                out[j] = _terms_add(out[j], _terms_mul(c.packed, a.packed))
    return out


def _check_lift(got, g, gb):
    """The cofactors ``got`` of g over the original generators: those of
    the expansion over Q in value and term order, and g minus its normal
    form is their combination, exactly."""
    cof_gb, rem = division(g, gb.generators)
    for c, w in zip(got, _lift_over_q(cof_gb, gb)):
        _same_terms(c.terms, _view(gb.ctx, w))
    acc = gb.ctx.zero()
    for c, f in zip(got, gb.original_gens):
        acc = acc + c * f
    assert acc == g - rem
    return rem


def _corpus_ideals():
    """The Jacobi ideals of the corpus potentials, the Klein quartic and the
    Fermat cubic."""
    c3 = RingContext(["x", "y", "z"])
    x, y, z = (c3.gen(n) for n in c3.names)
    pots = list(corpus_potentials().values()) + [
        x ** 3 * y + y ** 3 * z + z ** 3 * x, x ** 3 + y ** 3 + z ** 3]
    return [[partial_derivative(W, n) for n in W.ctx.names] for W in pots]


def test_corpus_cofactors_lift_like_the_expansion_over_q():
    for gens in _corpus_ideals():
        gb = groebner(gens)
        for v in gb.ctx.names:
            a, cof = power_membership(v, gb)
            assert _check_lift(cof, gb.ctx.gen(v) ** a, gb).is_zero()
        for text in ("1", "x^4", "x^2 - 1/3*x + 5"):
            g = parse_poly(text, gb.ctx)
            cof, rem = membership_with_cofactors(g, gens)
            assert _check_lift(cof, g, gb) == rem


@st.composite
def ideals_and_polys(draw):
    gens = draw(ideals())
    return gens, draw(rational_polys(gens[0].ctx, max_deg=4, max_terms=6))


@settings(max_examples=100, deadline=None)
@given(ideals_and_polys())
# a running sum of the lift passes through zero inside one product, which a
# multiply-accumulate into the sum would show by moving that term
@example(([parse_poly("x^3*y^2 + 1", _CXY),
           parse_poly("x^2*y^3 + x*y + 1", _CXY)],
          parse_poly("x*y^3", _CXY)))
def test_membership_with_cofactors_lifts_like_the_expansion_over_q(args):
    gens, g = args
    cof, rem = membership_with_cofactors(g, gens)
    assert _check_lift(cof, g, groebner(gens)) == rem
