"""Polynomial arithmetic, difference quotients, text grammar."""

import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmf.adjunction import _project
from lgmf.residue import DenominatorError, ResidueQuery, grothendieck_residue
from lgmf import polymat
from lgmf.ring import (LIMIT, ContextMismatch, ExponentOverflow, ParseError,
                       Poly, RingContext, UnknownVariable, _difference_step,
                       _remap, _restrict,
                       _terms_add, _terms_iadd, _terms_mul,
                       _terms_scale, _tokenize,
                       divided_difference, embed,
                       embed_matrix, format_poly, parse_poly,
                       partial_derivative, rename, rename_matrix, substitute)
from lgmf.unit import _try_restrict

from conftest import canonical_coefficient


def grlex_key(exp):
    """Graded-lexicographic sort key of an exponent tuple (largest first
    when reverse-sorted): the order of packed keys."""
    return (sum(exp), exp)


def doubled(n):
    names = [f"x{i}" for i in range(1, n + 1)]
    primes = [f"x{i}'" for i in range(1, n + 1)]
    ctx = RingContext(names + primes)
    pairs = list(zip(names, primes))
    return ctx, names, primes, pairs


def poly_strategy(ctx, names=None, max_deg=3, max_terms=5):
    """Random sparse polynomials supported on the given variables."""
    names = list(ctx.names) if names is None else names
    idx = [ctx.index(n) for n in names]

    def build(pairs):
        terms = {}
        for exps, num, den in pairs:
            full = [0] * len(ctx.names)
            for k, e in zip(idx, exps):
                full[k] = e
            c = Fraction(num, den)
            if c:
                key = tuple(full)
                terms[key] = terms.get(key, Fraction(0)) + c
        return ctx.poly({k: v for k, v in terms.items() if v})

    entry = st.tuples(
        st.tuples(*[st.integers(0, max_deg) for _ in names]),
        st.integers(-9, 9), st.integers(1, 4))
    return st.lists(entry, max_size=max_terms).map(build)


# -- ring axioms -------------------------------------------------------------

CTX3 = RingContext(["x", "y", "z"])


@given(poly_strategy(CTX3), poly_strategy(CTX3), poly_strategy(CTX3))
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + CTX3.zero() == p
    assert p * CTX3.one() == p


@given(poly_strategy(CTX3), poly_strategy(CTX3), st.integers(-3, 3),
       st.integers(0, 3))
def test_arithmetic_results_are_canonical(p, q, c, k):
    results = [p + q, p - q, -p, p * q, p * c, p * Fraction(c, 2), c + p,
               c - p, p ** k, CTX3.zero(), RingContext([]).zero()]
    for r in results:
        assert r == Poly(r.ctx, r.terms)
        assert all(type(e) is tuple and len(e) == len(r.ctx.names)
                   for e in r.terms)
        assert all(canonical_coefficient(v) for v in r.terms.values())
        assert r.terms is not p.terms and r.terms is not q.terms


@given(poly_strategy(CTX3))
def test_format_parse_round_trip(p):
    assert parse_poly(format_poly(p), CTX3) == p


def _reference_parse_poly(text, ctx):
    """The first-written parser: every subexpression is a Poly."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]][0]

    def take(kind=None):
        k, v = tokens[pos[0]]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, found {v!r} (token {pos[0]})")
        pos[0] += 1
        return v

    def parse_atom():
        k = peek()
        if k == "int":
            num = int(take())
            if peek() == "/":
                take()
                den = int(take("int"))
                return ctx.const(Fraction(num, den))
            return ctx.const(num)
        if k == "var":
            name = take()
            if name not in ctx.names:
                raise ParseError(
                    f"unknown variable {name!r} in context {ctx.names}")
            return ctx.gen(name)
        if k == "(":
            take()
            p = parse_sum()
            take(")")
            return p
        raise ParseError(f"unexpected token {tokens[pos[0]][1]!r}")

    def parse_power():
        base = parse_atom()
        if peek() == "^":
            take()
            if peek() == "-":
                raise ParseError("negative exponents are not supported")
            base = base ** int(take("int"))
        return base

    def parse_product():
        p = parse_power()
        while peek() in ("*", "var", "("):
            if peek() == "*":
                take()
            p = p * parse_power()
        return p

    def parse_sum():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        p = parse_product() * sign
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if take() == "-":
                    sign = -sign
            p = p + parse_product() * sign
        return p

    out = parse_sum()
    if peek() != "end":
        raise ParseError(f"trailing input at token {tokens[pos[0]][1]!r}")
    return out


def _expressions():
    """Expression text in the grammar, with the occasional stray token."""
    number = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.sampled_from([1, 2, 3, 4, 5] * 6
                                                     + [0])).map(
            lambda t: f"{t[0]}/{t[1]}"))
    var = st.sampled_from(["x", "y", "z"] * 6 + ["w"])
    atom = st.one_of(var, var, number)

    def power(base):
        return st.one_of(
            base,
            st.tuples(base, st.sampled_from(["0", "1", "2", "3"] * 6
                                            + ["-1", ""]))
            .map(lambda t: f"{t[0]}^{t[1]}"))

    def product(factor):
        sep = st.sampled_from(["*"] * 8 + [" * "] * 4 + [" "] * 2 + [""])
        return st.lists(st.tuples(sep, power(factor)), min_size=1,
                        max_size=3).map(
            lambda fs: fs[0][1] + "".join(op + f for op, f in fs[1:]))

    def signed_sum(term):
        sign = st.sampled_from(["", "", "-", "+", "--", "+-", " - "])
        return st.lists(st.tuples(sign, product(term)), min_size=1,
                        max_size=3).map(
            lambda ts: ts[0][0] + ts[0][1] + "".join(
                (s or "+") + t for s, t in ts[1:]))

    expr = st.recursive(atom, lambda inner: signed_sum(
        st.one_of(inner, inner.map(lambda e: f"({e})"))), max_leaves=12)
    stray = st.sampled_from([""] * 30 + [")", "(", "*", "^2", "$", " 3"])
    return st.tuples(expr, stray).map(lambda t: t[0] + t[1])


@settings(max_examples=400, deadline=None)
@given(_expressions())
@example("4/2*x")
@example("3/2*2*x")
@example("x*x^2*x")
@example("0^0")
@example("x^0*0")
@example("2(x+y)^2")
@example("3/2^2")
@example("(x-x)^0")
@example("0/5*x")
@example("x 2")
def test_parse_poly_agrees_with_poly_built_reference(text):
    try:
        want = _reference_parse_poly(text, CTX3)
    except ZeroDivisionError:
        # the reference crashes on a p/0 coefficient; the grammar refuses it
        with pytest.raises(ParseError, match="zero denominator in"):
            parse_poly(text, CTX3)
        return
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_poly(text, CTX3)
        assert str(err.value) == str(exc)
        return
    got = parse_poly(text, CTX3)
    assert got == want
    assert all(canonical_coefficient(c) for c in got.terms.values())
    # same term order, so every downstream column order is unchanged too
    assert list(got.terms) == list(want.terms)


@st.composite
def _expression_pairs(draw, depth=2):
    """A valid expression, built at once as grammar text and as the sympy
    expression it denotes: a signed sum of products of powers, with
    juxtaposition, p/q literals and parenthesised sums."""
    syms = {n: sympy.Symbol(n) for n in CTX3.names}

    def atom():
        kind = draw(st.sampled_from(["int", "frac", "var", "var", "group"]
                                    if depth else ["int", "frac", "var"]))
        if kind == "int":
            n = draw(st.integers(0, 12))
            return str(n), sympy.Integer(n)
        if kind == "frac":
            p, q = draw(st.integers(0, 9)), draw(st.integers(1, 6))
            return f"{p}/{q}", sympy.Rational(p, q)
        if kind == "var":
            name = draw(st.sampled_from(CTX3.names))
            return name, syms[name]
        text, expr = draw(_expression_pairs(depth - 1))
        return f"({text})", expr

    def power():
        text, expr = atom()
        k = draw(st.sampled_from([None, None, 0, 1, 2, 3]))
        if k is None:
            return text, expr
        return f"{text}^{k}", expr ** k

    def product():
        text, expr = power()
        for _ in range(draw(st.integers(0, 2))):
            t, e = power()
            # juxtaposition needs a variable or "(" next; after a variable
            # name, a blank keeps two names apart
            if t[0].isalpha() or t[0] == "(":
                sep = draw(st.sampled_from(["*", " * ", " ", ""]))
                if not sep and text[-1].isalpha() and t[0].isalpha():
                    sep = " "
            else:
                sep = draw(st.sampled_from(["*", " * "]))
            text, expr = text + sep + t, expr * e
        return text, expr

    text, expr = "", sympy.Integer(0)
    for k in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(["", "-", "+", "--", "+-", " - "]
                                    if k == 0 else
                                    ["+", "-", " + ", " - ", "--", "-+"]))
        t, e = product()
        text += sign + t
        expr += (-1) ** sign.count("-") * e
    return text, expr


@settings(max_examples=200, deadline=None)
@given(_expression_pairs())
@example(("2x(y - z)^2 - -3/4x^0", 2 * sympy.Symbol("x")
          * (sympy.Symbol("y") - sympy.Symbol("z")) ** 2
          + sympy.Rational(3, 4)))
def test_parse_poly_agrees_with_sympy(pair):
    """An oracle that shares neither the tokenizer nor the parser."""
    text, expr = pair
    got = parse_poly(text, CTX3)
    syms = [sympy.Symbol(n) for n in CTX3.names]
    want = sympy.Poly(sympy.expand(expr), *syms, domain="QQ")
    assert got.terms == {exp: Fraction(int(c.p), int(c.q))
                         for exp, c in want.terms() if c}
    assert all(canonical_coefficient(c) for c in got.terms.values())


def test_integral_coefficients_are_ints_and_scalars_are_fractions():
    x = CTX3.gen("x")
    cases = [CTX3.const(Fraction(4, 2)), CTX3.const(True), CTX3.const(2.0),
             Poly(CTX3, {(0, 0, 0): Fraction(6, 3)}), parse_poly("6/3", CTX3),
             parse_poly("2/3*x * 3/2", CTX3), x * Fraction(1, 2) * 4,
             x * Fraction(1, 2) + x * Fraction(3, 2),
             (x + Fraction(1, 2)) * (x - Fraction(1, 2)) + Fraction(1, 4)]
    for p in cases:
        assert all(type(c) is int for c in p.terms.values()), p.terms
    assert CTX3.const(Fraction(5, 2)).terms[(0, 0, 0)] == Fraction(5, 2)
    for c in (0, 3, -1, Fraction(1, 2)):
        v = CTX3.const(c).constant_value()
        assert type(v) is Fraction and v == c


# -- difference quotients ----------------------------------------------------

def _prime_through(p, pairs, k):
    """Replace the first k unprimed variables by their primes."""
    return substitute(p, {u: pr for u, pr in pairs[:k]})


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=100)
@given(data=st.data())
def test_leibniz_rule(n, data):
    ctx, names, primes, pairs = doubled(n)
    f = data.draw(poly_strategy(ctx, names))
    g = data.draw(poly_strategy(ctx, names))
    for i in range(1, n + 1):
        lhs = divided_difference(f * g, i, pairs)
        rhs = (divided_difference(f, i, pairs) * _prime_through(g, pairs, i)
               + _prime_through(f, pairs, i - 1)
               * divided_difference(g, i, pairs))
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=100)
@given(data=st.data())
def test_telescoping(n, data):
    ctx, names, primes, pairs = doubled(n)
    f = data.draw(poly_strategy(ctx, names))
    total = ctx.zero()
    for i in range(1, n + 1):
        u, pr = pairs[i - 1]
        total = total + (ctx.gen(u) - ctx.gen(pr)) * divided_difference(
            f, i, pairs)
    assert total == f - _prime_through(f, pairs, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_collapse_to_partial_derivative(n, data):
    ctx, names, primes, pairs = doubled(n)
    f = data.draw(poly_strategy(ctx, names))
    collapse = {pr: u for u, pr in pairs}
    for i in range(1, n + 1):
        got = substitute(divided_difference(f, i, pairs), collapse)
        assert got == partial_derivative(f, names[i - 1])


@settings(max_examples=100)
@given(data=st.data())
def test_ordered_identity_permutation_agrees(data):
    """Priming in another order is divided_difference over the reordered
    pairs, which is the identity order over the relabelled variables; the
    identity permutation changes nothing."""
    ctx, names, primes, pairs = doubled(3)
    f = data.draw(poly_strategy(ctx, names))
    for order in itertools.permutations(range(3)):
        moved = [pairs[k] for k in order]
        relabel = {}
        for (u, pr), (mu, mpr) in zip(pairs, moved):
            relabel.update({mu: u, mpr: pr})
        back = {v: k for k, v in relabel.items()}
        for i in range(1, 4):
            want = rename(divided_difference(rename(f, relabel), i, pairs),
                          back)
            assert divided_difference(f, i, moved) == want


def test_ordered_swapped_example():
    ctx, names, primes, pairs = doubled(2)
    f = ctx.gen("x1") * ctx.gen("x2")
    # with the order (2 1), x2 is substituted before x1
    swapped = pairs[::-1]
    assert divided_difference(f, 2, swapped) == ctx.gen("x2'")
    assert divided_difference(f, 1, swapped) == ctx.gen("x1")


def test_ordered_constant_vanishes():
    ctx, names, primes, pairs = doubled(2)
    c = ctx.const(Fraction(7, 3))
    for i in (1, 2):
        assert divided_difference(c, i, pairs[::-1]).is_zero()


def _sympy_of(p, syms):
    return sympy.Add(*[sympy.Rational(Fraction(c).numerator,
                                      Fraction(c).denominator)
                       * sympy.Mul(*[s ** e for s, e in zip(syms, exp)])
                       for exp, c in p.terms.items()])


@settings(max_examples=150)
@given(data=st.data())
def test_difference_step_is_substitution_and_exact_quotient(data):
    """_difference_step(p, u, v) = (p(u:=v), q) with (u - v) * q =
    p - p(u:=v), q sympy's cancelled quotient, on p whose terms may already
    contain v."""
    ctx, names, primes, pairs = doubled(2)
    p = data.draw(poly_strategy(ctx, max_deg=4, max_terms=6))
    u, v = data.draw(st.sampled_from(pairs))
    sub, q = _difference_step(p, u, v)
    assert sub == substitute(p, {u: v})
    assert (ctx.gen(u) - ctx.gen(v)) * q == p - sub
    assert all(canonical_coefficient(c)
               for r in (sub, q) for c in r.terms.values())
    syms = [sympy.Symbol(n) for n in ctx.names]
    su, sv = syms[ctx.index(u)], syms[ctx.index(v)]
    want = sympy.cancel((_sympy_of(p, syms) - _sympy_of(sub, syms))
                        / (su - sv))
    assert sympy.expand(want - _sympy_of(q, syms)) == 0


# -- contexts, renaming, errors ----------------------------------------------

def test_embed_and_context_errors():
    small = RingContext(["x"])
    big = RingContext(["x", "y"])
    p = small.gen("x") ** 2
    q = embed(p, big)
    assert q.ctx == big and q == big.gen("x") ** 2
    with pytest.raises((ContextMismatch, UnknownVariable, KeyError)):
        embed(big.gen("y"), small)
    with pytest.raises(ContextMismatch):
        small.gen("x") + big.gen("y")


def test_rename_injectivity_enforced():
    ctx = RingContext(["x", "y"])
    p = ctx.gen("x") + ctx.gen("y")
    assert rename(p, {"x": "y", "y": "x"}) == p
    with pytest.raises(ValueError):
        rename(p, {"x": "y"})
    # merging substitution is the non-injective counterpart
    assert substitute(p, {"x": "y"}) == 2 * ctx.gen("y")


def test_grammar_rational_coefficients():
    ctx = RingContext(["x"])
    assert parse_poly("3/2*x - 1/2*x", ctx) == ctx.gen("x")
    assert parse_poly("x^3-2*x+1", ctx) == parse_poly(
        " x^3 - 2*x + 1 ", ctx)


# -- the exponent-remapping primitive ----------------------------------------

CTX4 = RingContext(["x", "y", "z", "w"])


@given(poly_strategy(CTX3), st.permutations(list(CTX4.names)))
def test_restrict_inverts_embed(p, names):
    bigger = RingContext(names + ["t"])
    assert _restrict(embed(p, bigger), CTX3) == p


@given(poly_strategy(CTX4), st.permutations(list(CTX4.names)))
def test_rename_by_permutation_then_inverse(p, image):
    perm = dict(zip(CTX4.names, image))
    inverse = {v: k for k, v in perm.items()}
    assert rename(rename(p, perm), inverse) == p


@given(poly_strategy(CTX3, names=["x", "y"]), st.integers(1, 3))
def test_restrict_of_dropped_variable_fails_three_ways(p, e):
    p = p + CTX3.gen("z") ** e
    sub = RingContext(["x", "y"])
    assert _restrict(p, sub) is None
    with pytest.raises(DenominatorError):
        grothendieck_residue(ResidueQuery(CTX3.one(), [p, p], ["x", "y"]))
    with pytest.raises(ContextMismatch):
        _project(p, sub)
    assert _try_restrict(p, sub) is p


@given(poly_strategy(CTX4), st.lists(st.sampled_from(CTX4.names),
                                     min_size=4, max_size=4))
def test_merging_substitute_agrees_with_sympy(p, image):
    mapping = dict(zip(CTX4.names, image))
    syms = {n: sympy.Symbol(n) for n in CTX4.names}
    want = sympy.sympify(format_poly(p).replace("^", "**"), locals=syms)
    want = want.subs({syms[k]: syms[v] for k, v in mapping.items()},
                     simultaneous=True)
    got = substitute(p, mapping)
    assert sympy.expand(want - sympy.sympify(
        format_poly(got).replace("^", "**"), locals=syms)) == 0


# -- the term kernels against their first-written forms ----------------------

def _reference_terms_mul(a, b):
    """The first-written product: a Fraction multiply and add per pair."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            s = out.get(exp)
            if s is None:
                out[exp] = c
            else:
                s = s + c
                if s:
                    out[exp] = s
                else:
                    del out[exp]
    return out


def _reference_remap(p, ctx, positions):
    """The first-written exponent remap: every result validated by Poly."""
    dropped = [k for k, pos in enumerate(positions) if pos is None]
    if dropped and any(exp[k] for exp in p.terms for k in dropped):
        return None
    kept = [(k, pos) for k, pos in enumerate(positions) if pos is not None]
    width = len(ctx.names)
    out = {}
    for exp, c in p.terms.items():
        new = [0] * width
        for k, pos in kept:
            new[pos] += exp[k]
        key = tuple(new)
        s = out.get(key)
        out[key] = c if s is None else s + c
    return Poly(ctx, out)


def _reference_pow(p, k):
    """The first-written binary power, which starts from ctx.one()."""
    out = p.ctx.one()
    base = p
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


def _view(ctx, packed):
    """A packed term dict as exponent tuples, in its term order."""
    return {ctx.unpack(k): c for k, c in packed.items()}


def _same_terms(got, want):
    """Equal values and identical term order, with canonical coefficients."""
    assert list(got.items()) == list(want.items())
    assert all(canonical_coefficient(c) for c in got.values())


def rational_polys(ctx, max_deg=2, max_terms=6):
    """Polynomials with mixed denominators and few monomials, so that
    products and reductions often cancel a monomial and bring it back."""
    coeff = st.one_of(
        st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                         Fraction(-1, 2)]),
        st.fractions(min_value=-6, max_value=6, max_denominator=12))
    return st.lists(
        st.tuples(st.tuples(*[st.integers(0, max_deg) for _ in ctx.names]),
                  coeff),
        max_size=max_terms).map(lambda ts: Poly(ctx, dict(ts)))


CONTEXTS = [RingContext([]), RingContext(["x"]), RingContext(["x", "y"]),
            CTX3]


@st.composite
def poly_pairs(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    return draw(rational_polys(ctx)), draw(rational_polys(ctx))


_CX = RingContext(["x"])
# (1 + x + x^2)(x^2 - x + 1): x^2 and x cancel, then x^2 comes back
_CANCEL_RETURN = (parse_poly("1 + x + x^2", _CX),
                  parse_poly("x^2 - x + 1", _CX))


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
@example(_CANCEL_RETURN)
@example((_CX.zero(), _CANCEL_RETURN[0]))
@example((RingContext([]).const(Fraction(3, 4)),
          RingContext([]).const(Fraction(-2, 9))))
def test_terms_mul_matches_the_reference_in_value_and_order(pq):
    p, q = pq
    _same_terms(_view(p.ctx, _terms_mul(p.packed, q.packed)),
                _reference_terms_mul(p.terms, q.terms))
    _same_terms((p * q).terms, _reference_terms_mul(p.terms, q.terms))


@st.composite
def term_and_poly(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    term = draw(rational_polys(ctx, max_terms=1).filter(
        lambda t: not t.is_zero()))
    return term, draw(rational_polys(ctx))


@settings(max_examples=60, deadline=None)
@given(term_and_poly())
@example((parse_poly("-1/2*x", _CX), parse_poly("2*x + 4 - 1/3*x^2", _CX)))
@example((parse_poly("3", _CX), parse_poly("x + 1", _CX)))
def test_a_one_term_factor_keeps_the_other_factors_order(tp):
    """A term times p (either side) shifts and scales p's terms in p's
    order, with canonical coefficients."""
    t, p = tp
    want = _reference_terms_mul(t.terms, p.terms)
    assert list(want) == [tuple(x + y for x, y in zip(next(iter(t.terms)), e))
                          for e in p.terms]
    for a, b in ((t, p), (p, t)):
        _same_terms(_view(t.ctx, _terms_mul(a.packed, b.packed)), want)


def test_terms_mul_cancels_and_brings_a_monomial_back():
    p, q = _CANCEL_RETURN
    got = p * q
    assert got == parse_poly("x^4 + x^2 + 1", _CX)
    # x^2 is deleted on cancelling and re-inserted after x^4
    assert list(got.terms) == [(0,), (4,), (2,)]


@st.composite
def remaps(draw):
    """A polynomial and a position per variable: merging (x' -> x),
    dropped (None) and permuted variables, in a target of any width."""
    src = draw(st.sampled_from(CONTEXTS + [doubled(2)[0]]))
    width = draw(st.integers(0, 4))
    target = RingContext([f"t{i}" for i in range(width)])
    slots = list(range(width)) + [None]
    positions = [draw(st.sampled_from(slots)) for _ in src.names]
    return draw(rational_polys(src)), target, positions


@settings(max_examples=100, deadline=None)
@given(remaps())
@example((parse_poly("x1*x2' - x1'*x2 + 1/3*x1", doubled(2)[0]),
          RingContext(["x1", "x2"]), [0, 1, 0, 1]))
def test_remap_matches_the_reference_in_value_and_order(args):
    p, ctx, positions = args
    got, want = _remap(ctx, positions)(p), _reference_remap(p, ctx, positions)
    if want is None:
        assert got is None
        return
    assert got.ctx is ctx
    _same_terms(got.terms, want.terms)


def test_remap_of_zero_is_the_shared_zero():
    ctx2, _, _, pairs = doubled(2)
    small = RingContext(["x1", "x2"])
    assert _remap(small, [0, 1, None, None])(ctx2.zero()) is small.zero()
    merge = {pr: u for u, pr in pairs}
    assert substitute(Poly(ctx2, {}), merge) is ctx2.zero()
    assert embed(small.zero(), ctx2) is ctx2.zero()
    assert rename(small.zero(), {"x1": "x2", "x2": "x1"}) is small.zero()
    # a merge that cancels every monomial: x1 - x1' under x1' -> x1
    p = ctx2.gen("x1") - ctx2.gen("x1'")
    assert substitute(p, {"x1'": "x1"}).is_zero()


# the scalars 1 and -1 (int or Fraction) and 0 take the kernel's shortcuts
_SCALARS = st.one_of(
    st.sampled_from([1, -1, 0, Fraction(1), Fraction(-1), Fraction(0)]),
    st.integers(-3, 3),
    st.fractions(min_value=-6, max_value=6, max_denominator=12))


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), _SCALARS)
def test_terms_scale_matches_term_by_term_products(pq, c):
    p = pq[0]
    got = _terms_scale(p.packed, c)
    want = {exp: v * c for exp, v in p.terms.items()} if c else {}
    assert got is not p.packed
    _same_terms(_view(p.ctx, got), want)
    _same_terms((p * c).terms, want)
    if c == -1:
        _same_terms((-p).terms, want)


# entries of one matrix in several source contexts, zeros among them
_SOURCES = [RingContext(["x"]), RingContext(["x", "y"]),
            RingContext(["y", "x"]), RingContext(["x", "y", "x'", "y'"])]
_XY, _DOUBLED = RingContext(["x", "y"]), RingContext(["y'", "x", "x'", "y"])
# (per-entry map, matrix map, arguments): mappings that hold on some
# sources and raise on others (unknown names, non-injective renamings)
_MATRIX_MAPS = [
    (embed, embed_matrix, (_DOUBLED,)),
    (embed, embed_matrix, (_XY,)),
    (rename, rename_matrix, ({"x": "x'", "y": "y'"}, _DOUBLED)),
    (rename, rename_matrix, ({"x": "y", "y": "x"},)),
    (rename, rename_matrix, ({"x": "y"},)),
]


@st.composite
def mixed_matrices(draw):
    def entry():
        ctx = draw(st.sampled_from(_SOURCES))
        kind = draw(st.sampled_from(["poly", "shared zero", "fresh zero"]))
        if kind == "shared zero":
            return ctx.zero()
        if kind == "fresh zero":
            return Poly(ctx, {})
        return draw(rational_polys(ctx))
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _outcome(f):
    try:
        return f()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(mixed_matrices(), st.sampled_from(range(len(_MATRIX_MAPS))))
# embed_matrix into _XY: every entry already there, then one entry not
@example([[_XY.gen("x"), _XY.zero()], [_XY.one(), _XY.gen("y")]], 1)
@example([[_XY.gen("x"), _XY.zero()], [RingContext(["y"]).gen("y"),
                                       _XY.gen("y")]], 1)
def test_matrix_remap_equals_the_per_entry_maps(mat, which):
    one, many, args = _MATRIX_MAPS[which]
    want = _outcome(lambda: [[one(e, *args) for e in row] for row in mat])
    got = _outcome(lambda: many(mat, *args))
    if isinstance(want, tuple):         # the same exception, same text
        assert got == want
        return
    if many is embed_matrix and all(e.ctx is args[0] for row in mat
                                    for e in row):
        assert got is mat               # already in the context: no copy
        return
    assert got is not mat and len(got) == len(want)
    for src, grow, wrow in zip(mat, got, want, strict=True):
        assert grow is not src
        for e, g, w in zip(src, grow, wrow, strict=True):
            assert g.ctx == w.ctx and (g is e) == (w is e)
            _same_terms(g.terms, w.terms)


def test_matrix_rename_refuses_a_non_injective_map():
    mat = [[_XY.gen("x"), _XY.zero()]]
    with pytest.raises(ValueError) as per_entry:
        rename(_XY.zero(), {"x": "y"})
    with pytest.raises(ValueError) as whole:
        rename_matrix(mat, {"x": "y"})
    assert str(whole.value) == str(per_entry.value)
    assert "not injective" in str(whole.value)


@pytest.mark.parametrize("ctx", CONTEXTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_pow_matches_repeated_multiplication(ctx, data):
    p = data.draw(rational_polys(ctx, max_terms=3))
    acc = ctx.one()
    for k in range(7):
        got = p ** k
        assert got == acc
        _same_terms(got.terms, _reference_pow(p, k).terms)
        assert got.terms is not p.terms
        acc = acc * p


# -- the shared zero ---------------------------------------------------------

def test_each_context_has_one_zero():
    for ctx in CONTEXTS:
        z = ctx.zero()
        assert z is ctx.zero() and z.is_zero() and z.ctx is ctx
        assert ctx.const(0) is z
        fresh = Poly(ctx, {})
        assert fresh is not z and fresh.terms is not z.terms
        assert fresh == z and hash(fresh) == hash(z)
    # equal contexts still own distinct zeros, which compare equal
    assert RingContext(["x"]).zero() == _CX.zero()


def test_extending_by_known_names_keeps_the_context():
    ctx = RingContext(["x", "y"])
    assert ctx.extend(["y", "x"]) is ctx
    assert ctx.merge(RingContext(["y"])) is ctx
    assert ctx.merge(RingContext(["x", "y"])) is ctx
    wider = ctx.merge(RingContext(["z", "x"]))
    assert wider.names == ("x", "y", "z") and wider.zero() is not ctx.zero()


def test_contexts_compare_by_identity_then_by_names(monkeypatch):
    """Operands holding one context object skip the name comparison;
    equal but distinct contexts still combine, unequal ones raise."""
    a, b = RingContext(["x", "y"]), RingContext(["x", "y"])
    p, q = a.gen("x") + 1, b.gen("y") * 2
    assert (p + q).ctx is a and (p * q).ctx is a and p - q == p + (-q)
    assert p == a.gen("x") + b.const(1)
    with pytest.raises(ContextMismatch):
        p + RingContext(["y", "x"]).gen("y")
    with pytest.raises(ContextMismatch):
        p * RingContext(["x"]).gen("x")
    assert p != RingContext(["y", "x"]).gen("x") + 1
    compared = []
    eq = RingContext.__eq__

    def counting(self, other):
        compared.append(other)
        return eq(self, other)
    monkeypatch.setattr(RingContext, "__eq__", counting)
    r = p * p + p - p
    assert r == p * p and r.ctx is a
    assert compared == []
    assert p + q == q + p
    assert compared


def _snapshot(*polys):
    return [(p.packed, list(p.packed.items())) for p in polys]


def _unchanged(before):
    for terms, items in before:
        assert list(terms.items()) == items


@settings(max_examples=30, deadline=None)
@given(poly_pairs(), st.integers(-3, 3), st.integers(0, 3))
def test_no_operation_mutates_its_inputs(pq, c, k):
    p, q = pq
    ctx = p.ctx
    z = ctx.zero()
    for a, b in ((p, q), (p, z), (z, p), (z, z)):
        before = _snapshot(a, b)
        a + b, a - b, a * b, -a, a * c, c * a, c - a, a ** k, a == b, hash(a)
        _terms_add(a.packed, b.packed), _terms_mul(a.packed, b.packed)
        _terms_iadd(dict(a.packed), b.packed)
        _terms_scale(a.packed, Fraction(c, 2))
        big = ctx.doubled()
        lifted = embed(a, big)
        swap = {n: f"{n}'" for n in ctx.names}
        swap.update({f"{n}'": n for n in ctx.names})
        back = rename(lifted, swap)
        substitute(back, {f"{n}'": n for n in ctx.names})
        _restrict(back, ctx)
        _unchanged(before)
    assert not z.packed


# -- packed keys: order, division, sums and the field edge -------------------

@st.composite
def exponent_pairs(draw):
    """Two exponent tuples of one context (0 to 3 variables) whose sum is a
    valid monomial, some near the field edge."""
    ctx = draw(st.sampled_from(CONTEXTS))
    n = len(ctx.names)
    top = draw(st.sampled_from([3, LIMIT - 1]))
    a = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    while sum(a) + sum(b) >= LIMIT:
        a, b = [e // 2 for e in a], [e // 2 for e in b]
    return ctx, tuple(a), tuple(b)


@settings(max_examples=300, deadline=None)
@given(exponent_pairs())
@example((RingContext([]), (), ()))
@example((RingContext(["x", "y"]), (LIMIT - 1, 0), (0, 0)))
@example((RingContext(["x", "y"]), (1, 0), (0, 1)))
def test_packed_keys_order_divide_and_add_like_exponent_tuples(args):
    ctx, a, b = args
    ka, kb = ctx.pack(a), ctx.pack(b)
    assert ctx.unpack(ka) == a and ctx.unpack(kb) == b
    assert (ka < kb) == (grlex_key(a) < grlex_key(b))
    assert (ka == kb) == (a == b)
    assert ctx.divides(ka, kb) == all(x <= y for x, y in zip(a, b))
    assert not (kb - ka) & ctx._guard == ctx.divides(ka, kb)
    assert ka + kb == ctx.pack(tuple(x + y for x, y in zip(a, b)))
    assert ctx.lcm(ka, kb) == ctx.pack(tuple(map(max, a, b)))
    assert ctx.degree(ka) == sum(a)
    assert (ka < ctx.lowest(sum(b))) == (sum(a) < sum(b))


def test_the_field_edge_of_the_parser():
    cx, cxy = RingContext(["x"]), RingContext(["x", "y"])
    assert parse_poly(f"x^{LIMIT - 1}", cx).terms == {(LIMIT - 1,): 1}
    assert parse_poly(f"x^{LIMIT - 2}*y", cxy).terms == {(LIMIT - 2, 1): 1}
    # a variable's field and the degree field
    for text, ctx in ((f"x^{LIMIT}", cx), (f"2*x^{LIMIT}*y", cxy),
                      (f"x^{LIMIT - 1}*y", cxy),
                      (f"x^{LIMIT // 2}*x^{LIMIT // 2}", cx),
                      (f"(x + 1)*x^{LIMIT - 1}", cx), (f"(x)^{LIMIT}", cx),
                      (f"x^{10 ** 30}", cx)):
        with pytest.raises(ExponentOverflow, match="passes the limit"):
            parse_poly(text, ctx)
    with pytest.raises(ExponentOverflow):
        Poly(cx, {(LIMIT,): 1})
    with pytest.raises(ValueError, match="negative"):
        Poly(cx, {(-1,): 1})


def test_a_product_past_the_field_edge_raises():
    cx, cxy = RingContext(["x"]), RingContext(["x", "y"])
    edge = cx.gen("x") ** (LIMIT - 1)
    assert (cx.gen("x") ** (LIMIT - 2) * cx.gen("x")) == edge
    assert edge * cx.const(3) == 3 * edge
    high = cxy.gen("x") ** (LIMIT - 1)
    for f, g in ((edge, cx.gen("x")), (edge, edge + 1),
                 (high, cxy.gen("y")), (cxy.gen("y") + 1, high)):
        with pytest.raises(ExponentOverflow):
            f * g
        with pytest.raises(ExponentOverflow):
            polymat.mat_mul([[f]], [[g]])
    with pytest.raises(ExponentOverflow):
        cx.gen("x") ** LIMIT


def test_a_remap_into_a_wider_context_keeps_the_field_edge():
    ctx, names, primes, pairs = doubled(2)
    wide = RingContext(["t"] + names + primes + ["s"])
    a = LIMIT - 1
    p = ctx.gen("x1") ** a
    q = embed(p, wide)
    assert q.terms == {(0, a, 0, 0, 0, 0): 1}
    assert _restrict(q, ctx) == p
    # a merge keeps the total degree: x1^k x1'^(a - k) -> x1^a
    for k in (0, 1, a // 2, a):
        m = ctx.gen("x1") ** k * ctx.gen("x1'") ** (a - k)
        assert substitute(m, {"x1'": "x1"}).terms == {(a, 0, 0, 0): 1}
        swap = {"x1": "x2'", "x1'": "x2", "x2": "x1'", "x2'": "x1"}
        assert rename(m, swap).terms == {
            (0, a - k, 0, k): 1}
    with pytest.raises(ExponentOverflow):
        q * wide.gen("s")


def _reference_terms_add(a, b):
    """The first-written sum: Fractions, then the terms of b in order."""
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = _canon_ref(s)
        else:
            out.pop(exp, None)
    return out


def _canon_ref(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
@example((_CX.zero(), _CANCEL_RETURN[0]))
@example(_CANCEL_RETURN)
@example((parse_poly("-x^2 + 1/2", _CX), parse_poly("x^2 + 1/2", _CX)))
def test_terms_add_matches_the_reference_in_value_and_order(pq):
    p, q = pq
    ctx = p.ctx
    want = _reference_terms_add(p.terms, q.terms)
    _same_terms(_view(ctx, _terms_add(p.packed, q.packed)), want)
    _same_terms((p + q).terms, want)
    # the in-place merge is the sum, term order included, and returns acc
    acc = dict(p.packed)
    assert _terms_iadd(acc, q.packed) is acc
    _same_terms(_view(ctx, acc), want)
