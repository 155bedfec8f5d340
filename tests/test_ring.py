"""Polynomial arithmetic, difference quotients, text grammar."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmf.adjunction import _project
from lgmf.residue import DenominatorError, ResidueQuery, grothendieck_residue
from lgmf.ring import (ContextMismatch, ParseError, Poly, RingContext,
                       UnknownVariable, _restrict, _tokenize,
                       divided_difference, divided_difference_ordered, embed,
                       format_poly, parse_poly, partial_derivative, rename,
                       substitute)
from lgmf.unit import _try_restrict


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
        assert all(type(v) is Fraction and v for v in r.terms.values())
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
            if not ctx.contains(name):
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
    # same term order, so every downstream column order is unchanged too
    assert list(got.terms) == list(want.terms)


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
    ctx, names, primes, pairs = doubled(3)
    f = data.draw(poly_strategy(ctx, names))
    for i in range(1, 4):
        assert (divided_difference_ordered(f, i, (1, 2, 3), pairs)
                == divided_difference(f, i, pairs))


def test_ordered_swapped_example():
    ctx, names, primes, pairs = doubled(2)
    f = ctx.gen("x1") * ctx.gen("x2")
    # with the order (2 1), x2 is substituted before x1
    assert divided_difference_ordered(f, 1, (2, 1), pairs) == ctx.gen("x2'")
    assert divided_difference_ordered(f, 2, (2, 1), pairs) == ctx.gen("x1")


def test_ordered_constant_vanishes():
    ctx, names, primes, pairs = doubled(2)
    c = ctx.const(Fraction(7, 3))
    for i in (1, 2):
        assert divided_difference_ordered(c, i, (2, 1), pairs).is_zero()


def test_ordered_rejects_non_permutation():
    ctx, names, primes, pairs = doubled(2)
    with pytest.raises(ValueError):
        divided_difference_ordered(ctx.gen("x1"), 1, (1, 1), pairs)


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
