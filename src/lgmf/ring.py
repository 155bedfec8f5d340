"""Exact multivariate polynomial arithmetic over Q.

Provides ordered variable contexts (including doubled alphabets x, x'),
sparse polynomials with exact rational coefficients (an ``int`` where the
coefficient is integral, a ``Fraction`` only where it has a denominator), a
small expression parser, and the difference quotient operators (another
priming order is the same operator over reordered variables).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from itertools import repeat
from operator import add

PRIME_SUFFIX = "'"


def primed_name(name: str) -> str:
    """The canonical primed partner of a variable name."""
    return name + PRIME_SUFFIX


class ContextMismatch(ValueError):
    pass


class UnknownVariable(KeyError):
    pass


class RingContext:
    """An ordered tuple of variable names; the carrier ring Q[names].

    Contexts compare and hash by their name tuple.  Doubled contexts append
    the primed block after the unprimed block.  ``zero()`` is one shared Poly
    per context.
    """

    __slots__ = ("names", "_lookup", "_zero")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_lookup", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_zero", _poly(self, {}))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("RingContext is immutable")

    def __eq__(self, other):
        return isinstance(other, RingContext) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"RingContext{self.names}"

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._lookup[name]
        except KeyError:
            raise UnknownVariable(f"{name!r} not in context {self.names}") from None

    def extend(self, extra_names) -> "RingContext":
        """This context with the new names appended; itself if none is new."""
        new = [n for n in extra_names if n not in self._lookup]
        if not new:
            return self
        return RingContext(self.names + tuple(new))

    def doubled(self) -> "RingContext":
        """Append a primed partner of every name."""
        return self.extend(primed_name(n) for n in self.names)

    def merge(self, other: "RingContext") -> "RingContext":
        return self.extend(other.names)

    def poly(self, terms) -> "Poly":
        return Poly(self, terms)

    def zero(self) -> "Poly":
        return self._zero

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        c = _canon(c)
        if not c:
            return self._zero
        return _poly(self, {(0,) * len(self.names): c})

    def gen(self, name: str) -> "Poly":
        exp = [0] * len(self.names)
        exp[self.index(name)] = 1
        return _poly(self, {tuple(exp): 1})


def grlex_key(exp):
    """Graded-lexicographic sort key (largest first when reverse-sorted)."""
    return (sum(exp), exp)


class Poly:
    """A sparse multivariate polynomial over Q in a fixed context.

    Immutable value type; terms map exponent tuples to nonzero rationals in
    canonical form: an ``int`` where the coefficient is integral, else a
    ``Fraction`` with denominator > 1 (never a float, a bool or Fraction(n)).
    Since Fraction(n) == n and hash(Fraction(n)) == hash(n), equality and
    hashing do not depend on the form; scalar results such as
    ``constant_value`` are always ``Fraction``s.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms):
        clean = {}
        width = len(ctx.names)
        for exp, c in terms.items():
            c = _canon(c)
            if len(exp) != width:
                raise ValueError(f"exponent {exp} has wrong arity for {ctx}")
            if c:
                clean[tuple(exp)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    # -- basic predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.terms.values())))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        self._check(other)
        return _poly(self.ctx, _terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ctx, _terms_scale(self.terms, -1))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly(self.ctx, _terms_scale(self.terms, other))
        self._check(other)
        return _poly(self.ctx, _terms_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        if not k:
            return self.ctx.one()
        return _poly(self.ctx, _terms_pow(self.terms, k))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx.names, tuple(sorted(self.terms.items()))))

    # -- structure ----------------------------------------------------------
    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def coefficient_of(self, exps_by_name: dict) -> "Poly":
        """Extract the coefficient of prod v^e over the named variables.

        The named variables are removed from the monomials matched exactly;
        the result still lives in the same context (with zero exponents on
        the extracted variables).
        """
        idx = {self.ctx.index(n): e for n, e in exps_by_name.items()}
        out = {}
        for exp, c in self.terms.items():
            if all(exp[i] == e for i, e in idx.items()):
                new = tuple(0 if i in idx else e for i, e in enumerate(exp))
                out[new] = out.get(new, 0) + c
        return Poly(self.ctx, out)

    def __repr__(self):
        return format_poly(self)


_new = object.__new__
_set = object.__setattr__


def _poly(ctx: RingContext, terms: dict) -> Poly:
    """A Poly that takes ownership of ``terms`` without validating it.

    Only for fresh dicts that nothing else holds, already in canonical form
    (exponent tuples of the context's arity, nonzero ints or Fractions with
    a denominator > 1): the results of the term kernels below.
    """
    p = _new(Poly)
    _set(p, "ctx", ctx)
    _set(p, "terms", terms)
    return p


# -- sparse-term kernels ----------------------------------------------------
#
# Terms are dicts mapping exponent tuples to nonzero coefficients in canonical
# form: an int where the value is integral, a Fraction only where there is a
# denominator.  Nearly every coefficient of the library (Atiyah classes,
# difference quotients, Koszul signs) is an integer, so most arithmetic stays
# on ints; a kernel turns an integral Fraction it produces back into an int.
# These are the hot loops of the whole library (Groebner reduction, matrix
# composites, residue numerators).  The product runs its inner loop on
# integers: each factor is scaled by the lcm of its denominators, and only an
# output coefficient with a denominator becomes a Fraction.  Division
# (``ideal._reduce``) reduces one working dict in place.  Every context owns
# one immutable zero, so the terms dict of a zero result may be shared;
# nothing may mutate a Poly's terms.  Each kernel visits terms in a fixed
# order, so results keep a reproducible term order.

def _canon(c):
    """A rational (int, Fraction, bool, float) as a coefficient in canonical
    form: an int if it is integral, else a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _terms_add(a, b):
    """Sum of two term dicts, zero coefficients dropped."""
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp)
        if s is None:
            out[exp] = c
        else:
            s = s + c
            if s:
                # only two Fractions can sum to an integer
                if type(s) is Fraction and s.denominator == 1:
                    s = s.numerator
                out[exp] = s
            else:
                del out[exp]
    return out


def _terms_mul(a, b):
    """Product of two term dicts.

    Coefficients are summed as integers over the common denominator
    la * lb; a monomial whose sum cancels is deleted, and re-inserted at the
    end if a later product brings it back.  With integer factors the integer
    sums are the result.
    """
    if len(a) > len(b):
        a, b = b, a
    la = lcm(*[c.denominator for c in a.values()])
    lb = lcm(*[c.denominator for c in b.values()])
    ib = (list(b.items()) if lb == 1 else
          [(eb, cb.numerator * (lb // cb.denominator))
           for eb, cb in b.items()])
    out = {}
    get = out.get
    for ea, ca in a.items():
        na = ca if la == 1 else ca.numerator * (la // ca.denominator)
        for eb, nb in ib:
            exp = tuple(map(add, ea, eb))
            s = get(exp)
            if s is None:
                out[exp] = na * nb
            else:
                s += na * nb
                if s:
                    out[exp] = s
                else:
                    del out[exp]
    den = la * lb
    if den == 1:
        return out
    return {exp: Fraction(n, den) if n % den else n // den
            for exp, n in out.items()}


def _terms_scale(a, c):
    """Scalar multiple of a term dict by an int or Fraction c.

    For c = 1 the result is a copy and for c = -1 each term is negated, so
    that Koszul signs cost no product.
    """
    if not c:
        return {}
    if c == 1:
        return dict(a)
    if c == -1:
        return {exp: -ca for exp, ca in a.items()}
    return {exp: _canon(ca * c) for exp, ca in a.items()}


# -- context-changing maps --------------------------------------------------

def _remap(ctx: RingContext, positions):
    """The map p -> p rebuilt in ``ctx``, variable k of p moving to
    positions[k].

    The positions are worked out once, for every p of one source context.
    Variables sharing a position merge: their exponents add up, and so do the
    coefficients of monomials that meet.  A position of None drops the
    variable; the map gives None for a p in which a dropped variable occurs,
    and the context's shared zero for a zero p.  Terms keep p's order.
    """
    zero = ctx.zero()
    n, width = len(positions), len(ctx.names)
    dropped = [k for k, pos in enumerate(positions) if pos is None]
    kept = [(k, pos) for k, pos in enumerate(positions) if pos is not None]
    # when p's variables come first, in order, a new exponent is the old one
    # padded with zeros; otherwise each is built slot by slot
    pad = (0,) * (width - n)
    padding = list(positions) == list(range(n))

    def remap(p: Poly) -> Poly | None:
        terms = p.terms
        if not terms:
            return zero
        if dropped and any(exp[k] for exp in terms for k in dropped):
            return None
        if padding:
            exps = map(add, terms, repeat(pad)) if pad else terms
            return _poly(ctx, dict(zip(exps, terms.values())))
        return _poly(ctx, _moved_terms(terms, kept, width))

    return remap


def _moved_terms(terms, kept, width):
    """The terms with variable k moved to position pos for each (k, pos) of
    ``kept``.  Where positions are shared, exponents and the coefficients of
    monomials that meet add up, and cancelled monomials are dropped."""
    out = {}
    for exp, c in terms.items():
        new = [0] * width
        for k, pos in kept:
            new[pos] += exp[k]
        key = tuple(new)
        s = out.get(key)
        out[key] = c if s is None else _canon(s + c)
    if len(out) < len(terms):       # monomials merged: drop cancellations
        out = {exp: c for exp, c in out.items() if c}
    return out


def _remap_matrix(mat, remap_for):
    """Each entry p of ``mat`` mapped by remap_for(p.ctx), a function of the
    source context that is called once per context met (row-major, so a bad
    context raises at the entry that a per-entry map would raise at)."""
    maps = {}
    last = f = None
    out = []
    for row in mat:
        new = []
        for p in row:
            c = p.ctx
            if c is not last:
                f = maps.get(id(c))
                if f is None:
                    f = maps[id(c)] = remap_for(c)
                last = c
            new.append(p if f is _same else f(p))
        out.append(new)
    return out


def _same(p: Poly) -> Poly:
    return p


def _restrict(p: Poly, ctx: RingContext) -> Poly | None:
    """p in ``ctx``, dropping the variables ctx lacks; None if p uses one."""
    return _remap(ctx, [ctx._lookup.get(n) for n in p.ctx.names])(p)


def _embedding(src: RingContext, ctx: RingContext):
    if src is ctx or src == ctx:
        return _same
    return _remap(ctx, [ctx.index(n) for n in src.names])


def embed(p: Poly, ctx: RingContext) -> Poly:
    """Reinterpret p in a larger (or reordered) context, matching by name."""
    if p.ctx is ctx or p.ctx == ctx:
        return p
    return _embedding(p.ctx, ctx)(p)


def embed_matrix(mat, ctx: RingContext) -> list:
    """``mat`` itself when every entry's context is ``ctx``, else a new
    matrix of ``embed(e, ctx)`` for the entries e of ``mat``."""
    for row in mat:
        for e in row:
            if e.ctx is not ctx:
                return _remap_matrix(mat, lambda src: _embedding(src, ctx))
    return mat


def _renaming(src: RingContext, mapping, target_ctx: RingContext | None):
    images = [mapping.get(n, n) for n in src.names]
    if len(set(images)) != len(images):
        raise ValueError(f"rename map not injective on {src.names}: {mapping}")
    ctx = target_ctx if target_ctx is not None else src
    return _remap(ctx, [ctx.index(n) for n in images])


def rename(p: Poly, mapping, target_ctx: RingContext | None = None) -> Poly:
    """Injective variable renaming (the variable-changing maps ^t).

    ``mapping`` sends old names to new names; unmapped variables keep their
    name.  The target context defaults to the source context (which must then
    contain every image name).
    """
    return _renaming(p.ctx, mapping, target_ctx)(p)


def rename_matrix(mat, mapping, target_ctx: RingContext | None = None) -> list:
    """A new matrix of ``rename(e, mapping, target_ctx)`` for the entries e
    of ``mat``."""
    return _remap_matrix(
        mat, lambda src: _renaming(src, mapping, target_ctx))


def substitute(p: Poly, mapping, target_ctx: RingContext | None = None) -> Poly:
    """Variable-for-variable substitution, merges allowed (e.g. x' -> x)."""
    ctx = target_ctx if target_ctx is not None else p.ctx
    return _remap(ctx, [ctx.index(mapping.get(n, n)) for n in p.ctx.names])(p)


def partial_derivative(p: Poly, name: str) -> Poly:
    """Formal partial derivative with respect to a variable."""
    i = p.ctx.index(name)
    out = {}
    for exp, c in p.terms.items():
        e = exp[i]
        if e:
            new = exp[:i] + (e - 1,) + exp[i + 1:]
            out[new] = out.get(new, 0) + c * e
    return Poly(p.ctx, out)


def _difference_step(p: Poly, u: str, v: str):
    """(p(u:=v), (p - p(u:=v)) / (u - v)) from one pass over p's terms.

    A term c*m*u^a*v^b, m free of u and v, goes to c*m*v^(a+b) and to
    sum_{k<a} c*m*u^k*v^(a+b-1-k).
    """
    ui, vi = p.ctx.index(u), p.ctx.index(v)
    sub, quo = {}, {}
    for exp, c in p.terms.items():
        a = exp[ui]
        top = a + exp[vi]
        e = list(exp)
        e[ui], e[vi] = 0, top
        _add_term(sub, tuple(e), c)
        for k in range(a):
            e[ui], e[vi] = k, top - 1 - k
            _add_term(quo, tuple(e), c)
    return (_poly(p.ctx, {e: c for e, c in sub.items() if c}),
            _poly(p.ctx, {e: c for e, c in quo.items() if c}))


def _add_term(terms, exp, c):
    s = terms.get(exp)
    terms[exp] = c if s is None else _canon(s + c)


def divided_difference(p: Poly, i: int, pairs) -> Poly:
    """The difference quotient: prime variables 1..i-1 resp. 1..i, divide.

    ``pairs`` lists (unprimed, primed) names in the operator's order, so a
    reordered list gives the quotient for another priming order.  ``i`` is
    1-based.
    """
    pairs = list(pairs)
    if not 1 <= i <= len(pairs):
        raise IndexError(f"divided difference index {i} out of range 1..{len(pairs)}")
    left = substitute(p, {u: pr for u, pr in pairs[: i - 1]})
    return _difference_step(left, *pairs[i - 1])[1]


# -- printing and parsing ---------------------------------------------------

def format_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for exp, c in p.sorted_terms():
        factors = []
        for name, e in zip(p.ctx.names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdecimal():                # the digits int() accepts
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("var", text[i:j]))
            i = j
        elif ch in "+-*^/()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", ""))
    return tokens


def parse_poly(text: str, ctx: RingContext) -> Poly:
    """Parse the CLI polynomial grammar: signed sums of c * v1^e1 * ... terms.

    Also accepts parentheses and rational coefficients p/q (an int when q
    divides p).  A power applies to the whole literal p/q: ``3/2^2`` is
    (3/2)^2 = 9/4, not 3/4.  One recursive descent over the tokens: the
    numbers and variables of a product, with their powers, add up into one
    exponent list and one coefficient, and a term dict is formed only per
    summand and per parenthesised factor.  Those dicts are combined by the
    sparse-term kernels; the result is wrapped in a Poly once.
    """
    tokens = _tokenize(text)
    terms, i = _parse_sum(tokens, 0, ctx)
    if tokens[i][0] != "end":
        raise ParseError(f"trailing input at token {tokens[i][1]!r}")
    return _poly(ctx, terms)


def _expected(kind, tokens, i):
    return ParseError(f"expected {kind}, found {tokens[i][1]!r} (token {i})")


def _parse_sum(tokens, i, ctx):
    """The term dict of the signed sum at token i, and the index after it."""
    out = None
    kind = tokens[i][0]
    while True:
        negative = False
        while kind == "+" or kind == "-":
            negative ^= kind == "-"
            i += 1
            kind = tokens[i][0]
        terms, i = _parse_product(tokens, i, ctx, negative)
        out = terms if out is None else _terms_add(out, terms)
        kind = tokens[i][0]
        if kind != "+" and kind != "-":
            return out, i


def _parse_product(tokens, i, ctx, negative):
    """The term dict of the product at token i, negated if ``negative``, and
    the index after it.

    The numbers and variables, each to its power, add up into one
    coefficient and one exponent list; the parenthesised factors multiply as
    term dicts.  A monomial only shifts the terms of the other factors, so
    the term order is that of the left-to-right product.
    """
    exp = [0] * len(ctx.names)
    coef = -1 if negative else 1
    group = None                        # the parenthesised factors' product
    lookup = ctx._lookup
    while True:
        kind, value = tokens[i]
        if kind == "var":
            v = lookup.get(value)
            if v is None:
                raise ParseError(f"unknown variable {value!r} in context "
                                 f"{ctx.names}")
            k, i = _exponent(tokens, i + 1)
            exp[v] += k
        elif kind == "int":
            c = int(value)
            i += 1
            if tokens[i][0] == "/":
                if tokens[i + 1][0] != "int":
                    raise _expected("int", tokens, i + 1)
                den = int(tokens[i + 1][1])
                if not den:
                    raise ParseError(f"zero denominator in {c}/{den}")
                c = _canon(Fraction(c, den))
                i += 2
            k, i = _exponent(tokens, i)
            coef *= c if k == 1 else c ** k
        elif kind == "(":
            terms, i = _parse_sum(tokens, i + 1, ctx)
            if tokens[i][0] != ")":
                raise _expected(")", tokens, i)
            k, i = _exponent(tokens, i + 1)
            if k:                       # (...)^0 = 1, also for 0
                terms = _terms_pow(terms, k)
                group = terms if group is None else _terms_mul(group, terms)
        else:
            raise ParseError(f"unexpected token {value!r}")
        kind = tokens[i][0]
        if kind == "*":
            i += 1
        elif kind != "var" and kind != "(":
            break
    if type(coef) is Fraction and coef.denominator == 1:
        coef = coef.numerator
    if not coef:
        return {}, i
    if group is None:
        return {tuple(exp): coef}, i
    if coef == 1 and not any(exp):
        return group, i
    return _terms_mul({tuple(exp): coef}, group), i


def _exponent(tokens, i):
    """The exponent k of a ``^k`` at token i (1 if there is none), and the
    index after it."""
    if tokens[i][0] != "^":
        return 1, i
    i += 1
    if tokens[i][0] == "-":
        raise ParseError("negative exponents are not supported")
    if tokens[i][0] != "int":
        raise _expected("int", tokens, i)
    return int(tokens[i][1]), i + 1


def _terms_pow(a, k):
    """a^k for k >= 1 by repeated squaring, always in a fresh dict."""
    base = a
    while not k & 1:
        base = _terms_mul(base, base)
        k >>= 1
    # the first factor starts the product (a copy when it is the input)
    out = dict(base) if base is a else base
    k >>= 1
    while k:
        base = _terms_mul(base, base)
        if k & 1:
            out = _terms_mul(out, base)
        k >>= 1
    return out
