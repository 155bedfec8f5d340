"""Exact multivariate polynomial arithmetic over Q.

Provides ordered variable contexts (including doubled alphabets x, x'),
sparse polynomials with exact rational coefficients (an ``int`` where the
coefficient is integral, a ``Fraction`` only where it has a denominator), a
small expression parser, and the difference quotient operators (another
priming order is the same operator over reordered variables).

Every monomial is one int, packed as in Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors" (CASC
2007).  In a context of n variables the total degree sits in the top field
and the exponent of x_i in field n - 1 - i below it, each field ``WIDTH``
bits wide with its top bit a guard bit that a valid key leaves clear: every
exponent and every total degree is below ``LIMIT``.  So a product's key is
the sum of its factors' keys, graded-lex order is integer order, a divides
b iff (b - a) & guard is 0, and the exponents of adjacent variables move as
one run of fields.  A key that would pass ``LIMIT`` raises
``ExponentOverflow``; nothing wraps.  ``Poly.terms`` and the tuples of
``RingContext.pack``/``unpack`` are the boundary to exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

PRIME_SUFFIX = "'"

WIDTH = 16                  # bits per field, guard bit included
LIMIT = 1 << (WIDTH - 1)    # every exponent and total degree is below this
_FIELD = (1 << WIDTH) - 1


def primed_name(name: str) -> str:
    """The canonical primed partner of a variable name."""
    return name + PRIME_SUFFIX


class ContextMismatch(ValueError):
    pass


class UnknownVariable(KeyError):
    pass


class ExponentOverflow(ValueError):
    """A monomial whose total degree (hence some field) would pass LIMIT."""

    def __init__(self, degree):
        super().__init__(f"exponent overflow: a monomial of total degree "
                         f"{degree} passes the limit {LIMIT - 1}")


def _no_overflow(key):
    """Raise ExponentOverflow if the key, a sum of two valid keys, has its
    degree field's guard bit set.

    A valid nonconstant key's bit length is its degree field's shift plus 1
    to WIDTH - 1; one sum of valid keys keeps the degree field below
    2**WIDTH, so its bit length is a multiple of WIDTH exactly when the
    degree reached LIMIT.  No layout is needed to tell.
    """
    if key and not key.bit_length() % WIDTH:
        raise ExponentOverflow(key >> (key.bit_length() - WIDTH))


class RingContext:
    """An ordered tuple of variable names; the carrier ring Q[names].

    Contexts compare and hash by their name tuple.  Doubled contexts append
    the primed block after the unprimed block.  ``zero()`` is one shared Poly
    per context.  A context owns the layout of its packed monomials, which
    depends only on the number of variables.
    """

    __slots__ = ("names", "_lookup", "_zero", "_shifts", "_units", "_dshift",
                 "_guard")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        top = len(names) * WIDTH
        shifts = range(top - WIDTH, -1, -WIDTH)
        _set(self, "names", names)
        _set(self, "_lookup", {v: i for i, v in enumerate(names)})
        _set(self, "_shifts", shifts)
        _set(self, "_dshift", top)
        _set(self, "_units", tuple([1 << top | 1 << s for s in shifts]))
        # LIMIT in every variable's field: LIMIT times the repunit
        # sum(2**s for s in shifts)
        _set(self, "_guard", LIMIT * ((1 << top) - 1) // _FIELD)
        _set(self, "_zero", Poly(self, {}))

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

    # -- the packed layout --------------------------------------------------
    def pack(self, exp) -> int:
        """The key of an exponent tuple; raises ValueError for a wrong arity
        or a negative exponent, ExponentOverflow at LIMIT."""
        if len(exp) != len(self.names):
            raise ValueError(f"exponent {exp} has wrong arity for {self}")
        key = degree = 0
        for e, s in zip(exp, self._shifts):
            if e < 0:
                raise ValueError(f"negative exponent in {exp}")
            degree += e
            if degree >= LIMIT:
                raise ExponentOverflow(sum(exp))
            key |= e << s
        return key | degree << self._dshift

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of a key."""
        return tuple([key >> s & _FIELD for s in self._shifts])

    def unit(self, name: str) -> int:
        """The key of the variable ``name``."""
        return self._units[self.index(name)]

    def degree(self, key: int) -> int:
        """The total degree of a key."""
        return key >> self._dshift

    def lowest(self, degree: int) -> int:
        """The least key of total degree ``degree``: the keys below it are
        those of lower degree."""
        return degree << self._dshift

    def divides(self, a: int, b: int) -> bool:
        """Whether the monomial of key a divides that of key b."""
        return not (b - a) & self._guard

    def lcm(self, a: int, b: int) -> int:
        """The key of the least common multiple of two monomials."""
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))

    def field_mask(self, indices) -> int:
        """The bits of the exponent fields of the variables at ``indices``."""
        return sum(_FIELD << self._shifts[i] for i in indices)

    # -- polynomials --------------------------------------------------------
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
        return _poly(self, {0: c})

    def gen(self, name: str) -> "Poly":
        return _poly(self, {self.unit(name): 1})



class Poly:
    """A sparse multivariate polynomial over Q in a fixed context.

    Immutable value type.  ``packed`` maps packed monomial keys to nonzero
    rationals in canonical form: an ``int`` where the coefficient is
    integral, else a ``Fraction`` with denominator > 1 (never a float, a
    bool or Fraction(n)).  Since Fraction(n) == n and hash(Fraction(n)) ==
    hash(n), equality and hashing do not depend on the form; scalar results
    such as ``constant_value`` are always ``Fraction``s.  The constructor and
    ``terms`` speak exponent tuples, in the same term order.
    """

    __slots__ = ("ctx", "packed")

    def __init__(self, ctx: RingContext, terms):
        clean = {}
        pack = ctx.pack
        for exp, c in terms.items():
            key = pack(exp)
            c = _canon(c)
            if c:
                clean[key] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "packed", clean)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict:
        """A new dict from exponent tuples to coefficients, in term order."""
        unpack = self.ctx.unpack
        return {unpack(k): c for k, c in self.packed.items()}

    # -- basic predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        return not any(self.packed)

    def constant_value(self) -> Fraction:
        if not self.packed:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.packed[0])

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return self.ctx.degree(max(self.packed))

    # -- arithmetic ---------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        self._check(other)
        return _poly(self.ctx, _terms_add(self.packed, other.packed))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ctx, _terms_scale(self.packed, -1))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _poly(self.ctx, _terms_scale(self.packed, other))
        self._check(other)
        return _poly(self.ctx, _terms_mul(self.packed, other.packed))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        if not k:
            return self.ctx.one()
        return _poly(self.ctx, _terms_pow(self.packed, k))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return ((self.ctx is other.ctx or self.ctx == other.ctx)
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.ctx.names, tuple(sorted(self.packed.items()))))

    # -- structure ----------------------------------------------------------
    def coefficient_of(self, exps_by_name: dict) -> "Poly":
        """Extract the coefficient of prod v^e over the named variables.

        The named variables are removed from the monomials matched exactly;
        the result still lives in the same context (with zero exponents on
        the extracted variables).
        """
        ctx = self.ctx
        mask = ctx.field_mask([ctx.index(n) for n in exps_by_name])
        want = ctx.pack([exps_by_name.get(n, 0) for n in ctx.names])
        return _clean(ctx, {k - want: c for k, c in self.packed.items()
                            if k & mask == want & mask})

    def __repr__(self):
        return format_poly(self)


_new = object.__new__
_set = object.__setattr__


def _poly(ctx: RingContext, terms: dict) -> Poly:
    """A Poly that takes ownership of the packed term dict ``terms`` without
    validating it.

    Only for fresh dicts that nothing else holds, already in canonical form
    (valid keys of the context's layout, nonzero ints or Fractions with a
    denominator > 1): the results of the term kernels below.  An empty dict
    gives the context's shared zero.
    """
    if not terms:
        return ctx._zero
    p = _new(Poly)
    _set(p, "ctx", ctx)
    _set(p, "packed", terms)
    return p


def _clean(ctx: RingContext, terms: dict) -> Poly:
    """A Poly of a packed term dict whose rational coefficients may be zero
    or not canonical; the order of the nonzero terms is kept."""
    out = {}
    for k, c in terms.items():
        c = _canon(c)
        if c:
            out[k] = c
    return _poly(ctx, out)


# -- sparse-term kernels ----------------------------------------------------
#
# Terms are dicts mapping packed monomial keys to nonzero coefficients in
# canonical form: an int where the value is integral, a Fraction only where
# there is a denominator.  Nearly every coefficient of the library (Atiyah
# classes, difference quotients, Koszul signs) is an integer, so most
# arithmetic stays on ints; a kernel turns an integral Fraction it produces
# back into an int.  These are the hot loops of the whole library (Groebner
# reduction, matrix composites, residue numerators); a product key is one
# int addition.  The product runs its inner loop on integers: each factor is
# scaled by the lcm of its denominators, and only an output coefficient with
# a denominator becomes a Fraction.  A product checks its largest key, the
# sum of its factors' largest keys, against overflow before its loop.
# Division (``ideal._reduce``) reduces one working dict in place.  A sum of
# products (a ``polymat.mat_mul`` cell, a determinant, a cofactor lift, the
# Zorro contraction) forms each product with ``_terms_mul`` and adds it with
# ``_terms_iadd``, so it has the term order of the Poly arithmetic
# ``a*b + c*d``.  Every context owns one immutable zero, the Poly of every
# empty term dict; nothing may mutate a Poly's terms.  Each kernel visits
# terms in a fixed order, so results keep a reproducible term order.

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
    return _terms_iadd(dict(a), b)


def _terms_iadd(acc, b):
    """acc += b in place, zero coefficients dropped; returns acc.  The one
    loop that merges a term dict into another: b's new monomials go to the
    end in b's order, and a monomial that cancels is deleted."""
    get = acc.get
    for exp, c in b.items():
        s = get(exp)
        if s is None:
            acc[exp] = c
        else:
            s = s + c
            if s:
                # only two Fractions can sum to an integer
                if type(s) is Fraction and s.denominator == 1:
                    s = s.numerator
                acc[exp] = s
            else:
                del acc[exp]
    return acc


def _terms_mul(a, b):
    """Product of two term dicts.

    Coefficients are summed as integers over the common denominator
    la * lb; a monomial whose sum cancels is deleted, and re-inserted at the
    end if a later product brings it back.  With integer factors the integer
    sums are the result.  A one-term factor only shifts and scales the
    other's terms: no two products share a key, so nothing is summed and
    the terms keep the other factor's order.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    _no_overflow(max(a) + max(b))
    if len(a) == 1:
        (ea, ca), = a.items()
        return {ea + eb: _canon(ca * cb) for eb, cb in b.items()}
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
            exp = ea + eb
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


# -- context-changing maps --------------------------------------------------
#
# The one exponent-remapping primitive.  Variable k of a source context of n
# variables moves to position positions[k] of a target of m variables (None
# drops it).  Each field moves by a fixed shift, and so does the degree
# field, from the top of the source layout to the top of the target's; the
# fields are cut into runs of adjacent source fields that move together, and
# a key is rebuilt from one mask-and-shift per run.  Fields sharing a target
# position add up (a merge).  A remap keeps the total degree, so it cannot
# overflow.

def _runs(n: int, positions, m: int, degree=True):
    """The (shift, mask, target shift) of each run of adjacent source fields
    that moves as one, lowest first, for a remap of ``positions`` from n to
    m variables; the degree field is the last run when ``degree`` is set
    (its mask is -1)."""
    runs = []                       # [low bit, end bit, shift]
    src = 0
    for pos in reversed(positions):     # the lowest source field first
        if pos is not None:
            shift = (m - 1 - pos) * WIDTH - src
            if runs and runs[-1][1] == src and runs[-1][2] == shift:
                runs[-1][1] += WIDTH
            else:
                runs.append([src, src + WIDTH, shift])
        src += WIDTH
    if degree:
        shift = (m - n) * WIDTH
        if runs and runs[-1][1] == src and runs[-1][2] == shift:
            runs[-1][1] = None
        else:
            runs.append([src, None, shift])
    return [(lo, -1 if end is None else (1 << end - lo) - 1, lo + shift)
            for lo, end, shift in runs]


def _moved_terms(terms, runs):
    """The terms with their keys rebuilt by ``runs`` (see ``_runs``).  Keys
    that meet add their coefficients; cancelled monomials are dropped and
    the terms keep their order."""
    if len(runs) == 1 and runs[0][1] == -1:     # one shift of every key
        lo, _, to = runs[0]
        return {k >> lo << to: c for k, c in terms.items()}
    out = {}
    for key, c in terms.items():
        new = 0
        for lo, mask, to in runs:
            new += (key >> lo & mask) << to
        s = out.get(new)
        out[new] = c if s is None else _canon(s + c)
    if len(out) < len(terms):       # monomials merged: drop cancellations
        out = {k: c for k, c in out.items() if c}
    return out


def _remap(ctx: RingContext, positions):
    """The map p -> p rebuilt in ``ctx``, variable k of p moving to
    positions[k].

    The runs are worked out once, for every p of one source context.
    Variables sharing a position merge: their exponents add up, and so do the
    coefficients of monomials that meet.  A position of None drops the
    variable; the map gives None for a p in which a dropped variable occurs,
    and the context's shared zero for a zero p.  Terms keep p's order.
    """
    zero = ctx.zero()
    n = len(positions)
    runs = _runs(n, positions, len(ctx.names))
    dropped = (sum(_FIELD << (n - 1 - k) * WIDTH
                   for k, pos in enumerate(positions) if pos is None)
               if None in positions else 0)

    def remap(p: Poly) -> Poly | None:
        terms = p.packed
        if not terms:
            return zero
        if dropped and any(k & dropped for k in terms):
            return None
        return _poly(ctx, _moved_terms(terms, runs))

    return remap


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
    ctx = p.ctx
    i = ctx.index(name)
    s, unit = ctx._shifts[i], ctx._units[i]
    out = {}
    for key, c in p.packed.items():
        e = key >> s & _FIELD
        if e:
            out[key - unit] = _canon(c * e)
    return _poly(ctx, out)


def _difference_step(p: Poly, u: str, v: str):
    """(p(u:=v), (p - p(u:=v)) / (u - v)) from one pass over p's terms.

    A term c*m*u^a*v^b, m free of u and v, goes to c*m*v^(a+b) and to
    sum_{k<a} c*m*u^k*v^(a+b-1-k); the keys of the latter step by u/v.
    """
    ctx = p.ctx
    su, sv = ctx._shifts[ctx.index(u)], ctx._shifts[ctx.index(v)]
    one_u, one_v = 1 << su, 1 << sv
    step, down = one_u - one_v, 1 << ctx._dshift
    sub, quo = {}, {}
    for key, c in p.packed.items():
        a = key >> su & _FIELD
        _add_term(sub, key + a * (one_v - one_u), c)
        q = key - a * one_u + (a - 1) * one_v - down
        for _ in range(a):
            _add_term(quo, q, c)
            q += step
    return (_poly(ctx, {e: c for e, c in sub.items() if c}),
            _poly(ctx, {e: c for e, c in quo.items() if c}))


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
    for key in sorted(p.packed, reverse=True):   # descending graded lex
        exp, c = p.ctx.unpack(key), p.packed[key]
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
    packed key and one coefficient, and a term dict is formed only per
    summand and per parenthesised factor.  Those dicts are combined by the
    sparse-term kernels; the result is wrapped in a Poly once.  A monomial
    of total degree LIMIT or more raises ExponentOverflow.
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
        out = terms if out is None else _terms_iadd(out, terms)
        kind = tokens[i][0]
        if kind != "+" and kind != "-":
            return out, i


def _parse_product(tokens, i, ctx, negative):
    """The term dict of the product at token i, negated if ``negative``, and
    the index after it.

    The numbers and variables, each to its power, add up into one
    coefficient and one packed key; the parenthesised factors multiply as
    term dicts.  A monomial only shifts the terms of the other factors, so
    the term order is that of the left-to-right product.
    """
    key = 0
    coef = -1 if negative else 1
    group = None                        # the parenthesised factors' product
    lookup, units = ctx._lookup, ctx._units
    while True:
        kind, value = tokens[i]
        if kind == "var":
            v = lookup.get(value)
            if v is None:
                raise ParseError(f"unknown variable {value!r} in context "
                                 f"{ctx.names}")
            k, i = _exponent(tokens, i + 1)
            if k >= LIMIT:
                raise ExponentOverflow(k)
            key += k * units[v]
            _no_overflow(key)
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
        return {key: coef}, i
    if coef == 1 and not key:
        return group, i
    return _terms_mul({key: coef}, group), i


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

