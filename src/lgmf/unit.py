"""The Koszul stabilised diagonal Delta_W and its structure maps.

Contains the unit factorisation, whose theta-generators follow the order of
W's variables (another order is the unit of W over reordered variables), the
stabilisation map pi, the unit actions lambda/rho with their explicit
inverses, the comparison maps Psi/Phi/epsilon, lifting of maps-to-R through
the stabilisation, and the permutation isomorphism between stabilisations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import polymat, signs
from .mf import MatrixFactorisation, Morphism, mf_rename, tensor
from .residue import JacobiRing
from .ring import (Poly, RingContext, _difference_step, _restrict, embed,
                   embed_matrix, primed_name, rename_matrix, substitute)


class KoszulUnit(MatrixFactorisation):
    """The stabilised diagonal: exterior algebra on theta-generators.

    Basis: subsets of the variable set ordered by (cardinality, lex), parity
    the subset size mod 2; differential delta_+ + delta_- built from the
    difference quotients of W, priming the variables in their context's
    order, and the linear forms x_i - x_i'.
    """

    def __init__(self, W, base_names, prime_names, ctx, parity, d, subsets):
        super().__init__(ctx, embed(W, ctx) - substitute(
            embed(W, ctx), dict(zip(base_names, prime_names))),
            parity, d, validate=True)
        self.W = W
        self.base_names = tuple(base_names)
        self.prime_names = tuple(prime_names)
        self.subsets = subsets

    @property
    def n(self) -> int:
        return len(self.base_names)

    @property
    def pairs(self):
        return list(zip(self.base_names, self.prime_names))

    def renamed(self, mapping) -> "KoszulUnit":
        plain = mf_rename(self, mapping)
        u = KoszulUnit.__new__(KoszulUnit)
        MatrixFactorisation.__init__(
            u, plain.ctx, plain.potential, plain.parity, plain.d,
            validate=False)
        u.W = self.W
        u.base_names = tuple(mapping.get(n, n) for n in self.base_names)
        u.prime_names = tuple(mapping.get(n, n) for n in self.prime_names)
        u.subsets = self.subsets
        return u


def _telescope(p: Poly, pairs) -> list:
    """Every difference quotient of p, by priming one pair at a time.

    With p_0 = p and p_k = p_(k-1) with the k-th pair primed, the quotient
    of that pair is (p_(k-1) - p_k) / (u - u').
    """
    out = []
    for u, v in pairs:
        p, q = _difference_step(p, u, v)
        out.append(q)
    return out


def difference_quotients(mat, pairs) -> list:
    """The entrywise difference quotients of a polynomial matrix.

    Entry i of the result is the matrix of quotients in the pair
    ``pairs[i]``: divided_difference(e, i + 1, pairs) of each entry e.  Each
    entry is primed pair by pair once, and every quotient is read off that
    one pass.
    """
    per_entry = [[_telescope(e, pairs) for e in row] for row in mat]
    return [[[q[i] for q in row] for row in per_entry]
            for i in range(len(pairs))]


def koszul_unit(W: Poly) -> KoszulUnit:
    """Build Delta_W over the doubled context of W's variables.

    The difference quotients prime the variables in the order of W's
    context; ``permute_unit`` builds the unit of another order.  Delta_W
    factorises W(x) - W(x') for any W, so W is not certified here: a caller
    that needs W to be a potential builds its Jacobi ring.
    """
    base = W.ctx.names
    n = len(base)
    dctx = W.ctx.doubled()
    primes = tuple(primed_name(nm) for nm in base)
    pairs = list(zip(base, primes))
    Wd = embed(W, dctx)
    subsets = signs.subsets_ordered(n)
    pos = {s: k for k, s in enumerate(subsets)}
    parity = tuple(len(s) % 2 for s in subsets)
    w = _telescope(Wd, pairs)
    lin = [dctx.gen(u) - dctx.gen(p) for u, p in pairs]
    d = polymat.zeros(dctx, len(subsets), len(subsets))
    for col, S in enumerate(subsets):
        for i in range(n):
            ins = signs.wedge_insert(i, S)
            if ins is not None:
                sgn, T = ins
                d[pos[T]][col] = d[pos[T]][col] + w[i] * sgn
            con = signs.contract(i, S)
            if con is not None:
                sgn, T = con
                d[pos[T]][col] = d[pos[T]][col] + lin[i] * sgn
    return KoszulUnit(W, base, primes, dctx, parity, d, subsets)


# -- KoszulElement and the comparison maps -----------------------------------

class KoszulElement(dict):
    """Finitely supported map from theta-subsets to coefficients in k[x,x']."""

    def accumulate(self, subset, coeff):
        subset = tuple(subset)
        if subset in self:
            s = self[subset] + coeff
        else:
            s = coeff
        if s.is_zero():
            self.pop(subset, None)
        else:
            self[subset] = s


def stab_pi(unit: KoszulUnit):
    """The stabilisation map: project to theta-degree 0, then set x' = x.

    Returns a function on KoszulElements with values in k[x].
    """
    contraction = dict(zip(unit.prime_names, unit.base_names))

    def pi(el: KoszulElement):
        coeff = el.get((), None)
        if coeff is None:
            return unit.ctx.zero()
        return substitute(embed(coeff, unit.ctx), contraction)

    return pi


def psi(word, unit: KoszulUnit) -> KoszulElement:
    """Psi(df_1 ... df_p) = sum over increasing subsets of the quotient products."""
    dctx = unit.ctx
    for f in word:
        dctx = dctx.merge(f.ctx)
    word = [embed(f, dctx) for f in word]
    p = len(word)
    el = KoszulElement()
    if p > unit.n:
        return el
    # the difference quotients of each word entry, at every position
    quotients = [_telescope(f, unit.pairs) for f in word]
    for subset in itertools.combinations(range(unit.n), p):
        coeff = None
        for k, i in enumerate(subset):
            dk = quotients[k][i]
            coeff = dk if coeff is None else coeff * dk
        if coeff is None:
            coeff = dctx.one()
        if not coeff.is_zero():
            el.accumulate(subset, coeff)
    return el


def phi(el, unit: KoszulUnit):
    """Phi: theta-subset elements to alternating sums of bar words.

    Returns a list of (coefficient, [f_1, ..., f_p]) pairs.
    """
    words = []
    for subset, coeff in el.items():
        gens = [unit.ctx.gen(unit.base_names[i]) for i in subset]
        for perm in itertools.permutations(range(len(subset))):
            sgn = signs.perm_sign(perm)
            words.append((coeff * sgn, [gens[k] for k in perm]))
    return words


def psi_of_words(words, unit: KoszulUnit) -> KoszulElement:
    """Apply Psi to a formal sum of coefficient-carrying words."""
    out = KoszulElement()
    for coeff, word in words:
        part = psi(word, unit)
        for subset, c in part.items():
            out.accumulate(subset, embed(coeff, unit.ctx) * c)
    return out


def epsilon(el, unit: KoszulUnit) -> Poly:
    """Coefficient of the top wedge theta_1 ... theta_n."""
    top = tuple(range(unit.n))
    coeff = el.get(top)
    return unit.ctx.zero() if coeff is None else embed(coeff, unit.ctx)


# -- unit actions and their inverses -----------------------------------------

def psi_phi_is_identity(unit: KoszulUnit) -> bool:
    """Psi o Phi fixes every theta-basis element exactly."""
    for subset in unit.subsets:
        el = KoszulElement()
        el.accumulate(tuple(subset), unit.ctx.one())
        out = psi_of_words(phi(el, unit), unit)
        a = {k: v for k, v in el.items() if not v.is_zero()}
        b = {k: v for k, v in out.items() if not v.is_zero()}
        if a != b:
            return False
    return True


def fresh_names(names, taken):
    """Prime-suffix names until they avoid everything in ``taken``."""
    out = []
    taken = set(taken)
    for n in names:
        cand = primed_name(n)
        while cand in taken:
            cand = primed_name(cand)
        out.append(cand)
        taken.add(cand)
    return tuple(out)


@dataclass
class UnitAction:
    """lambda (side='left': Delta (x) X -> X) or rho (side='right': X (x) Delta -> X).

    The action selects the theta-degree-0 component of the unit factor and
    identifies the contracted primed variables with their partners; it is
    linear over the contracted ring, so it is represented as an operation on
    morphisms (and on element vectors), not as a single polynomial matrix.
    """

    side: str
    X: MatrixFactorisation
    unit_mf: MatrixFactorisation     # the unit factor as used inside the tensor
    tensor_mf: MatrixFactorisation
    contraction: dict                # substitution applied to coefficients

    def _component(self, vec_index):
        """(x_index, subset_index) of a flat tensor basis index."""
        if self.side == "right":
            nsub = self.unit_mf.rank
            return vec_index // nsub, vec_index % nsub
        rx = self.X.rank
        return vec_index % rx, vec_index // rx

    def apply_matrix(self, mat):
        """Contract a (tensor_rank x c) matrix of coefficients to (X.rank x c)."""
        cols = len(mat[0]) if mat else 0
        ctx = self.X.ctx.merge(self.tensor_mf.ctx)
        out = polymat.zeros(ctx, self.X.rank, cols)
        for r in range(self.tensor_mf.rank):
            xi, si = self._component(r)
            if si != 0:      # theta-degree > 0 components die
                continue
            for c in range(cols):
                if not mat[r][c].is_zero():
                    out[xi][c] = out[xi][c] + substitute(
                        embed(mat[r][c], ctx), self.contraction)
        # re-embed into the X context when possible
        return [[_try_restrict(e, self.X.ctx) for e in row] for row in out]

    def compose(self, g: Morphism) -> Morphism:
        """The composite (unit action) o g for g: M -> tensor_mf."""
        if g.target is not self.tensor_mf and g.target.rank != self.tensor_mf.rank:
            raise ValueError("morphism does not land in the unit tensor")
        return Morphism(g.source, self.X, g.parity, self.apply_matrix(g.mat))

    def is_closed(self) -> bool:
        """Exact closedness: action o d_tensor = d_X o action on the basis."""
        lhs = self.apply_matrix(self.tensor_mf.d)
        colctx = self.X.ctx
        rhs = polymat.zeros(colctx, self.X.rank, self.tensor_mf.rank)
        for c in range(self.tensor_mf.rank):
            xi, si = self._component(c)
            if si != 0:
                continue
            for r in range(self.X.rank):
                rhs[r][c] = self.X.d[r][xi]
        ctx = self.X.ctx.merge(self.tensor_mf.ctx)
        return polymat.is_zero_matrix(
            polymat.mat_sub(embed_matrix(lhs, ctx), embed_matrix(rhs, ctx)))


def _try_restrict(p: Poly, ctx: RingContext) -> Poly:
    """Project into ``ctx`` if no absent variable actually occurs, else return p."""
    q = _restrict(p, ctx)
    return p if q is None else q


def unit_action_right(X: MatrixFactorisation, unit: KoszulUnit) -> UnitAction:
    """rho_X: X (x) Delta_V -> X for X with source potential V.

    X's copy of the unit variables is renamed to fresh middles (shared with the
    unit's base block); the unit's primed block becomes the retained source
    variables, so the middle potential cancels and the tensor has the same
    potential as X.  The action selects theta-degree 0 and contracts the
    middles back onto the source variables.
    """
    mids = fresh_names(unit.base_names, X.ctx.names)
    Xr = mf_rename(X, dict(zip(unit.base_names, mids)))
    mapping = dict(zip(unit.base_names, mids))
    mapping.update(dict(zip(unit.prime_names, unit.base_names)))
    umf = unit.renamed(mapping)
    T = tensor(Xr, umf)
    return UnitAction(side="right", X=X, unit_mf=umf, tensor_mf=T,
                      contraction=dict(zip(mids, unit.base_names)))


def unit_action_left(X: MatrixFactorisation, unit: KoszulUnit) -> UnitAction:
    """lambda_X: Delta_V (x) X -> X, contracting through the unit's primed block."""
    mids = fresh_names(unit.base_names, X.ctx.names)
    umf = unit.renamed(dict(zip(unit.prime_names, mids)))
    Xr = mf_rename(X, dict(zip(unit.base_names, mids)))
    T = tensor(umf, Xr)
    return UnitAction(side="left", X=X, unit_mf=umf, tensor_mf=T,
                      contraction=dict(zip(mids, unit.base_names)))


def _subset_products(subsets, start, D, left: bool) -> dict:
    """For every subset S = (i_1 < ... < i_l): D[i_l] ... D[i_1] start when
    ``left``, else start D[i_1] ... D[i_l].

    ``subsets`` holds, with each subset, the subset without its last element,
    and lists it first (as the unit's subsets do); each product extends that
    one, so every subset costs one matrix product.
    """
    prods = {(): start}
    for S in subsets:
        if S:
            prev, d = prods[S[:-1]], D[S[-1]]
            prods[S] = (polymat.mat_mul(d, prev) if left
                        else polymat.mat_mul(prev, d))
    return prods


def _unit_quotients(X: MatrixFactorisation, unit: KoszulUnit) -> list:
    """The difference quotients of d_X between the unit's variables and their
    primes, in the context of X followed by those primes in X's order (the
    context of every tensor of X, or an adjoint, with a primed copy).
    Raises ValueError if X already uses one of those primes."""
    clash = set(unit.prime_names) & set(X.ctx.names)
    if clash:
        raise ValueError(f"the unit's primes {sorted(clash)} are variables "
                         f"of X")
    prime = dict(unit.pairs)
    ctx = X.ctx.extend([prime[n] for n in X.ctx.names if n in prime])
    d = embed_matrix(X.d, ctx)
    return difference_quotients(d, unit.pairs)


def _onto_action(D, unit: KoszulUnit, act: UnitAction) -> list:
    """The quotients ``D`` of ``_unit_quotients`` renamed onto the action's
    copy of the unit, in the tensor's context: what a section reads."""
    umf = act.unit_mf
    onto = dict(zip(unit.base_names + unit.prime_names,
                    umf.base_names + umf.prime_names))
    ctx = act.tensor_mf.ctx
    return [rename_matrix(M, onto, target_ctx=ctx) for M in D]


def rho_inverse(X: MatrixFactorisation, unit: KoszulUnit,
                action: UnitAction) -> Morphism:
    """The explicit section of rho = ``action``: X -> X (x) Delta_W.

    rho o rho_inverse = Id exactly; the subset-l term carries the sign
    (-1)^(binom(l,2) + l|e_i|) and the ascending product of difference
    quotients of d_X in the unit's variables.  Raises ValueError unless
    ``action`` is a right action.
    """
    return _checked_section(X, unit, action, "right")


def lambda_inverse(X: MatrixFactorisation, unit: KoszulUnit,
                   action: UnitAction) -> Morphism:
    """The explicit section of lambda = ``action``: X -> Delta_V (x) X.

    No binomial sign; the product of difference quotients is taken in
    descending subset order.  Raises ValueError unless ``action`` is a left
    action.
    """
    return _checked_section(X, unit, action, "left")


def _checked_section(X, unit, action, side) -> Morphism:
    if action.side != side:
        raise ValueError(f"no {side} section of a {action.side} action")
    return _section(X, unit, action,
                    _onto_action(_unit_quotients(X, unit), unit, action))


def _section(X, unit, act, D) -> Morphism:
    """rho_inverse or lambda_inverse, by ``act.side``, from the quotients D
    of ``_onto_action``."""
    right = act.side == "right"
    T = act.tensor_mf
    rx = X.rank
    # the tensor row of (x_j, theta_s) is j * sj + s * ss
    sj, ss = (act.unit_mf.rank, 1) if right else (1, rx)
    prods = _subset_products(unit.subsets, polymat.identity(T.ctx, rx), D,
                             left=not right)
    mat = polymat.zeros(T.ctx, T.rank, rx)
    for s, S in enumerate(unit.subsets):
        l = len(S)
        prod = prods[S]
        for i in range(rx):
            sgn = (signs.minus_one_to(signs.binom2(l) + l * X.parity[i])
                   if right else 1)
            for j in range(rx):
                e = prod[j][i]
                if not e.is_zero():
                    mat[j * sj + s * ss][i] = e if sgn == 1 else e * sgn
    return Morphism(X, T, 0, mat)


# -- lifting through the stabilisation ---------------------------------------

def lift_to_diagonal(phi_values, Y: MatrixFactorisation,
                     unit: KoszulUnit) -> Morphism:
    """Lift a closed map Y -> R to a morphism Y -> Delta_W.

    ``phi_values`` lists phi(e_j) in k[x] per basis column of Y.  With D the
    difference quotients of d_Y between the unit's variables and their
    primes, the theta_S row of the lift, for S = (s_1 < ... < s_l), is the
    row of primed phi-values times D[s_l] ... D[s_1], with column j signed
    (-1)^(l|e_j| + l).
    """
    ctx = unit.ctx.merge(Y.ctx)
    prime_map = dict(zip(unit.base_names, unit.prime_names))
    row = [[substitute(embed(v, ctx), prime_map, target_ctx=ctx)
            for v in phi_values]]
    D = difference_quotients(embed_matrix(Y.d, ctx), unit.pairs)
    prods = _subset_products(unit.subsets, polymat.identity(ctx, Y.rank), D,
                             left=True)
    mat = []
    for S in unit.subsets:
        l = len(S)
        (lifted,) = polymat.mat_mul(row, prods[S])
        mat.append([e * signs.minus_one_to(l * p + l)
                    for e, p in zip(lifted, Y.parity)])
    return Morphism(Y, unit, 0, mat)


def permute_unit(sigma, W: Poly):
    """The comparison xi: Delta_W -> Delta_W^sigma (rho o lambda-inverse).

    Delta_W^sigma is the unit of W over its variables reordered by ``sigma``
    (1-based: variable sigma(k) is primed k-th).  lambda-inverse lands in
    Delta^sigma (x) Delta_W, the middles shared; rho contracts the
    right-hand Delta_W onto Delta^sigma, sending the middles to
    Delta^sigma's primes.
    Returns (xi, unit, unit_sigma); xi is closed and a homotopy equivalence.
    """
    names = W.ctx.names
    if sorted(sigma) != list(range(1, len(names) + 1)):
        raise ValueError(f"{list(sigma)} is not a permutation of "
                         f"1..{len(names)}")
    JacobiRing(W)                           # certify W
    unit = koszul_unit(W)
    unit_sigma = koszul_unit(
        embed(W, RingContext([names[s - 1] for s in sigma])))
    # lambda's unit interpolates toward primes that Delta_W does not use
    mids = fresh_names(unit_sigma.base_names, unit.ctx.names)
    inner = unit_sigma.renamed(dict(zip(unit_sigma.prime_names, mids)))
    act = unit_action_left(unit, inner)
    li = lambda_inverse(unit, inner, act)
    rho = UnitAction("right", unit_sigma, unit, act.tensor_mf,
                     dict(zip(mids, unit_sigma.prime_names)))
    return rho.compose(li), unit, unit_sigma
