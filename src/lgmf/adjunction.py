"""Adjoints of matrix factorisations and their evaluation/coevaluation maps.

A 1-morphism X from W (variables x_1..x_n) to V (variables z_1..z_m) is a
factorisation of V - W.  Its two adjoints are one dual read at the two
ends: the right adjoint X^dagger is Xv shifted by n and the left adjoint
dagger-X is Xv shifted by m.  The side ('right' or 'left') is data here
(see ``_Side``): one coevaluation ``coev(data, side)`` and one evaluation
``ev(data, side)`` give the four structure maps in closed divided-difference
and residue form, and one snake ``zorro_composite(data, side)`` assembles
each Zorro move as an executable identity-up-to-homotopy check.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from . import polymat, signs
from .ideal import groebner, normal_form
from .mf import (FactorisationError, MatrixFactorisation, Morphism,
                 NullHomotopySet, _check_bound, _commutator_mismatch, _delta,
                 _solve_boundary, default_null_homotopies, dual,
                 dual_morphism, mf_rename, null_homotopy_search, tensor)
from .residue import JacobiRing
from .ring import (ContextMismatch, Poly, RingContext, _poly, _restrict,
                   _runs, _terms_iadd, _terms_mul, embed, embed_matrix,
                   partial_derivative, primed_name, rename_matrix,
                   substitute)
from .unit import (KoszulUnit, _onto_action, _section, _subset_products,
                   _unit_quotients, fresh_names, koszul_unit,
                   unit_action_left, unit_action_right)


class DefectEnd:
    """One end of a defect X: its potential, variables and side.

    ``side`` ("source" or "target") fixes the sign of the end's default
    null-homotopies.  Built on first use and kept: the end's Jacobi ring,
    its Koszul unit, the difference quotients of d_X between the unit's
    variables and their primes, and Lambda, the product of the end's
    verified default null-homotopies.
    """

    def __init__(self, base: MatrixFactorisation, potential: Poly,
                 side: str):
        self.base = base
        self.potential = potential
        self.names = tuple(potential.ctx.names)
        self.side = side

    @cached_property
    def ring(self) -> JacobiRing:
        """Jac of the end's potential; building it certifies the potential."""
        return JacobiRing(self.potential)

    @cached_property
    def unit(self) -> KoszulUnit:
        self.ring                           # certify the potential first
        return koszul_unit(self.potential)

    @cached_property
    def quotients(self) -> list:
        return _unit_quotients(self.base, self.unit)

    @cached_property
    def Lambda(self) -> list:
        return default_null_homotopies(self.base, self.names,
                                       side=self.side).product()


@dataclass(frozen=True)
class _Side:
    """All that tells one adjunction from the other.

    ``ends`` reads (near, far) off a defect: coev runs through the near
    end's unit, ev integrates over the near variables into the far end's
    unit, and the adjoint is the dual shifted by k, the near end's variable
    count.  With ``dual_first`` coev lands in adjoint (x) X, ev starts from
    X (x) adjoint, the quotients multiply descending, D[i_l] ... D[i_1], and
    the adjoint's suspension sits on its left, so its differential picks up
    (-1)^k; without it each is the other way round.  The signs are exponents
    of -1 at X's basis vector of parity p in the theta_S row (ev, l = |S|)
    or column (coev, l = |B|, s the wedge sign of S and its complement B).
    ``action`` is the snake's unit action and ``suffix`` ends the kinds.
    """

    ends: Callable
    dual_first: bool
    coev_sign: Callable
    ev_sign: Callable
    suffix: str
    action: Callable

    def strides(self, r: int) -> tuple:
        """(sx, sa): the coev row pairing X's basis vector x with the
        adjoint's a is x * sx + a * sa, and the ev column x * sa + a * sx."""
        return (1, r) if self.dual_first else (r, 1)


_SIDES = {
    "right": _Side(ends=attrgetter("source", "target"), dual_first=True,
                   coev_sign=lambda l, s, k, p: (l + 1) * p + s,
                   ev_sign=lambda l, k, p: l + (k + 1) * p,
                   suffix="_tilde", action=unit_action_right),
    "left": _Side(ends=attrgetter("target", "source"), dual_first=False,
                  coev_sign=lambda l, s, k, p: (signs.binom2(l + 1) + s + k
                                                + k * l),
                  ev_sign=lambda l, k, p: signs.binom2(l) + l * p + k,
                  suffix="", action=unit_action_left),
}


class AdjointData:
    """A factorisation of V - W together with its two adjoints and ends.

    ``source`` is the end of W, in the source variables, and ``target`` the
    end of V, in the target variables; the base factorisation must satisfy
    d^2 = (V - W) * Id over the joint context.  Both potentials are
    certified at construction, by building the ends' Jacobi rings.

    The rest is built once, on first use, and kept: each side's adjoint,
    each end's unit, quotients and Lambda (see ``DefectEnd``), and each
    side's coevaluation (through the unit of its near end).
    ``coev(data, side)`` and every ``EvCoevMaps`` of this defect hold the
    same kept objects, and a Zorro check only reads them; callers must not
    change their matrices or homotopy entries either.
    """

    def __init__(self, base: MatrixFactorisation, W: Poly, V: Poly):
        self.base = base
        self.source = DefectEnd(base, W, "source")
        self.target = DefectEnd(base, V, "target")
        src, tgt = self.source.names, self.target.names
        overlap = set(src) & set(tgt)
        if overlap:
            raise ValueError(f"source/target variables overlap: {overlap}")
        ctx = base.ctx
        if embed(V, ctx) - embed(W, ctx) != base.potential:
            raise FactorisationError(
                "base potential is not (target) - (source)")
        self.n = len(src)
        self.m = len(tgt)
        self.source.ring, self.target.ring      # certify both potentials
        clash = {primed_name(nm) for nm in src + tgt} & set(ctx.names)
        if clash:
            raise ValueError(f"primed copies collide with base names: {clash}")
        self._adjoints = {}
        self._coevs = {}

    def ends(self, side: str) -> tuple:
        """(near, far) of ``side``: 'right' is read at the source end and
        'left' at the target end.  Raises ValueError on another side."""
        if side not in _SIDES:
            raise ValueError("side must be 'left' or 'right'")
        return _SIDES[side].ends(self)

    # The adjoints are read only by ev/coev, the Zorro moves and the
    # adjunction maps; each is built on first use from one shared dual.
    @cached_property
    def _dual(self) -> MatrixFactorisation:
        return dual(self.base)

    def adjoint(self, side: str) -> MatrixFactorisation:
        """The adjoint of ``side``: X^dagger = R[n] (x) Xv ('right') or
        dagger-X = Xv (x) S[m] ('left'), see ``_Side``."""
        adj = self._adjoints.get(side)
        if adj is None:
            near, _ = self.ends(side)
            adj = dl = self._dual
            if len(near.names) % 2:
                adj = MatrixFactorisation(
                    dl.ctx, dl.potential, tuple(p ^ 1 for p in dl.parity),
                    polymat.mat_scale(dl.d, -1) if _SIDES[side].dual_first
                    else dl.d, validate=False)
            self._adjoints[side] = adj
        return adj


@dataclass
class KoszulValuedMap:
    """A 2-morphism one of whose ends is a Koszul unit.

    For the coevaluations the matrix is an honest polynomial morphism matrix
    (columns over the unit basis).  For the evaluations the entries are
    residue integrands: row S, column c holds the numerator whose residue
    against the stored denominators gives the theta_S-component of the image
    of basis vector c.  Equality, closedness and homotopy for the residue
    case are decided by congruence modulo the denominator ideal.
    """

    kind: str
    source: MatrixFactorisation
    target: MatrixFactorisation
    parity: int
    mat: list
    integration_names: tuple = ()
    denominators: tuple = ()

    @property
    def residue_valued(self) -> bool:
        return bool(self.integration_names)

    def as_morphism(self) -> Morphism:
        if self.residue_valued:
            raise ValueError("residue-valued map has no polynomial matrix")
        return Morphism(self.source, self.target, self.parity, self.mat)

    def _joint_ctx(self) -> RingContext:
        ctx = self.target.ctx.merge(self.source.ctx)
        for row in self.mat:
            for e in row:
                ctx = ctx.merge(e.ctx)
        return ctx

    def denominator_gb(self, ctx: RingContext):
        if not self.denominators:
            return None
        return groebner([embed(f, ctx) for f in self.denominators])

    def is_closed(self) -> bool:
        """delta(K) = 0, modulo the denominator ideal for residue maps."""
        ctx = self._joint_ctx()
        gb = self.denominator_gb(ctx)
        bnd = _delta(self.target.d, self.mat, self.source.d, self.parity, ctx)
        return all((e if gb is None else normal_form(e, gb)).is_zero()
                   for row in bnd for e in row)


@dataclass
class EvCoevMaps:
    coev_tilde: KoszulValuedMap
    coev: KoszulValuedMap
    ev_tilde: KoszulValuedMap
    ev: KoszulValuedMap


def _verify_homotopies(end: DefectEnd, hs: NullHomotopySet) -> None:
    """Raise unless a supplied set is null-homotopies of the defect at
    ``end``, which ``ev`` then reads in place of the end's kept Lambda."""
    if tuple(hs.order) != end.names:
        raise ValueError(f"homotopy set order must be {end.names}")
    sgn = -1 if end.side == "source" else 1
    for name in end.names:
        if _commutator_mismatch(end.base, hs.entries[name].mat, name,
                                sgn) is not None:
            raise FactorisationError(
                f"supplied homotopy for {name} fails verification")


def _with_adjoint(data, side, dual_first, unit) -> MatrixFactorisation:
    """adjoint (x) X, or X (x) adjoint, with the second factor's copy of the
    unit's variables primed."""
    pair = (data.adjoint(side), data.base)
    first, second = pair if dual_first else pair[::-1]
    return tensor(first, mf_rename(second, dict(unit.pairs)))


def coev(data: AdjointData, side: str) -> KoszulValuedMap:
    """The coevaluation of ``side``, in divided-difference form.

    The basis element theta_S of the near end's unit, with complement
    b_1 < ... < b_l and sign s from theta_S ^ theta_B = (-1)^s theta_top,
    maps as follows, interpolating the near variables against their primes.
    'right' (kind coev_tilde), Delta_W -> X^dagger (x) X: to
    sum_{i,j} (-1)^{(l+1)|e_j| + s} {del_[b_l] d ... del_[b_1] d}_{ji}
    e_i^* (x) e_j.
    'left' (kind coev), Delta_V -> X (x) dagger-X: to
    sum_{i,j} (-1)^{binom(l+1,2) + s + m + ml}
    {del_[b_1] d ... del_[b_l] d}_{ij} e_i (x) e_j^*.
    The map is built once per defect and kept (see ``AdjointData``).
    """
    kept = data._coevs.get(side)
    if kept is not None:
        return kept
    near, _ = data.ends(side)
    sd = _SIDES[side]
    X = data.base
    unit = near.unit
    k = len(near.names)
    T = _with_adjoint(data, side, sd.dual_first, unit)
    ctx = T.ctx
    r = X.rank
    prods = _subset_products(unit.subsets, polymat.identity(ctx, r),
                             near.quotients, left=sd.dual_first)
    sx, sa = sd.strides(r)
    mat = polymat.zeros(ctx, T.rank, unit.rank)
    for c, S in enumerate(unit.subsets):
        s, comp = signs.wedge_complement_sign(S, k)
        l = len(comp)
        prod = prods[comp]
        for x in range(r):
            sgn = signs.minus_one_to(sd.coev_sign(l, s, k, X.parity[x]))
            for a, e in enumerate(prod[x]):
                if not e.is_zero():
                    mat[x * sx + a * sa][c] = e * sgn
    kept = data._coevs[side] = KoszulValuedMap(
        kind="coev" + sd.suffix, source=unit, target=T, parity=0, mat=mat)
    return kept


def ev(data: AdjointData, side: str,
       homotopies: NullHomotopySet | None = None) -> KoszulValuedMap:
    """The evaluation of ``side``, residue-valued.

    It lands in the far end's unit; the theta_{i_1}...theta_{i_l} component,
    over subsets i_1 < ... < i_l, is the residue over the near variables,
    against the partials of the near potential, of the following.
    'right' (kind ev_tilde), X (x) X^dagger -> Delta_V: g e_j (x) e_i^*
    goes to (-1)^{l + (n+1)|e_j|}
    {del_[i_l] d ... del_[i_1] d Lambda^(x)}_{ij} g.
    'left' (kind ev), dagger-X (x) X -> Delta_W: e_i^* (x) g e_j goes to
    (-1)^{binom(l,2) + l|e_j| + m}
    {Lambda^(z) del_[i_1] d ... del_[i_l] d}_{ij} g.
    Lambda is the near end's kept one without ``homotopies``; a supplied
    set is verified on every call.
    """
    near, far = data.ends(side)
    sd = _SIDES[side]
    Lam = near.Lambda
    if homotopies is not None:
        _verify_homotopies(near, homotopies)
        Lam = homotopies.product()
    unit = far.unit
    T = _with_adjoint(data, side, not sd.dual_first, unit)
    ctx = T.ctx
    Lam = embed_matrix(Lam, ctx)
    prods = _subset_products(unit.subsets, Lam, far.quotients,
                             left=sd.dual_first)
    mat = polymat.zeros(ctx, unit.rank, T.rank)
    for row, S in enumerate(unit.subsets):
        _ev_row(data, sd, mat[row], prods[S], len(S))
    return KoszulValuedMap(kind="ev" + sd.suffix, source=T, target=unit,
                           parity=0, mat=mat,
                           integration_names=near.names,
                           denominators=_partials(near.potential))


def _ev_row(data: AdjointData, sd: _Side, out, prod, l):
    """Fill ``out`` with the theta_S row of the evaluation of ``sd``, for
    |S| = l and prod the product of Lambda and the quotients over S."""
    X = data.base
    r = X.rank
    k = len(sd.ends(data)[0].names)
    sx, sa = sd.strides(r)
    for x in range(r):
        sgn = signs.minus_one_to(sd.ev_sign(l, k, X.parity[x]))
        for a in range(r):
            e = prod[a][x]
            if not e.is_zero():
                out[x * sa + a * sx] = e * sgn


def _partials(W: Poly) -> tuple:
    """The residue denominators of an evaluation: the partials of W."""
    return tuple(partial_derivative(W, v) for v in W.ctx.names)


def ev_coev_maps(data: AdjointData) -> EvCoevMaps:
    """The four structure maps from the defect's kept ingredients."""
    return EvCoevMaps(coev_tilde=coev(data, "right"), coev=coev(data, "left"),
                      ev_tilde=ev(data, "right"), ev=ev(data, "left"))


# -- dual morphisms -----------------------------------------------------------

def adjoint_dual_morphism(phi: Morphism, data_src: AdjointData,
                          data_tgt: AdjointData, side: str) -> Morphism:
    """The dual of phi: X -> Y (same W, V) between the adjoints of ``side``.

    'right': phi^dagger: Y^dagger -> X^dagger, signed (-1)^{n|phi|};
    'left': dagger-phi: dagger-Y -> dagger-X, signed (-1)^{m|phi|}.
    Raises ValueError unless phi runs from data_src's base to data_tgt's.
    """
    near, _ = data_src.ends(side)
    if phi.source is not data_src.base or phi.target is not data_tgt.base:
        raise ValueError("phi must run from data_src's base to data_tgt's")
    sign = signs.minus_one_to(len(near.names) * phi.parity)
    mat = [[e * sign for e in row] for row in dual_morphism(phi).mat]
    return Morphism(data_tgt.adjoint(side), data_src.adjoint(side),
                    phi.parity, mat)


# -- kernel homotopies --------------------------------------------------------

def kernel_homotopy_search(delta: KoszulValuedMap):
    """A matrix H with boundary(H) = delta modulo the denominator ideal.

    H has parity delta.parity + 1 and entries of degree at most the largest
    of delta's plus the largest of the two differentials'; returns the entry
    matrix or None.  For maps without integration data this is plain exact
    null-homotopy search.
    """
    ctx = delta._joint_ctx()
    gb = delta.denominator_gb(ctx)
    degs = [e.total_degree() for row in delta.mat for e in row
            if not e.is_zero()]
    degree_bound = (max(degs) if degs else 0) + max(
        delta.source.max_entry_degree(), delta.target.max_entry_degree())
    return _solve_boundary(delta.source, delta.target, (delta.parity + 1) % 2,
                           degree_bound, ctx, delta.mat,
                           reduce=None if gb is None
                           else lambda p: normal_form(p, gb))


# -- Zorro composites ---------------------------------------------------------

def zorro_composite(data: AdjointData, side: str) -> Morphism:
    """The snake composite X -> X of the adjunction of ``side``.

    side='right': lambda o (ev_tilde (x) 1) o (1 (x) coev_tilde) o rho^{-1};
    side='left':  rho o (1 (x) ev) o (coev (x) 1) o lambda^{-1}.
    The middle copies are contracted only at the final unit-action stage, and
    the residues are taken over the shared middle copy of the near end's
    variables with the residue functional of that end's Jacobi ring, read
    over the middle names.  The unit action keeps theta-degree 0 only, so of
    the evaluation just its row theta_{} (+-Lambda) is formed.

    The contraction forms only the terms the functional reads.  Every factor
    is split by its exponent on the middle variables; a coev-times-section
    term is formed only if its middle exponent can still reach the
    functional's support through some term of the evaluation entry it meets,
    and an evaluation term only if the product lands on the support.
    """
    near, far = data.ends(side)
    sd = _SIDES[side]
    X = data.base
    r = X.rank
    unit = near.unit
    act = sd.action(X, unit)
    P = _section(X, unit, act, _onto_action(near.quotients, unit, act))
    C = coev(data, side)
    mids, w = _snake_names(X, act, unit, far.names)
    # coev's adjoint copy of the near variables meets the section at the
    # middles and its copy in X is kept; its far variables become w.  The
    # evaluation's far variables are those of its first factor: X's, which
    # it shares with the section, or the adjoint's, which it shares with coev
    adj, own = ((unit.base_names, unit.prime_names) if sd.dual_first
                else (unit.prime_names, unit.base_names))
    cmap = dict(zip(adj + own + far.names, mids + near.names + w))
    emap = dict(zip(near.names + far.names,
                    mids + (far.names if sd.dual_first else w)))
    # the ring's support is positional: its variables must be the unit's,
    # in the order the middles copy them
    if tuple(near.ring.ctx.names) != tuple(unit.base_names):
        raise ContextMismatch(f"unit variables {unit.base_names} are not "
                              f"those of {near.ring}")
    plan = near.ring.residue_plan().over(mids)
    ctx = X.ctx.extend(mids).extend(w)
    # a term's middle exponent: its fields at the middles, moved to the
    # fields of the plan's layout (one run when the middles are adjacent)
    sub = near.ring.ctx
    where = {ctx.index(n): k for k, n in enumerate(mids)}
    runs = _runs(len(ctx), [where.get(i) for i in range(len(ctx))],
                 len(mids), degree=False)
    fields = sub.field_mask(range(len(mids)))
    support = {m & fields for m in plan.support}
    Pm = [[_by_middle(e, runs) for e in row]
          for row in embed_matrix(P.mat, ctx)]
    Cm = [[_by_middle(e, runs) for e in row]
          for row in rename_matrix(C.mat, cmap, target_ctx=ctx)]
    K0 = [X.ctx.zero()] * (r * r)
    _ev_row(data, sd, K0, near.Lambda, 0)
    K0 = [_by_middle(e, runs)
          for e in rename_matrix([K0], emap, target_ctx=ctx)[0]]
    # reach[e]: the middle exponents from which a term of K0[e] lands on the
    # support
    guard = sub._guard
    reach = [{m - k for k in k0 for m in support if not (m - k) & guard}
             for k0 in K0]
    back = dict(zip(w, far.names))
    # row t of P is the tensor basis vector (x_t, theta_s) of the unit
    # action; coev row x*sx + a*sa meets the evaluation at its column
    # x_t*sa + a*sx and leaves x as the output row
    sx, sa = sd.strides(r)
    meets = [((pair // sx) % r, (pair // sa) % r * sx)
             for pair in range(r * r)]
    read = plan.placed(ctx)
    out = polymat.zeros(X.ctx, r, r)
    for q in range(r):
        colQ = {}
        for t, row in enumerate(Pm):
            p = row[q]
            if not p:
                continue
            x, s = act._component(t)
            for pair in range(r * r):
                ce = Cm[pair][s]
                if not ce:
                    continue
                o, off = meets[pair]
                key = (x * sa + off, o)
                wanted = reach[key[0]]
                if wanted:
                    _contract(colQ.setdefault(key, {}), ce, p, wanted)
        acc = [{} for _ in range(r)]
        for (e, o), val in colQ.items():
            _contract(acc[o], K0[e], val, support)
        for o in range(r):
            terms = {}
            for group in acc[o].values():
                terms.update(group)
            num = substitute(_poly(ctx, terms), back, target_ctx=ctx)
            out[o][q] = _project(read(num), X.ctx)
    return Morphism(X, X, 0, out)


def _by_middle(p: Poly, runs) -> dict:
    """p's terms grouped by their middle exponent, the exponent fields that
    ``runs`` (see ``ring._runs``) move out of each key."""
    out = {}
    for exp, c in p.packed.items():
        key = 0
        for lo, mask, to in runs:
            key += (exp >> lo & mask) << to
        group = out.get(key)
        if group is None:
            out[key] = {exp: c}
        else:
            group[exp] = c
    return out


def _contract(out, a, b, wanted):
    """Add to ``out`` the part of a * b whose middle exponent is in
    ``wanted``; a, b and out are grouped by middle exponent (``_by_middle``),
    and no other product term is formed.  The middle exponent of a product
    is the sum of its factors': a field that passes its guard bit there is
    in no wanted exponent."""
    for ma, ta in a.items():
        for mb, tb in b.items():
            m = ma + mb
            if m in wanted:
                prod = _terms_mul(ta, tb)
                have = out.get(m)
                out[m] = prod if have is None else _terms_iadd(have, prod)


def _snake_names(X, act, unit, others):
    """The middle copy contracted by ``act`` and fresh names for the other
    side's variables, avoiding every name already in play."""
    mids = tuple(act.contraction.keys())
    taken = set(X.ctx.names).union(mids, unit.prime_names)
    return mids, fresh_names(others, taken)


def _project(p: Poly, ctx: RingContext) -> Poly:
    q = _restrict(p, ctx)
    if q is None:
        raise ContextMismatch(
            f"composite entry {p} retains auxiliary variables")
    return q


def zorro_check(data: AdjointData, degree_bound: int | None = None) -> dict:
    """Both snake composites with identity-up-to-homotopy witnesses."""
    _check_bound(degree_bound)
    X = data.base
    ident = Morphism(X, X, 0, polymat.identity(X.ctx, X.rank))
    report = {}
    for side in ("right", "left"):
        Z = zorro_composite(data, side)
        if Z == ident:
            report[side] = {"matrix": Z, "exact": True, "witness": None,
                               "ok": True}
            continue
        wit = null_homotopy_search(Z - ident, degree_bound)
        report[side] = {"matrix": Z, "exact": False, "witness": wit,
                           "ok": wit is not None}
    report["ok"] = report["right"]["ok"] and report["left"]["ok"]
    return report
