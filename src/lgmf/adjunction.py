"""Adjoints of matrix factorisations and the four evaluation/coevaluation maps.

A 1-morphism X from W (variables x_1..x_n) to V (variables z_1..z_m) is a
factorisation of V - W.  Its right adjoint is the shifted dual X^(n) and its
left adjoint X^(m); the four structure maps are given in closed
divided-difference and residue form, and the Zorro composites are assembled
as executable identity-up-to-homotopy checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import polymat, signs
from .ideal import groebner, normal_form
from .mf import (FactorisationError, MatrixFactorisation, Morphism,
                 NullHomotopySet, _check_bound, _commutator_mismatch, _delta,
                 _solve_boundary, default_null_homotopies, dual,
                 dual_morphism, mf_rename, null_homotopy_search, shift, tensor)
from .residue import JacobiRing
from .ring import (ContextMismatch, Poly, RingContext, _poly, _restrict,
                   _runs, _terms_add, _terms_mul, embed, embed_matrix,
                   partial_derivative, primed_name, rename_matrix,
                   substitute)
from .unit import (KoszulUnit, _lambda_inverse, _onto_action, _rho_inverse,
                   _subset_products, _unit_quotients, fresh_names,
                   koszul_unit, unit_action_left, unit_action_right)


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


class AdjointData:
    """A factorisation of V - W together with its two adjoints and ends.

    ``source`` is the end of W, in the source variables, and ``target`` the
    end of V, in the target variables; the base factorisation must satisfy
    d^2 = (V - W) * Id over the joint context.  Both potentials are
    certified at construction, by building the ends' Jacobi rings.

    The rest is built once, on first use, and kept: the adjoints, each end's
    unit, quotients and Lambda (see ``DefectEnd``), and the two
    coevaluations (coev_tilde through the source unit, coev through the
    target unit).
    ``coev_tilde(data)``, ``coev(data)`` and every ``EvCoevMaps`` of this
    defect hold the same kept objects, and a Zorro check only reads them;
    callers must not change their matrices or homotopy entries either.
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

    # The adjoints are read only by ev/coev, the Zorro moves and the
    # adjunction maps; each is built on first use from one shared dual.
    @cached_property
    def _dual(self) -> MatrixFactorisation:
        return dual(self.base)

    @cached_property
    def right_adjoint(self) -> MatrixFactorisation:
        """R[n] (x) Xv: the suspension sits on the left, so the differential
        picks up (-1)^n."""
        return shift(self._dual, self.n)

    @cached_property
    def left_adjoint(self) -> MatrixFactorisation:
        """Xv (x) S[m]: the suspension sits on the right, so the parity flips
        with m but the differential is unchanged."""
        dl = self._dual
        if self.m % 2 == 0:
            return dl
        return MatrixFactorisation(
            dl.ctx, dl.potential, tuple(p ^ 1 for p in dl.parity), dl.d,
            validate=False)

    @cached_property
    def _coev_tilde(self) -> "KoszulValuedMap":
        return _build_coev_tilde(self)

    @cached_property
    def _coev(self) -> "KoszulValuedMap":
        return _build_coev(self)


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
    ``end``."""
    if tuple(hs.order) != end.names:
        raise ValueError(f"homotopy set order must be {end.names}")
    sgn = -1 if end.side == "source" else 1
    for name in end.names:
        if _commutator_mismatch(end.base, hs.entries[name].mat, name,
                                sgn) is not None:
            raise FactorisationError(
                f"supplied homotopy for {name} fails verification")


def _lambda(end: DefectEnd, hs: NullHomotopySet | None) -> list:
    """The end's kept Lambda, or the product of a supplied set once it is
    verified."""
    if hs is None:
        return end.Lambda
    _verify_homotopies(end, hs)
    return hs.product()


def coev_tilde(data: AdjointData) -> KoszulValuedMap:
    """Delta_W -> X^dagger (x) X, in divided-difference form.

    The basis element theta_S of the unit, with complement b_1 < ... < b_l and
    sign s from theta_S ^ theta_B = (-1)^s theta_top, maps to
    sum_{i,j} (-1)^{(l+1)|e_j| + s} {del_[b_l] d ... del_[b_1] d}_{ji}
    e_i^* (x) e_j, interpolating the source variables against their primes.
    The map is built once per defect and kept (see ``AdjointData``).
    """
    return data._coev_tilde


def _build_coev_tilde(data: AdjointData) -> KoszulValuedMap:
    X = data.base
    unit = data.source.unit
    Xd = data.right_adjoint
    Xp = mf_rename(X, dict(zip(unit.base_names, unit.prime_names)))
    T = tensor(Xd, Xp)
    ctx = T.ctx
    r = X.rank
    # del_[b_l] ... del_[b_1] for every complement B
    prods = _subset_products(unit.subsets, polymat.identity(ctx, r),
                             data.source.quotients, left=True)
    mat = polymat.zeros(ctx, T.rank, unit.rank)
    for c, S in enumerate(unit.subsets):
        s, comp = signs.wedge_complement_sign(S, data.n)
        l = len(comp)
        prod = prods[comp]
        for i in range(r):
            for j in range(r):
                if prod[j][i].is_zero():
                    continue
                sgn = signs.minus_one_to((l + 1) * X.parity[j] + s)
                mat[i * r + j][c] = prod[j][i] * sgn
    return KoszulValuedMap(kind="coev_tilde", source=unit, target=T,
                           parity=0, mat=mat)


def coev(data: AdjointData) -> KoszulValuedMap:
    """Delta_V -> X (x) dagger-X, in divided-difference form.

    theta_S with complement b_1 < ... < b_l and sign s maps to
    sum_{i,j} (-1)^{binom(l+1,2) + s + m + ml}
    {del_[b_1] d ... del_[b_l] d}_{ij} e_i (x) e_j^*.
    The map is built once per defect and kept (see ``AdjointData``).
    """
    return data._coev


def _build_coev(data: AdjointData) -> KoszulValuedMap:
    X = data.base
    unit = data.target.unit
    Xl = mf_rename(data.left_adjoint,
                   dict(zip(unit.base_names, unit.prime_names)))
    T = tensor(X, Xl)
    ctx = T.ctx
    r = X.rank
    # del_[b_1] ... del_[b_l] for every complement B
    prods = _subset_products(unit.subsets, polymat.identity(ctx, r),
                             data.target.quotients, left=False)
    mat = polymat.zeros(ctx, T.rank, unit.rank)
    for c, S in enumerate(unit.subsets):
        s, comp = signs.wedge_complement_sign(S, data.m)
        l = len(comp)
        prod = prods[comp]
        for i in range(r):
            for j in range(r):
                if prod[i][j].is_zero():
                    continue
                e = signs.binom2(l + 1) + s + data.m + data.m * l
                mat[i * r + j][c] = prod[i][j] * signs.minus_one_to(e)
    return KoszulValuedMap(kind="coev", source=unit, target=T,
                           parity=0, mat=mat)


def ev_tilde(data: AdjointData,
             homotopies: NullHomotopySet | None = None) -> KoszulValuedMap:
    """X (x) X^dagger -> Delta_V, residue-valued.

    g e_j (x) e_i^* goes to sum over subsets i_1 < ... < i_l of
    (-1)^{l + (n+1)|e_j|} theta_{i_1}...theta_{i_l} times the x-residue of
    {del_[i_l] d ... del_[i_1] d Lambda^(x)}_{ij} g against the partials of W.
    Lambda^(x) is the source end's kept one without ``homotopies``; a
    supplied set is verified on every call.
    """
    Lam = _lambda(data.source, homotopies)
    X = data.base
    unit = data.target.unit
    Xd = mf_rename(data.right_adjoint,
                   dict(zip(unit.base_names, unit.prime_names)))
    T = tensor(X, Xd)
    ctx = T.ctx
    Lam = embed_matrix(Lam, ctx)
    # del_[i_l] ... del_[i_1] Lambda for every subset
    prods = _subset_products(unit.subsets, Lam, data.target.quotients,
                             left=True)
    mat = polymat.zeros(ctx, unit.rank, T.rank)
    for row, S in enumerate(unit.subsets):
        _ev_tilde_row(data, mat[row], prods[S], len(S))
    return KoszulValuedMap(kind="ev_tilde", source=T, target=unit,
                           parity=0, mat=mat,
                           integration_names=data.source.names,
                           denominators=_partials(data.source.potential))


def _ev_tilde_row(data: AdjointData, out, prod, l):
    """Fill ``out`` (column j*r + i) with the theta_S row of ev_tilde, for
    |S| = l and prod = del_[i_l] ... del_[i_1] Lambda."""
    X = data.base
    r = X.rank
    for j in range(r):
        sgn = signs.minus_one_to(l + (data.n + 1) * X.parity[j])
        for i in range(r):
            if not prod[i][j].is_zero():
                out[j * r + i] = prod[i][j] * sgn


def _partials(W: Poly) -> tuple:
    """The residue denominators of an evaluation: the partials of W."""
    return tuple(partial_derivative(W, v) for v in W.ctx.names)


def ev(data: AdjointData,
       homotopies: NullHomotopySet | None = None) -> KoszulValuedMap:
    """dagger-X (x) X -> Delta_W, residue-valued (the mirrored formula).

    e_i^* (x) g e_j goes to sum over subsets i_1 < ... < i_l of
    (-1)^{binom(l,2) + l|e_j| + m} theta_{i_1}...theta_{i_l} times the
    z-residue of {Lambda^(z) del_[i_1] d ... del_[i_l] d}_{ij} g against the
    partials of V.  Homotopies as for ``ev_tilde``, at the target end.
    """
    Lam = _lambda(data.target, homotopies)
    X = data.base
    unit = data.source.unit
    Xp = mf_rename(X, dict(zip(unit.base_names, unit.prime_names)))
    T = tensor(data.left_adjoint, Xp)
    ctx = T.ctx
    Lam = embed_matrix(Lam, ctx)
    # Lambda del_[i_1] ... del_[i_l] for every subset
    prods = _subset_products(unit.subsets, Lam, data.source.quotients,
                             left=False)
    mat = polymat.zeros(ctx, unit.rank, T.rank)
    for row, S in enumerate(unit.subsets):
        _ev_row(data, mat[row], prods[S], len(S))
    return KoszulValuedMap(kind="ev", source=T, target=unit,
                           parity=0, mat=mat,
                           integration_names=data.target.names,
                           denominators=_partials(data.target.potential))


def _ev_row(data: AdjointData, out, prod, l):
    """Fill ``out`` (column i*r + j) with the theta_S row of ev, for |S| = l
    and prod = Lambda del_[i_1] ... del_[i_l]."""
    X = data.base
    r = X.rank
    for j in range(r):
        sgn = signs.minus_one_to(signs.binom2(l) + l * X.parity[j] + data.m)
        for i in range(r):
            if not prod[i][j].is_zero():
                out[i * r + j] = prod[i][j] * sgn


def ev_coev_maps(data: AdjointData) -> EvCoevMaps:
    """The four structure maps from the defect's kept ingredients."""
    return EvCoevMaps(coev_tilde=coev_tilde(data), coev=coev(data),
                      ev_tilde=ev_tilde(data), ev=ev(data))


# -- dual morphisms -----------------------------------------------------------

def adjoint_dual_morphism(phi: Morphism, data_src: AdjointData,
                          data_tgt: AdjointData, side: str) -> Morphism:
    """The dual of phi: X -> Y (same W, V) between the adjoints of ``side``.

    'right': phi^dagger: Y^dagger -> X^dagger, signed (-1)^{n|phi|};
    'left': dagger-phi: dagger-Y -> dagger-X, signed (-1)^{m|phi|}.
    """
    if side == "right":
        k, adjoint = data_src.n, "right_adjoint"
    elif side == "left":
        k, adjoint = data_src.m, "left_adjoint"
    else:
        raise ValueError("side must be 'left' or 'right'")
    sign = signs.minus_one_to(k * phi.parity)
    mat = [[e * sign for e in row] for row in dual_morphism(phi).mat]
    return Morphism(getattr(data_tgt, adjoint), getattr(data_src, adjoint),
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


def kvm_difference(a: KoszulValuedMap, b: KoszulValuedMap) -> KoszulValuedMap:
    """a - b as a map with a's shape (integration data must agree)."""
    if (a.integration_names != b.integration_names
            or len(a.mat) != len(b.mat)):
        raise ValueError("maps have incompatible shapes")
    ctx = a._joint_ctx().merge(b._joint_ctx())
    mat = polymat.mat_sub(embed_matrix(a.mat, ctx), embed_matrix(b.mat, ctx))
    return KoszulValuedMap(kind=f"{a.kind}-diff", source=a.source,
                           target=a.target, parity=a.parity,
                           mat=mat, integration_names=a.integration_names,
                           denominators=a.denominators)


# -- Zorro composites ---------------------------------------------------------

def zorro_composite(data: AdjointData, variant: str) -> Morphism:
    """The snake composite X -> X for either adjunction.

    variant='right': lambda o (ev_tilde (x) 1) o (1 (x) coev_tilde) o rho^{-1};
    variant='left':  rho o (1 (x) ev) o (coev (x) 1) o lambda^{-1}.
    The middle copies are contracted only at the final unit-action stage, and
    the residues are taken over the shared middle source copy with the
    residue functional of the Jacobi ring of the defect's end (the source
    end for 'right', the target end for 'left'), read over the middle names.
    The unit action keeps theta-degree 0 only, so of the evaluation just its
    row theta_{} (+-Lambda) is formed.

    The contraction forms only the terms the functional reads.  Every factor
    is split by its exponent on the middle variables; a coev-times-section
    term is formed only if its middle exponent can still reach the
    functional's support through some term of the evaluation entry it meets,
    and an evaluation term only if the product lands on the support.
    """
    if variant not in ("right", "left"):
        raise ValueError("variant must be 'right' or 'left'")
    X = data.base
    r = X.rank
    src, tgt = data.source.names, data.target.names
    end, other = ((data.source, data.target) if variant == "right"
                  else (data.target, data.source))
    unit = end.unit
    if variant == "right":
        act = unit_action_right(X, unit)
        P = _rho_inverse(X, unit, act, _onto_action(end.quotients, unit, act))
        C = coev_tilde(data)
        ev_row = _ev_tilde_row
        mids, w = _snake_names(X, act, unit, other.names)
        cmap = dict(zip(src + unit.prime_names + tgt, mids + src + w))
        emap = dict(zip(src, mids))

        def route(x, i, j):                 # (ev index, output row)
            return x * r + i, j
    else:
        act = unit_action_left(X, unit)
        P = _lambda_inverse(X, unit, act,
                            _onto_action(end.quotients, unit, act))
        C = coev(data)
        ev_row = _ev_row
        mids, w = _snake_names(X, act, unit, other.names)
        cmap = dict(zip(unit.prime_names + src, mids + w))
        emap = dict(zip(src + tgt, w + mids))

        def route(x, i, j):
            return j * r + x, i
    # the ring's support is positional: its variables must be the unit's,
    # in the order the middles copy them
    if tuple(end.ring.ctx.names) != tuple(unit.base_names):
        raise ContextMismatch(f"unit variables {unit.base_names} are not "
                              f"those of {end.ring}")
    plan = end.ring.residue_plan().over(mids)
    ctx = X.ctx.extend(mids).extend(w)
    # a term's middle exponent: its fields at the middles, moved to the
    # fields of the plan's layout (one run when the middles are adjacent)
    sub = end.ring.ctx
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
    ev_row(data, K0, end.Lambda, 0)
    K0 = [_by_middle(e, runs)
          for e in rename_matrix([K0], emap, target_ctx=ctx)[0]]
    # reach[e]: the middle exponents from which a term of K0[e] lands on the
    # support
    guard = sub._guard
    reach = [{m - k for k in k0 for m in support if not (m - k) & guard}
             for k0 in K0]
    back = dict(zip(w, other.names))
    # row t of P is the tensor basis vector (x_t, theta_s) of the unit action;
    # coev pair (i, j) is the coev row i*r + j
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
                key = route(x, *divmod(pair, r))
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
                out[m] = prod if have is None else _terms_add(have, prod)


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
    for variant in ("right", "left"):
        Z = zorro_composite(data, variant)
        if Z == ident:
            report[variant] = {"matrix": Z, "exact": True, "witness": None,
                               "ok": True}
            continue
        wit = null_homotopy_search(Z - ident, degree_bound)
        report[variant] = {"matrix": Z, "exact": False, "witness": wit,
                           "ok": wit is not None}
    report["ok"] = report["right"]["ok"] and report["left"]["ok"]
    return report
