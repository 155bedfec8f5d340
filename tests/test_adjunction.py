"""Adjoints, evaluation/coevaluation maps and the Zorro moves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmf import adjunction, mf, polymat
from lgmf import unit as unit_module
from lgmf.adjunction import (AdjointData, adjoint_dual_morphism, coev, ev,
                             ev_coev_maps, kernel_homotopy_search,
                             zorro_check, zorro_composite)
from lgmf.mf import (FactorisationError, Morphism, NullHomotopySet,
                     default_null_homotopies)
from lgmf.residue import JacobiRing, residue_plan
from lgmf.ring import (RingContext, _runs, divided_difference, embed, rename,
                       substitute)
from lgmf.unit import (lambda_inverse, rho_inverse, unit_action_left,
                       unit_action_right)

from conftest import (boundary_defect, corpus_boundary_mfs, delta_defect,
                      kvm_difference, line_defect)
from test_ring import rational_polys


SIDES = ("right", "left")


def _defects():
    return {
        "boundary x^3": boundary_defect(corpus_boundary_mfs()["x^3:(x,x^2)"]),
        "line y^2->x^2": line_defect(2),
        "line y^3->x^3": line_defect(3),
    }


@pytest.fixture(params=["boundary x^3", "line y^2->x^2", "line y^3->x^3"])
def defect(request):
    return _defects()[request.param]


# -- adjoint objects ----------------------------------------------------------

def test_adjoints_are_valid_factorisations(defect):
    # each adjoint factors the negated, swapped potential
    ctx = defect.adjoint("right").ctx
    want = embed(defect.source.potential, ctx) - embed(
        defect.target.potential, ctx)
    for side in SIDES:
        adj = defect.adjoint(side)
        assert not adj.validation_failures()
        assert adj.potential == want
        assert defect.adjoint(side) is adj


def test_all_four_structure_maps_are_closed(defect):
    maps = ev_coev_maps(defect)
    for side, kinds in zip(SIDES, (("coev_tilde", "ev_tilde"),
                                   ("coev", "ev"))):
        for kvm, kind in zip((coev(defect, side), ev(defect, side)), kinds):
            assert kvm.kind == kind
            assert kvm.mat == getattr(maps, kind).mat
            assert kvm.is_closed()


def test_coevaluations_have_polynomial_matrices(defect):
    for side in SIDES:
        kvm = coev(defect, side)
        assert not kvm.residue_valued
        assert kvm.as_morphism().is_closed()
        # evaluations integrate over the near variables, when there are any
        near, _ = defect.ends(side)
        kvm = ev(defect, side)
        assert kvm.integration_names == near.names
        assert kvm.residue_valued == bool(near.names)
        if kvm.residue_valued:
            with pytest.raises(ValueError):
                kvm.as_morphism()


def test_boundary_coev_tilde_starts_with_signed_inclusion():
    data = boundary_defect(corpus_boundary_mfs()["x^3:(x,x^2)"])
    kvm = ev_coev_maps(data).coev_tilde
    col = [row[0] for row in kvm.mat]
    assert col[0].is_constant() and col[0].constant_value() == Fraction(1)
    assert col[3].is_constant() and col[3].constant_value() == Fraction(-1)
    assert col[1].is_zero() and col[2].is_zero()


# -- Zorro moves --------------------------------------------------------------

def test_zorro_moves_hold(defect):
    report = zorro_check(defect)
    assert report["ok"]
    for side in SIDES:
        r = report[side]
        assert r["ok"]
        assert r["exact"] or r["witness"] is not None


def test_zorro_composites_have_identity_class(defect):
    report = zorro_check(defect)
    for side in SIDES:
        comp = report[side]["matrix"]
        assert comp.parity == 0
        if report[side]["exact"]:
            assert comp == comp.source.identity()


# -- the snake contraction against the full product ---------------------------

def _reference_zorro_composite(data, side):
    """The snake composite formed in full, as an independent oracle.

    Forms every product term of K0 * (C * P), K0 the theta_{} row of the
    evaluation written out here, then takes the residue with a plan built
    afresh from the renamed partials of the side's potential.
    """
    X = data.base
    r = X.rank
    src, tgt = data.source.names, data.target.names
    K0 = [X.ctx.zero()] * (r * r)
    if side == "right":
        unit, others = data.source.unit, tgt
        act = unit_action_right(X, unit)
        P = rho_inverse(X, unit, action=act)
        Lam = default_null_homotopies(X, src, side="source").product()
        # e_j (x) e_i^* -> (-1)^{(n+1)|e_j|} Lambda_ij
        for i in range(r):
            for j in range(r):
                sgn = (-1) ** ((data.n + 1) * X.parity[j])
                K0[j * r + i] = Lam[i][j] * sgn
        W = data.source.potential
        mids, w = adjunction._snake_names(X, act, unit, others)
        cmap = dict(zip(src + unit.prime_names + tgt, mids + src + w))
        emap = dict(zip(src, mids))

        def route(x, i, j):
            return x * r + i, j
    else:
        unit, others = data.target.unit, src
        act = unit_action_left(X, unit)
        P = lambda_inverse(X, unit, action=act)
        Lam = default_null_homotopies(X, tgt, side="target").product()
        # e_i^* (x) e_j -> (-1)^m Lambda_ij
        for i in range(r):
            for j in range(r):
                K0[i * r + j] = Lam[i][j] * (-1) ** data.m
        W = data.target.potential
        mids, w = adjunction._snake_names(X, act, unit, others)
        cmap = dict(zip(unit.prime_names + src, mids + w))
        emap = dict(zip(src + tgt, w + mids))

        def route(x, i, j):
            return j * r + x, i
    C = coev(data, side)
    ctx = X.ctx.extend(mids).extend(w)
    Pm = [[embed(e, ctx) for e in row] for row in P.mat]
    Cm = [[rename(e, cmap, target_ctx=ctx) for e in row] for row in C.mat]
    K0 = [rename(e, emap, target_ctx=ctx) for e in K0]
    to_mids = dict(zip(unit.base_names, mids))
    denoms = [rename(f, to_mids, target_ctx=ctx)
              for f in adjunction._partials(W)]
    back = dict(zip(w, others))
    plan = residue_plan(denoms, mids)
    out = polymat.zeros(X.ctx, r, r)
    for q in range(r):
        colQ = {}
        for t, row in enumerate(Pm):
            p = row[q]
            if p.is_zero():
                continue
            x, s = act._component(t)
            for pair in range(r * r):
                ce = Cm[pair][s]
                if not ce.is_zero():
                    key = route(x, *divmod(pair, r))
                    colQ[key] = colQ.get(key, ctx.zero()) + ce * p
        acc = [ctx.zero()] * r
        for (e, o), val in colQ.items():
            if not K0[e].is_zero():
                acc[o] = acc[o] + K0[e] * val
        for o in range(r):
            num = substitute(acc[o], back, target_ctx=ctx)
            out[o][q] = adjunction._project(plan(num), X.ctx)
    return Morphism(X, X, 0, out)


_C1 = RingContext(["x"])
_C2 = RingContext(["x", "y"])
_C3 = RingContext(["x", "y", "z"])


def _klein(a, b, c):
    x, y, z = (_C3.gen(n) for n in _C3.names)
    return a * x ** 3 * y + b * y ** 3 * z + c * z ** 3 * x


def _fermat(a, b, c):
    x, y, z = (_C3.gen(n) for n in _C3.names)
    return a * x ** 3 + b * y ** 3 + c * z ** 3


SNAKE_DEFECTS = {
    "boundary x^3": lambda: _defects()["boundary x^3"],
    "boundary x^3-y^3": lambda: boundary_defect(
        corpus_boundary_mfs()["x^3-y^3:(x-y,x^2+x*y+y^2)"]),
    "line y^2->x^2": lambda: _defects()["line y^2->x^2"],
    "line y^3->x^3": lambda: _defects()["line y^3->x^3"],
    "Delta x^3": lambda: delta_defect(_C1.gen("x") ** 3),
    "Delta x^3+y^3": lambda: delta_defect(
        _C2.gen("x") ** 3 + _C2.gen("y") ** 3),
    "Delta x^4+y^3": lambda: delta_defect(
        _C2.gen("x") ** 4 + _C2.gen("y") ** 3),
    "Delta Klein +++": lambda: delta_defect(_klein(1, 1, 1)),
    "Delta Klein +-+": lambda: delta_defect(_klein(1, -1, 1)),
    "Delta Fermat +++": lambda: delta_defect(_fermat(1, 1, 1)),
    "Delta Fermat --+": lambda: delta_defect(_fermat(-1, -1, 1)),
}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("key", list(SNAKE_DEFECTS))
def test_snake_contraction_equals_the_full_product(key, side):
    data = SNAKE_DEFECTS[key]()
    got = zorro_composite(data, side)
    want = _reference_zorro_composite(data, side)
    assert got.source is want.source and got.parity == want.parity
    for got_row, want_row in zip(got.mat, want.mat, strict=True):
        for g, h in zip(got_row, want_row, strict=True):
            assert g.ctx == h.ctx and g.terms == h.terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_middle_exponents_match_the_tuple_grouping(data):
    """_by_middle groups the terms by their exponents at the middles, read
    as the plan layout's fields: adjacent, scattered and permuted middles,
    and none."""
    ctx = RingContext(["a", "b", "c", "d", "e"])
    mids = data.draw(st.lists(st.sampled_from(ctx.names), unique=True,
                              max_size=4))
    p = data.draw(rational_polys(ctx, max_deg=3, max_terms=8))
    sub = RingContext(mids)
    where = {ctx.index(n): k for k, n in enumerate(mids)}
    runs = _runs(len(ctx), [where.get(i) for i in range(len(ctx))],
                 len(mids), degree=False)
    got = adjunction._by_middle(p, runs)
    want = {}
    for exp, c in p.terms.items():
        mid = tuple(exp[ctx.index(n)] for n in mids)
        want.setdefault(mid, {})[exp] = c
    fields = sub.field_mask(range(len(mids)))
    assert list(got) == [sub.pack(m) & fields for m in want]
    for (key, group), (mid, terms) in zip(got.items(), want.items()):
        assert list(group.items()) == [(ctx.pack(e), c)
                                       for e, c in terms.items()]


@pytest.mark.parametrize("key", list(SNAKE_DEFECTS))
def test_section_quotients_are_the_defects_renamed(key):
    """The sections read the defect's kept quotients renamed onto the unit
    action: divided_difference of d_X's entries renamed onto the action's
    copy of the unit, toward that copy's primes."""
    data = SNAKE_DEFECTS[key]()
    X = data.base
    for unit, kept, action in (
            (data.source.unit, data.source.quotients, unit_action_right),
            (data.target.unit, data.target.quotients, unit_action_left)):
        act = action(X, unit)
        umf, ctx = act.unit_mf, act.tensor_mf.ctx
        d = [[rename(e, dict(zip(unit.base_names, umf.base_names)), ctx)
              for e in row] for row in X.d]
        got = unit_module._onto_action(kept, unit, act)
        assert got == [[[divided_difference(e, i + 1, umf.pairs)
                         for e in row] for row in d]
                       for i in range(unit.n)]
        assert all(e.ctx == ctx for M in got for row in M for e in row)


def _same_report(a, b):
    for side in SIDES:
        ra, rb = a[side], b[side]
        assert ra["matrix"] == rb["matrix"]
        assert ra["exact"] == rb["exact"] and ra["ok"] == rb["ok"]
        wa, wb = ra["witness"], rb["witness"]
        assert (wa is None) == (wb is None)
        assert wa is None or wa.mat == wb.mat
    assert a["ok"] == b["ok"]


@pytest.mark.parametrize("key", list(SNAKE_DEFECTS))
def test_kept_ingredients_change_no_output(key):
    """zorro_check then ev_coev_maps on one defect equal each call on a
    defect of its own, which shares nothing."""
    data = SNAKE_DEFECTS[key]()
    report, maps = zorro_check(data), ev_coev_maps(data)
    _same_report(report, zorro_check(SNAKE_DEFECTS[key]()))
    fresh = ev_coev_maps(SNAKE_DEFECTS[key]())
    for kind in ("coev_tilde", "coev", "ev_tilde", "ev"):
        got, want = getattr(maps, kind), getattr(fresh, kind)
        assert got.mat == want.mat and got.parity == want.parity
        assert got.integration_names == want.integration_names
        assert got.denominators == want.denominators


@pytest.mark.parametrize("key", ["line y^3->x^3", "Delta x^3+y^3",
                                 "Delta Fermat --+"])
def test_zorro_check_leaves_the_kept_coevaluations_alone(key):
    data = SNAKE_DEFECTS[key]()
    maps = ev_coev_maps(data)
    kept = dict(zip(SIDES, (maps.coev_tilde, maps.coev)))
    before = {side: [[dict(e.terms) for e in row] for row in C.mat]
              for side, C in kept.items()}
    zorro_check(data)
    for side, C in kept.items():
        assert coev(data, side) is C
        assert [[e.terms for e in row] for row in C.mat] == before[side]


def test_zorro_composite_checks_the_ring_order():
    data = delta_defect(_C2.gen("x") ** 3 + _C2.gen("y") ** 3)
    # a ring over the same potential with its variables swapped
    swapped = RingContext(["ys", "xs"])
    data.source.ring = JacobiRing(embed(data.source.potential, swapped))
    with pytest.raises(adjunction.ContextMismatch, match="not those of"):
        zorro_composite(data, "right")
    assert zorro_composite(data, "left") == _reference_zorro_composite(
        data, "left")


def test_sides_read_their_ends_and_a_bad_side_raises():
    data = line_defect(2)
    assert data.ends("right") == (data.source, data.target)
    assert data.ends("left") == (data.target, data.source)
    for call in (lambda: coev(data, "up"), lambda: ev(data, "up"),
                 lambda: data.adjoint("up"), lambda: data.ends("up"),
                 lambda: zorro_composite(data, "up")):
        with pytest.raises(ValueError, match="side must be"):
            call()


# -- independence of the homotopy choices -------------------------------------

def test_ev_tilde_independent_of_homotopy_choice():
    data = line_defect(3)
    X = data.base
    ctx = X.ctx
    base_hs = default_null_homotopies(X, data.source.names, side="source")
    # perturb lambda_y by a boundary: lambda'_y = lambda_y + [d, alpha]
    alpha_mat = polymat.zeros(ctx, X.rank, X.rank)
    alpha_mat[0][0] = ctx.gen("y")
    alpha = Morphism(X, X, 0, alpha_mat)
    bump = alpha.boundary()
    name = data.source.names[0]
    entries = dict(base_hs.entries)
    entries[name] = Morphism(X, X, 1, polymat.mat_add(
        entries[name].mat, bump.mat))
    perturbed = NullHomotopySet(mf=X, side="source", entries=entries,
                                order=base_hs.order)
    a = ev(data, "right", base_hs)
    b = ev(data, "right", perturbed)
    diff = kvm_difference(a, b)
    assert diff.is_closed()
    wit = kernel_homotopy_search(diff)
    assert wit is not None


def test_invalid_homotopies_are_rejected():
    data = line_defect(2)
    X = data.base
    hs = default_null_homotopies(X, data.source.names, side="source")
    wrong = {name: Morphism(X, X, 1, polymat.zeros(X.ctx, X.rank, X.rank))
             for name in hs.entries}
    bad = NullHomotopySet(mf=X, side="source", entries=wrong, order=hs.order)
    with pytest.raises(ValueError):
        ev(data, "right", bad)


def test_ev_coev_maps_verifies_each_homotopy_once(monkeypatch):
    calls, built = [], []
    check = mf._commutator_mismatch
    quotients = unit_module.difference_quotients

    def counting(*args):
        calls.append(args[2])
        return check(*args)

    def building(mat, pairs):
        built.append(tuple(pairs))
        return quotients(mat, pairs)
    monkeypatch.setattr(mf, "_commutator_mismatch", counting)
    monkeypatch.setattr(adjunction, "_commutator_mismatch", counting)
    monkeypatch.setattr(unit_module, "difference_quotients", building)
    # each side's homotopies are verified, and its quotients built, once
    # per defect, whichever call comes first and however many follow
    for first in (ev_coev_maps, zorro_check):
        calls.clear()
        built.clear()
        data = line_defect(3)
        first(data)
        zorro_check(data)
        ev_coev_maps(data)
        ev(data, "right")
        ev(data, "left")
        assert sorted(calls) == ["x", "y"]
        assert sorted(built) == [(("x", "x'"),), (("y", "y'"),)]


def test_each_sides_lambda_is_formed_once(monkeypatch):
    """zorro_check and ev_coev_maps on one Delta defect share each side's
    Lambda; a supplied homotopy set is verified and gets its own product."""
    sides = []
    product = NullHomotopySet.product

    def counting(self):
        sides.append(self.side)
        return product(self)
    monkeypatch.setattr(NullHomotopySet, "product", counting)
    data = SNAKE_DEFECTS["Delta x^3+y^3"]()
    zorro_check(data)
    ev_coev_maps(data)
    assert sorted(sides) == ["source", "target"]
    ev(data, "right")
    ev(data, "left")
    assert sorted(sides) == ["source", "target"]
    hs = default_null_homotopies(data.base, data.source.names, side="source")
    assert ev(data, "right", hs).mat == ev(data, "right").mat
    assert sorted(sides) == ["source", "source", "target"]


@pytest.mark.parametrize("side", SIDES)
def test_tampered_supplied_homotopies_are_reverified(side):
    data = line_defect(3)
    X = data.base
    near, _ = data.ends(side)
    names = near.names
    hs = default_null_homotopies(X, names, side=near.side)
    entries = dict(hs.entries)
    lam = polymat.mat_scale(entries[names[0]].mat, Fraction(2))
    entries[names[0]] = Morphism(X, X, 1, lam)
    tampered = NullHomotopySet(mf=X, side=near.side, entries=entries,
                               order=hs.order)
    assert ev(data, side, hs).mat == ev(data, side).mat
    with pytest.raises(FactorisationError):
        ev(data, side, tampered)


# -- dual morphisms -----------------------------------------------------------

def _two_line_defects():
    d2 = line_defect(3)
    X = d2.base
    ctx = X.ctx
    x, y = ctx.gen("x"), ctx.gen("y")
    # an even endomorphism of the line defect: multiplication by x + y
    mat = polymat.identity(ctx, X.rank)
    mat = [[e * (x + y) for e in row] for row in mat]
    phi = Morphism(X, X, 0, mat)
    assert phi.is_closed()
    return d2, phi


def test_dual_morphisms_are_closed_and_functorial():
    data, phi = _two_line_defects()
    for side in SIDES:
        dphi = adjoint_dual_morphism(phi, data, data, side)
        assert dphi.is_closed()
        did = adjoint_dual_morphism(data.base.identity(), data, data, side)
        assert did == did.source.identity()
        # contravariant functoriality on the composable pair (phi, phi)
        dcomp = adjoint_dual_morphism(phi.compose(phi), data, data, side)
        assert dcomp == dphi.compose(dphi)


def test_dual_morphisms_refuse_a_morphism_of_other_defects():
    """A second defect of the same potentials over another factorisation
    has other adjoints: phi's dual does not run between them."""
    data, phi = _two_line_defects()
    ctx = data.base.ctx
    x, y = ctx.gen("x"), ctx.gen("y")
    swapped = mf.new_mf(ctx, data.base.potential, [[x * x + x * y + y * y]],
                        [[x - y]])
    other = AdjointData(swapped, data.source.potential, data.target.potential)
    for side in SIDES:
        for src, tgt in ((data, other), (other, data)):
            with pytest.raises(ValueError, match="base"):
                adjoint_dual_morphism(phi, src, tgt, side)


# -- construction errors ------------------------------------------------------

def test_adjoint_data_rejects_potential_mismatch():
    d = line_defect(2)
    wrong = d.base.ctx.gen("x") ** 3
    with pytest.raises(ValueError):
        AdjointData(d.base, d.source.potential, wrong)


def test_units_are_built_once_on_first_use(monkeypatch):
    d = line_defect(3)
    built = []

    def counting(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: built.append(
            name) or real(*args, **kw))
    for owner, name in ((JacobiRing, "__init__"), (adjunction, "koszul_unit"),
                        (adjunction, "_unit_quotients"),
                        (NullHomotopySet, "product")):
        counting(owner, name)
    lazy = {"unit", "quotients", "Lambda"}
    for end in (d.source, d.target):
        # both potentials were certified, by building their rings, with d
        assert "ring" in vars(end) and not lazy & set(vars(end))
    first = [(e.unit, e.quotients, e.Lambda) for e in (d.source, d.target)]
    again = [(e.unit, e.quotients, e.Lambda) for e in (d.source, d.target)]
    assert all(a is b for pa, pb in zip(first, again)
               for a, b in zip(pa, pb))
    assert sorted(built) == sorted(["koszul_unit", "_unit_quotients",
                                    "product"] * 2)
    for end in (d.source, d.target):
        assert lazy <= set(vars(end))
    u, v = d.source.unit, d.target.unit
    assert u.base_names == ("y",) and v.base_names == ("x",)
