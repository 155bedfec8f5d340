"""Bulk and boundary invariants: defect operators, pairings, Cardy, shadows."""

import os
import warnings
from fractions import Fraction

import pytest

from lgmf import linalg, polymat, residue, tft
from lgmf.adjunction import AdjointData, adjoint_dual_morphism, zorro_check
from lgmf.ideal import groebner
from lgmf.mf import (MatrixFactorisation, Morphism, _boundary_columns,
                     _equations, mf_rename, new_mf, null_homotopy_search,
                     supertrace)
from lgmf.ring import (RingContext, embed, parse_poly, partial_derivative,
                       rename)
from lgmf.signs import binom2
from lgmf.unit import koszul_unit, unit_action_right
from lgmf.workspace import load_workspace

from conftest import (boundary_defect, corpus_boundary_mfs, corpus_potentials,
                      delta_defect, dense_invertible, line_defect)
from test_residue import _count_groebner


def _x3_setup():
    X = corpus_boundary_mfs()["x^3:(x,x^2)"]
    ctx = X.ctx
    x = ctx.gen("x")
    eta = Morphism(X, X, 1, [[ctx.zero(), -x], [ctx.one(), ctx.zero()]])
    return X, x, eta


# -- boundary-bulk map and pairings -------------------------------------------

def test_boundary_bulk_values():
    X, x, eta = _x3_setup()
    r = tft.JacobiRing(X.potential)
    assert eta.is_closed()
    assert tft.boundary_bulk(X, eta, r).rep == 3 * x
    # the identity maps to zero when the variable count is odd
    assert tft.boundary_bulk(X, X.identity(), r).is_zero()


def test_kapustin_li_pairing_values():
    X, x, eta = _x3_setup()
    r = tft.JacobiRing(X.potential)
    assert tft.kapustin_li_pairing(X.identity(), X.identity(), X, r) == 0
    assert tft.kapustin_li_pairing(X.identity(), eta, X, r) == Fraction(-1)


def test_kapustin_li_descends_to_homotopy_classes():
    X, x, eta = _x3_setup()
    ctx = X.ctx
    alpha = Morphism(X, X, 0, [[x, ctx.zero()], [ctx.zero(), ctx.zero()]])
    shifted = eta + alpha.boundary()
    assert shifted.is_closed()
    r = tft.JacobiRing(X.potential)
    assert (tft.kapustin_li_pairing(X.identity(), shifted, X, r)
            == tft.kapustin_li_pairing(X.identity(), eta, X, r))


def test_kapustin_li_gram_nondegenerate_on_cohomology():
    X, x, eta = _x3_setup()
    coh = tft.hom_cohomology(X, X)
    assert coh.dimensions == (1, 1)
    basis = coh.h0 + coh.h1
    r = tft.JacobiRing(X.potential)
    G = [[tft.kapustin_li_pairing(a, b, X, r) for b in basis] for a in basis]
    assert dense_invertible(G)


def test_bulk_pairing_values():
    W = corpus_potentials()["x^3"]
    r = tft.JacobiRing(W)
    x = W.ctx.gen("x")
    assert tft.bulk_pairing(r.one(), x, r) == Fraction(1, 3)
    assert tft.bulk_pairing(r.one(), r.one(), r) == 0


def test_bulk_pairing_embeds_both_fields():
    W = corpus_potentials()["x^3-y^3"]
    ring = tft.JacobiRing(W)
    xy = W.ctx.gen("x") * W.ctx.gen("y")
    one_x = RingContext(["x"]).one()
    assert tft.bulk_pairing(xy, one_x, ring) == Fraction(-1, 9)
    assert tft.bulk_pairing(one_x, xy, ring) == Fraction(-1, 9)


def test_pairings_and_wraps_reuse_the_rings_bases(monkeypatch):
    """Past building their Jacobi rings, pairings and defect actions make
    no Groebner basis: every residue plan comes from a ring's own, and a
    defect's rings are the two it built when it certified its potentials."""
    X, x, eta = _x3_setup()
    ring = tft.JacobiRing(X.potential)
    data = line_defect(3)
    bases = _count_groebner(monkeypatch)
    rings = _counting(monkeypatch, tft.JacobiRing, "__init__")
    tft.bulk_gram_matrix(ring)
    tft.bulk_pairing(x, x, ring)
    tft.kapustin_li_pairing(eta, eta, X, ring)
    assert bases == [] and rings == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tft.ParityWarning)
        for side, W in (("right", data.source.potential),
                        ("left", data.target.potential)):
            tft.defect_act(data, 1, side)
            tft.defect_act(data, W.ctx.gen(W.ctx.names[0]), side)
        tft.defect_operator(data, "right")
        tft.defect_operator(data, "left")
        tft.generalized_boundary_bulk(data, data.base.identity())
    assert rings == [] and bases == []


def test_bulk_gram_invertible_for_all_corpus_potentials():
    for W in corpus_potentials().values():
        r = tft.JacobiRing(W)
        assert dense_invertible(tft.bulk_gram_matrix(r))


def test_jacobi_ring_is_the_potential_certificate_quotient():
    for W in list(corpus_potentials().values()) + [RingContext([]).one()]:
        partials = [partial_derivative(W, n) for n in W.ctx.names]
        r = tft.JacobiRing(W)
        assert r.partials == tuple(partials)
        monos = groebner(partials).quotient.monomials if partials else [()]
        assert r.basis.monomials == monos
        assert r.dimension == len(monos)
    xy = RingContext(["x", "y"])
    with pytest.raises(residue.NotAPotential, match="infinite colength"):
        tft.JacobiRing(xy.gen("x") ** 2 * xy.gen("y"))


def test_equal_jacobi_elements_hash_alike():
    W = corpus_potentials()["x^3-y^3"]
    # the same potential over a second, equal context object
    V = RingContext(W.ctx.names).poly(W.terms)
    a = tft.JacobiRing(W).reduce(W.ctx.gen("x") ** 3)
    b = tft.JacobiRing(V).reduce(V.ctx.gen("y") ** 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- Chern characters ---------------------------------------------------------

def test_chern_character_of_linear_factorisation():
    ctx = RingContext(["x", "y"])
    x, y = ctx.gen("x"), ctx.gen("y")
    X = new_mf(ctx, x * y, [[x]], [[y]])
    ch = tft.chern_character(X, tft.JacobiRing(X.potential))
    assert ch.rep.is_constant()
    assert abs(ch.rep.constant_value()) == 1
    # cross-check through the Cardy identity: both sides reduce to ch^2
    rep = tft.cardy_check(X, X)
    assert rep.equal and rep.lhs == 1


def test_chern_character_additive_under_shift_sum():
    from lgmf.mf import shift
    X = corpus_boundary_mfs()["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    r = tft.JacobiRing(X.potential)
    ch = tft.chern_character(X, r)
    chs = tft.chern_character(shift(X), r)
    assert (ch.rep + chs.rep).is_zero()


def test_the_zero_factorisation_has_zero_invariants():
    """Rank 0: every supertrace is the zero of the factorisation's context."""
    X, x, eta = _x3_setup()
    Z = MatrixFactorisation(X.ctx, x ** 3, (), [])
    r = tft.JacobiRing(X.potential)
    assert supertrace(Z.identity()) == X.ctx.zero()
    assert tft.chern_character(Z, r).is_zero()
    assert tft.kapustin_li_pairing(Z.identity(), Z.identity(), Z, r) == 0
    for A, B in ((Z, X), (X, Z)):
        rep = tft.cardy_check(A, B)
        assert rep.lhs == rep.rhs == 0 and rep.equal


# -- defect operators ---------------------------------------------------------

def test_diagonal_defect_acts_as_identity_one_variable():
    W = corpus_potentials()["x^3"]
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        dd = delta_defect(W)
        assert tft.defect_operator(dd, "right").is_identity()
        assert tft.defect_operator(dd, "left").is_identity()
    assert any(isinstance(w.message, tft.ParityWarning) for w in rec)


def test_diagonal_defect_acts_as_identity_two_variables():
    dd = delta_defect(corpus_potentials()["x^3-y^3"])
    assert tft.defect_operator(dd, "right").is_identity()
    assert tft.defect_operator(dd, "left").is_identity()
    assert tft.defect_act(dd, 1, "right").rep.constant_value() == 1
    assert tft.defect_act(dd, 1, "left").rep.constant_value() == 1


_C3 = RingContext(["x", "y", "z"])
_X, _Y, _Z = (_C3.gen(n) for n in _C3.names)


@pytest.mark.parametrize("W, dim", [
    (_X ** 3 * _Y + _Y ** 3 * _Z + _Z ** 3 * _X, 27),
    (_X ** 3 + _Y ** 3 + _Z ** 3, 8),
    (_X ** 3 + _Y ** 3 + _Z ** 2, 4),
    (_X ** 3 + _Y ** 2 + _Z ** 2, 2),
], ids=["Klein quartic", "Fermat cubic", "x^3+y^3+z^2", "x^3+y^2+z^2"])
def test_diagonal_defect_acts_as_identity_three_variables(W, dim):
    dd = delta_defect(W)
    assert dd.source.ring.dimension == dd.target.ring.dimension == dim
    with pytest.warns(tft.ParityWarning):
        assert tft.defect_operator(dd, "right").is_identity()
    with pytest.warns(tft.ParityWarning):
        assert tft.defect_operator(dd, "left").is_identity()
    for side in ("right", "left"):
        with pytest.warns(tft.ParityWarning):
            assert tft.defect_act(dd, 1, side).rep.constant_value() == 1


@pytest.mark.parametrize("make", [
    lambda: line_defect(3),
    lambda: delta_defect(corpus_potentials()["x^3-y^3"]),
], ids=["line x^3", "delta x^3-y^3"])
def test_quantum_dim_wraps_only_one(make, monkeypatch):
    d = make()
    calls = _counting(monkeypatch, tft, "_defect_wrap")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tft.ParityWarning)
        for side in ("right", "left"):
            op = tft.defect_operator(d, side)
            del calls[:]
            q = tft.defect_act(d, 1, side)
            assert [args[-1] for args in calls] == [[op.source.ctx.one()]]
            assert q == op.apply(op.source.one())


def test_shift_negates_defect_operator():
    dd = delta_defect(corpus_potentials()["x^3-y^3"])
    op = tft.defect_operator(dd, "right")
    shifted = tft.defect_operator(tft.shifted_defect(dd), "right")
    assert shifted == op.scale(-1)


def test_duality_exchanges_left_and_right_operators():
    dd = delta_defect(corpus_potentials()["x^3-y^3"])
    assert (tft.defect_operator(dd, "left")
            == tft.defect_operator(tft.dual_defect(dd), "right"))


def test_dual_and_shifted_defects_certify_both_ends(monkeypatch):
    defects = ([boundary_defect(X) for X in corpus_boundary_mfs().values()]
               + [line_defect(2), line_defect(3)]
               + [delta_defect(W) for W in corpus_potentials().values()])
    rings = _counting(monkeypatch, tft.JacobiRing, "__init__")
    for d in defects:
        for made in (tft.dual_defect(d), tft.shifted_defect(d)):
            assert "ring" in vars(made.source) and "ring" in vars(made.target)
    assert len(rings) == 4 * len(defects)


def test_parity_warnings_name_the_public_caller():
    d = line_defect(3)
    y = d.source.potential.ctx.gen("y")
    for call in (lambda: tft.defect_operator(d, "right"),
                 lambda: tft.defect_operator(d, "left"),
                 lambda: tft.defect_act(d, 1, "left"),
                 lambda: tft.defect_act(d, y, "right")):
        with pytest.warns(tft.ParityWarning) as caught:
            call()
        assert [w.filename for w in caught] == [__file__]


def test_contractible_defect_acts_as_zero():
    W = corpus_potentials()["x^3"]
    ctx = W.ctx
    Xc = new_mf(ctx, W, [[ctx.one()]], [[W]])
    ddc = AdjointData(Xc, RingContext([]).zero(), W)
    with pytest.warns(tft.ParityWarning):
        op = tft.defect_operator(ddc, "right")
    assert all(img.is_zero() for img in op.images)


@pytest.mark.parametrize("power", [2, 3])
def test_defect_operators_are_adjoint_for_bulk_pairings(power):
    d = line_defect(power)
    with pytest.warns(tft.ParityWarning):
        opr = tft.defect_operator(d, "right")
    with pytest.warns(tft.ParityWarning):
        opl = tft.defect_operator(d, "left")
    assert opl.target is not None
    for phi in opl.source.basis_elements():
        for psi in opr.source.basis_elements():
            lhs = tft.bulk_pairing(opl.apply(phi).rep, psi.rep, opl.target)
            rhs = tft.bulk_pairing(phi.rep, opr.apply(psi).rep, opr.target)
            assert lhs == rhs


def test_defect_operators_compose_with_the_diagonal():
    d = line_defect(3)
    dd = delta_defect(d.source.potential)
    with pytest.warns(tft.ParityWarning):
        op = tft.defect_operator(d, "right")
    with pytest.warns(tft.ParityWarning):
        idop = tft.defect_operator(dd, "right")
    assert idop.is_identity()
    comp = op.compose(idop)
    # post-composition with the diagonal changes nothing, up to the canonical
    # identification of the renamed source basis
    assert comp.matrix() == op.matrix()
    assert ([m for m in comp.source.basis.monomials]
            == [m for m in op.source.basis.monomials])


def test_simultaneous_variable_permutation_invariance():
    X = corpus_boundary_mfs()["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    swap = {"x": "y", "y": "x"}
    Xs = mf_rename(X, swap)
    ch = tft.chern_character(X, tft.JacobiRing(X.potential))
    chs = tft.chern_character(Xs, tft.JacobiRing(Xs.potential))
    assert chs.rep == rename(ch.rep, swap, Xs.ctx)
    # the defect operator of a renamed line defect is the renamed operator
    d = line_defect(3)
    ren = {"x": "u", "y": "v"}
    db = mf_rename(d.base, ren)
    d2 = AdjointData(db,
                     rename(d.source.potential, ren,
                            RingContext(["v"])),
                     rename(d.target.potential, ren,
                            RingContext(["u"])))
    with pytest.warns(tft.ParityWarning):
        q1 = tft.defect_act(d, 1, "right").rep
    with pytest.warns(tft.ParityWarning):
        q2 = tft.defect_act(d2, 1, "right").rep
    assert q2 == rename(q1, ren, q2.ctx)


# -- morphism cohomology and the Cardy identity -------------------------------

def _xy_mf():
    ctx = RingContext(["x", "y"])
    x, y = ctx.gen("x"), ctx.gen("y")
    return new_mf(ctx, x * y, [[x]], [[y]])


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its call args."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_hom_cohomology_dimensions():
    Xxy = _xy_mf()
    assert tft.hom_cohomology(Xxy, Xxy).dimensions == (1, 0)
    X3, _, _ = _x3_setup()
    assert tft.hom_cohomology(X3, X3).dimensions == (1, 1)
    cx = RingContext(["x"])
    Xc = new_mf(cx, cx.gen("x") ** 3, [[cx.one()]], [[cx.gen("x") ** 3]])
    assert tft.hom_cohomology(Xc, Xc).dimensions == (0, 0)


# Representatives and a witness as the parent of the packed-key kernels
# computed them: entry by entry, the terms in their order.  Elimination
# pivots follow the order of the unknowns, so these pin the domain order of
# the boundary systems (degree-bounded monomials in lex order).
_PINNED_CLASSES = {
    ("x^4:(x,x^3)", "x^4:(x^2,x^2)"): (
        [[[[((0,), 1)], []], [[], [((1,), 1)]]]],
        [[[[], [((1,), -1)]], [[((0,), 1)], []]]]),
    ("x^3-y^3:(x-y,x^2+x*y+y^2)", "x^3-y^3:(x-y,x^2+x*y+y^2)"): (
        [[[[((0, 0), 1)], []], [[], [((0, 0), 1)]]],
         [[[((0, 1), 1)], []], [[], [((0, 1), 1)]]]],
        []),
}
_PINNED_WITNESS = [
    [[], [((0, 2), -1), ((0, 3), 3), ((1, 1), -2), ((1, 2), 6), ((2, 1), 9),
          ((3, 0), 3)]],
    [[((0, 1), -1), ((0, 2), 3)], []]]


def _term_lists(m: Morphism):
    return [[list(e.terms.items()) for e in row] for row in m.mat]


def test_representatives_and_a_witness_are_pinned():
    mfs = corpus_boundary_mfs()
    for (a, b), (h0, h1) in _PINNED_CLASSES.items():
        coh = tft.hom_cohomology(mfs[a], mfs[b])
        assert [_term_lists(m) for m in coh.h0] == h0
        assert [_term_lists(m) for m in coh.h1] == h1
    X = mfs["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    f = (parse_poly("x^2 + 2*x*y - y", X.ctx)
         * partial_derivative(X.potential, "x"))
    phi = Morphism(X, X, 0, [[e * f for e in row]
                             for row in polymat.identity(X.ctx, X.rank)])
    assert _term_lists(null_homotopy_search(phi)) == _PINNED_WITNESS


def test_hom_cohomology_builds_each_boundary_system_once_per_bound(
        monkeypatch):
    Xxy = _xy_mf()
    calls = _counting(monkeypatch, tft, "_boundary_columns")
    coh = tft.hom_cohomology(Xxy, Xxy)
    b = coh.bound
    # (parity, degree bound) of every build: one per parity, at bound + 1,
    # serves both the classes at the bound and the stability count
    assert sorted(args[2:4] for args in calls) == [(0, b + 1), (1, b + 1)]


def test_cardy_supertrace_computes_no_cocycles(monkeypatch):
    Xxy = _xy_mf()
    calls = _counting(monkeypatch, linalg, "nullspace")
    tft.hom_cohomology(Xxy, Xxy)
    alone = len(calls)
    assert alone == 2
    del calls[:]
    assert tft.cardy_check(Xxy, Xxy).equal
    assert len(calls) <= alone


def test_cardy_check_reuses_the_bound_coboundaries(monkeypatch):
    X = line_defect(4).base
    calls = _counting(monkeypatch, tft, "_boundary_columns")
    rep = tft.cardy_check(X, X)
    b = rep.bound
    # the composite's degree is the bound, so the supertrace builds nothing
    assert rep.equal and sorted(args[2:4] for args in calls) == [
        (0, b + 1), (1, b + 1)]


def _classes_by_second_pass(X, Y, bound, ctx):
    """The cohomology selection as first written, at one bound: both boundary
    systems built at that bound, the whole kernel of each, and every cocycle
    kept that enlarges the span of the coboundary columns."""
    systems = [_boundary_columns(X, Y, p, bound, ctx) for p in (0, 1)]
    coboundaries = (systems[1][1], systems[0][1])
    classes = []
    for parity, (dom, cols) in enumerate(systems):
        n = len(dom)
        span = linalg.Span()
        for v in coboundaries[parity]:
            span.add(v)
        classes.append([d for d in (
            {dom[k]: c for k, c in vec.items()}
            for vec in linalg.nullspace(_equations(cols)[0], n, n)[1])
            if span.add(d)])
    return classes, coboundaries


def _line_cases():
    for p in range(2, 6):
        X = line_defect(p).base
        for bound in range(2 * p + 1):
            yield X, X, bound


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "layerbench",
                      "corpus.lg")


def _corpus_cases():
    mfs = load_workspace(CORPUS).mfs
    names = ["Xc", "X4a", "X4b", "X5", "Xq", "Xuv"]
    for a in names:
        for b in names:
            if mfs[a].potential == mfs[b].potential:
                for bound in range(4):
                    yield mfs[a], mfs[b], bound


def _rho_cases():
    """X -> X (x) Delta for the line defects of x^2 - y^2 and x^3 - y^3,
    X widened to the tensor's ring."""
    for power in (2, 3):
        data = line_defect(power)
        X = data.base
        T = unit_action_right(X, koszul_unit(data.source.potential)).tensor_mf
        Xb = MatrixFactorisation(T.ctx, X.potential, list(X.parity), X.d)
        for bound in range(4):
            yield Xb, T, bound


@pytest.mark.parametrize("cases", [_line_cases, _corpus_cases, _rho_cases],
                         ids=["line-defects", "corpus-pairs", "rho"])
def test_stability_counts_match_a_second_pass_at_bound_plus_one(cases):
    """The one bound + 1 system per parity gives the second pass's classes
    at the bound, the span of its coboundary columns, and its class counts
    at bound + 1;
    every family has bounds where the counts change (stable is False)."""
    unstable = 0
    for X, Y, bound in cases():
        ctx = Y.ctx.merge(X.ctx)
        classes, coboundaries, counts = tft._classes_at(X, Y, bound, ctx)
        want, want_cob = _classes_by_second_pass(X, Y, bound, ctx)
        above = [len(c) for c in _classes_by_second_pass(X, Y, bound + 1,
                                                         ctx)[0]]
        assert classes == want
        # the kept spans are those of the second pass's coboundary columns
        assert [span._rows for span in coboundaries] == [
            linalg.Span(cols)._rows for cols in want_cob]
        assert counts == above, (X, Y, bound)
        coh = tft.hom_cohomology(X, Y, bound)
        assert coh.stable == ([len(c) for c in want] == above)
        unstable += not coh.stable
    assert unstable


def _classes_per_column(X, Y, bound, ctx):
    """_classes_at with every column of degree <= bound inserted into its
    coboundary span, and each cocycle's remainder formed by reduce() and
    inserted by add(): the selection before free columns were skipped."""
    top = bound + 1
    low_key, high_key = ctx.lowest(top), ctx.lowest(top + 1)
    systems = []
    for p in (0, 1):
        dom, cols = _boundary_columns(X, Y, p, top, ctx)
        order = sorted(range(len(dom)), key=lambda k: dom[k][2] >= low_key)
        systems.append(([dom[k] for k in order], [cols[k] for k in order],
                        sum(m < low_key for _, _, m in dom)))
    coboundaries = tuple(linalg.Span(cols[:low])
                         for _, cols, low in reversed(systems))
    classes, ranks = [], []
    for (dom, cols, low), cob in zip(systems, coboundaries):
        rank, cocycles = linalg.nullspace(_equations(cols)[0], len(dom), low)
        reps = ({dom[k]: c for k, c in vec.items()} for vec in cocycles)
        chosen = linalg.Span()
        classes.append([d for d in reps if chosen.add(cob.reduce(d))])
        ranks.append(rank)
    counts = [len(systems[p][0]) - ranks[p] - ranks[p ^ 1] + linalg.rank(
        _equations([{k: c for k, c in col.items() if k[2] >= high_key}
                    for col in systems[p ^ 1][1]])[0]) for p in (0, 1)]
    return classes, coboundaries, counts


def _delta_cases():
    """End(Delta) of x^3 up to its default bound 6, and of x^3 + y^3 up to
    bound 4."""
    c2 = RingContext(["x", "y"])
    x, y = c2.gen("x"), c2.gen("y")
    for W, top in ((corpus_potentials()["x^3"], 6), (x ** 3 + y ** 3, 4)):
        D = delta_defect(W).base
        for bound in range(top + 1):
            yield D, D, bound


@pytest.mark.parametrize("cases", [_line_cases, _corpus_cases, _delta_cases],
                         ids=["line-defects", "corpus-pairs", "delta"])
def test_coboundary_spans_take_only_the_columns_that_are_not_free(
        cases, monkeypatch):
    """Skipping the free columns moves no class, count, stability flag or
    stored coboundary row, and every column that _classes_at inserts into
    a coboundary span enlarges it."""
    real_add = linalg.Span.add
    grew = {}

    def add(span, vec):
        out = real_add(span, vec)
        grew.setdefault(id(span), []).append(out)
        return out

    for X, Y, bound in cases():
        ctx = Y.ctx.merge(X.ctx)
        want, want_cob, want_counts = _classes_per_column(X, Y, bound, ctx)
        grew.clear()
        with monkeypatch.context() as m:
            m.setattr(linalg.Span, "add", add)
            classes, coboundaries, counts = tft._classes_at(X, Y, bound, ctx)
        assert classes == want and counts == want_counts, (X, Y, bound)
        assert [list(span._rows.items()) for span in coboundaries] == [
            list(span._rows.items()) for span in want_cob]
        for span in coboundaries:
            assert grew.get(id(span), []) == [True] * span.dim
        assert tft.hom_cohomology(X, Y, bound).stable == (
            [len(c) for c in want] == want_counts)


def test_a_negative_degree_bound_is_refused():
    X = line_defect(2).base
    with pytest.raises(ValueError, match="negative degree bound -1"):
        tft.hom_cohomology(X, X, -1)
    with pytest.raises(ValueError, match="negative degree bound -3"):
        tft.cardy_check(X, X, degree_bound=-3)
    with pytest.raises(ValueError, match="negative degree bound -1"):
        null_homotopy_search(X.identity(), -1)
    # both snake composites of this defect are exactly the identity, so
    # no witness search would see the bound
    data = line_defect(2)
    assert zorro_check(data)["right"]["exact"]
    with pytest.raises(ValueError, match="negative degree bound -2"):
        zorro_check(data, degree_bound=-2)
    assert tft.hom_cohomology(X, X, 0).bound == 0


def test_cardy_identity_on_corpus_pairs():
    Xxy = _xy_mf()
    rep = tft.cardy_check(Xxy, Xxy)
    assert rep.stable and rep.equal and rep.lhs == 1

    X3, _, _ = _x3_setup()
    rep3 = tft.cardy_check(X3, X3)
    assert rep3.stable and rep3.equal and rep3.lhs == 0

    mfs = corpus_boundary_mfs()
    rep_a = tft.cardy_check(mfs["x^3-y^3:(x-y,x^2+x*y+y^2)"],
                            mfs["x^3-y^3:(x-y,x^2+x*y+y^2)"])
    assert rep_a.stable and rep_a.equal and rep_a.lhs == 2
    rep_b = tft.cardy_check(mfs["x^2-y^2:(x-y,x+y)"],
                            mfs["x^2-y^2:(x-y,x+y)"])
    assert rep_b.stable and rep_b.equal


# -- bulk-boundary map --------------------------------------------------------

def test_bulk_boundary_unit_and_ideal():
    X, x, eta = _x3_setup()
    r = tft.JacobiRing(X.potential)
    assert tft.bulk_boundary(X, r.one()) == X.identity()
    in_ideal = tft.bulk_boundary(X, 3 * x * x)     # the derivative of W
    wit = null_homotopy_search(in_ideal)
    assert wit is not None and wit.verifies(in_ideal)


def test_bulk_boundary_is_module_map_for_pairings():
    X, x, eta = _x3_setup()
    r = tft.JacobiRing(X.potential)
    # bulk-boundary and boundary-bulk are mutually adjoint for the two
    # pairings, up to the fixed sign (-1)^(binom(n+1,2)); n = 1 here
    for phi in (r.one().rep, x, x * x):
        lhs = tft.kapustin_li_pairing(tft.bulk_boundary(X, phi), eta, X, r)
        rhs = tft.bulk_pairing(phi, tft.boundary_bulk(X, eta, r).rep, r)
        assert lhs == -rhs


# -- generalized boundary-bulk ------------------------------------------------

def test_generalized_boundary_bulk_collapses_for_boundaries():
    X, x, eta = _x3_setup()
    ddb = AdjointData(X, RingContext([]).zero(), X.potential)
    g = tft.generalized_boundary_bulk(ddb, eta)
    r = tft.JacobiRing(X.potential)
    pair = tft.bulk_pairing(r.one(), tft.boundary_bulk(X, eta, r).rep, r)
    assert g.rep.constant_value() == pair
    tripled = Morphism(X, X, 1,
                       [[e * Fraction(3) for e in row] for row in eta.mat])
    assert tft.generalized_boundary_bulk(ddb, tripled).rep.constant_value() \
        == 3 * pair


def test_generalized_boundary_bulk_of_diagonal_identity():
    dd = delta_defect(corpus_potentials()["x^3-y^3"])
    g = tft.generalized_boundary_bulk(dd, dd.base.identity())
    assert g.rep.is_constant() and g.rep.constant_value() == 1


@pytest.mark.parametrize("make", [
    lambda: line_defect(3),
    lambda: delta_defect(corpus_potentials()["x^3-y^3"]),
], ids=["line x^3", "delta x^3-y^3"])
def test_generalized_boundary_bulk_is_the_left_wrap_of_one(make):
    d = make()
    ctx = d.base.ctx
    sign = (-1) ** (binom2(d.m + 1) + binom2(d.n + 1))
    for scale in (ctx.one(), ctx.gen("x")):
        Phi = _times_identity(d, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tft.ParityWarning)
            left = tft.defect_operator(d, "left", Phi)
        assert (tft.generalized_boundary_bulk(d, Phi)
                == left.apply(1).scale(sign))


def _times_identity(d, phi):
    """phi . Id on the base of the defect d, phi embedded in its ring."""
    ident = polymat.identity(d.base.ctx, d.base.rank)
    phi = embed(phi, d.base.ctx)
    return Morphism(d.base, d.base, 0, [[phi * e for e in row]
                                        for row in ident])


@pytest.mark.parametrize("make", [
    lambda: line_defect(3),
    lambda: delta_defect(corpus_potentials()["x^3-y^3"]),
], ids=["line x^3", "delta x^3-y^3"])
def test_a_field_insertion_multiplies_the_integrated_field(make):
    """Inserting phi . Id for a variable phi of the integrated end is the
    plain wrap applied to phi times the field, on either side."""
    d = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tft.ParityWarning)
        for side in ("right", "left"):
            op = tft.defect_operator(d, side)
            ctx = op.source.ctx
            basis = [b.rep for b in op.source.basis_elements()]
            for name in ctx.names:
                phi = ctx.gen(name)
                Phi = _times_identity(d, phi)
                assert tft.defect_operator(d, side, Phi) == tft.DefectOperator(
                    op.source, op.target, [op.apply(phi * b) for b in basis])


def test_an_unknown_side_is_refused():
    d = line_defect(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="side must be"):
            tft.defect_operator(d, "up")
        with pytest.raises(ValueError, match="side must be"):
            tft.defect_act(d, 1, "up")
        with pytest.raises(ValueError, match="side must be"):
            adjoint_dual_morphism(d.base.identity(), d, d, "up")


# -- shadows ------------------------------------------------------------------

def test_shadow_dimensions_and_parities():
    cases = {"x^3": (2, 1), "xy": (1, 0), "x^3-y^3": (4, 0)}
    for key, want in cases.items():
        s = tft.shadow_of_unit(tft.JacobiRing(corpus_potentials()[key]))
        assert (s.dimension, s.parity) == want


@pytest.mark.parametrize("make", [
    lambda: line_defect(3),
    lambda: delta_defect(corpus_potentials()["x^3-y^3"]),
], ids=["line x^3", "delta x^3-y^3"])
def test_defect_act_is_the_operator_on_one_field(make, monkeypatch):
    d = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", tft.ParityWarning)
        ops = {"right": tft.defect_operator(d, "right"),
               "left": tft.defect_operator(d, "left")}
        calls = _counting(monkeypatch, tft, "_defect_wrap")
        for side, op in ops.items():
            ctx = op.source.ctx
            v = ctx.gen(ctx.names[0])
            fields = ([b.rep for b in op.source.basis_elements()]
                      + [v ** 4 - v * Fraction(3, 2) + 2, ctx.zero()])
            for f in fields:
                del calls[:]
                assert tft.defect_act(d, f, side) == op.apply(f)
                assert len(calls) == 1 and len(calls[0][-1]) == 1


def test_pairings_take_only_endomorphisms_of_their_factorisations():
    X, x, eta = _x3_setup()
    cx = X.ctx
    Y = new_mf(cx, x ** 3, [[x]], [[x ** 2]])      # equal to X, not X
    eta_y = Morphism(Y, Y, 1, eta.mat)
    id_y = Y.identity()
    r = tft.JacobiRing(X.potential)
    with pytest.raises(ValueError, match="psi2 is not an endomorphism"):
        tft.kapustin_li_pairing(X.identity(), eta_y, X, r)
    with pytest.raises(ValueError, match="psi1 is not an endomorphism"):
        tft.kapustin_li_pairing(id_y, eta, X, r)
    assert tft.kapustin_li_pairing(X.identity(), eta, X, r) == -1
    with pytest.raises(ValueError, match="phi is not an endomorphism"):
        tft.cardy_check(X, Y, id_y, id_y)
    with pytest.raises(ValueError, match="psi is not an endomorphism"):
        tft.cardy_check(X, Y, X.identity(), X.identity())
    with pytest.raises(ValueError, match="phi must be even"):
        tft.cardy_check(X, X, eta)
    with pytest.raises(ValueError, match="psi must be even"):
        tft.cardy_check(X, X, None, eta)
    assert tft.cardy_check(X, Y, X.identity(), id_y).equal
