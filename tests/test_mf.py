"""Matrix factorisations: validity, functors, tensor calculus, homotopies."""

import itertools
from fractions import Fraction

import pytest

from lgmf import adjunction, linalg, polymat, ring, unit
from lgmf.ideal import groebner, normal_form
from lgmf.mf import (FactorisationError, MatrixFactorisation, Morphism,
                     NullHomotopySet, _boundary_columns, _monomials_up_to,
                     default_null_homotopies, dual,
                     dual_morphism, homotopic, mf_rename,
                     new_mf, null_homotopy_search, shift, supertrace, tensor,
                     tensor_morphism, trivial_mf)
from lgmf.ring import RingContext, embed, embed_matrix, partial_derivative

from conftest import (canonical_coefficient, corpus_boundary_mfs,
                      corpus_potentials, ctx_of, delta_defect, line_defect)


def _d_squared_is_potential(X):
    ctx = X.ctx
    sq = polymat.mat_mul(X.d, X.d)
    want = polymat.mat_scale(polymat.identity(ctx, X.rank), Fraction(1))
    want = [[e * X.potential for e in row] for row in want]
    return polymat.mat_eq(sq, want)


def test_corpus_factorisations_square_to_potential():
    for key, X in corpus_boundary_mfs().items():
        assert _d_squared_is_potential(X), key
        assert not X.validation_failures(), key


def test_misfactorisation_rejected():
    cx = ctx_of("x")
    x = cx.gen("x")
    with pytest.raises(FactorisationError):
        new_mf(cx, x ** 3, [[x]], [[x]])


def test_blocks_that_are_not_a_square_odd_differential_are_refused():
    """d0 must be ro x re and d1 re x ro; a surplus row or a missing column
    is refused, not dropped or read out of range."""
    cx = ctx_of("x")
    x = cx.gen("x")
    for d0, d1, shapes in (([[x]], [[x ** 2], [x]], "1x1 and 2x1"),
                           ([[x], [x]], [[x ** 2]], "2x1 and 1x1"),
                           ([[x, cx.one()]], [[x ** 2]], "1x2 and 1x1"),
                           ([[x], [x]], [[x ** 2, x], [x]], "2x1 and 2x2")):
        with pytest.raises(FactorisationError, match=f"blocks of shapes "
                           f"{shapes} do not form a square odd differential"):
            new_mf(cx, x ** 3, d0, d1)
    assert new_mf(cx, x ** 3, [[x]], [[x ** 2]]).rank == 2


def test_a_composite_of_unchained_shapes_is_refused():
    """Id_T o Id_X for T = X (x) X of rank 4 and X of rank 2 has no shape."""
    X = corpus_boundary_mfs()["x^3:(x,x^2)"]
    T = tensor(X, X)
    with pytest.raises(ValueError, match="do not chain"):
        T.identity().compose(X.identity())


def test_commutator_with_derivative_of_d(boundary_mfs):
    """[d, dd/dv] = dW/dv * Id for every corpus factorisation."""
    for key, X in boundary_mfs.items():
        ctx = X.ctx
        for name in ctx.names:
            D = [[partial_derivative(e, name) for e in row] for row in X.d]
            comm = polymat.mat_add(polymat.mat_mul(X.d, D),
                                   polymat.mat_mul(D, X.d))
            dW = partial_derivative(X.potential, name)
            want = [[dW if i == j else ctx.zero()
                     for j in range(X.rank)] for i in range(X.rank)]
            assert polymat.mat_eq(comm, want), (key, name)


def test_dual_and_shift(boundary_mfs):
    for X in boundary_mfs.values():
        Xd = dual(X)
        assert Xd.potential == -X.potential
        assert _d_squared_is_potential(Xd)
        # the double dual negates the differential entrywise
        assert dual(Xd).d == polymat.mat_scale(X.d, Fraction(-1))
        X1 = shift(X)
        assert X1.potential == X.potential
        assert _d_squared_is_potential(X1)
        assert shift(X1).d == X.d and shift(X1).parity == X.parity


def test_shift_negates_supertrace(boundary_mfs, eta_x3):
    X = eta_x3.source
    X1 = shift(X)
    phi = Morphism(X1, X1, 0, eta_x3.compose(eta_x3).mat)
    a = supertrace(eta_x3.compose(eta_x3))
    b = supertrace(phi)
    assert a == -b


def test_tensor_is_a_factorisation_of_the_sum():
    pots = corpus_potentials()
    mfs = corpus_boundary_mfs()
    X = mfs["x^3:(x,x^2)"]
    Y = mf_rename(X, {"x": "y"})
    T = tensor(Y, X)
    assert T.rank == 4
    assert _d_squared_is_potential(T)
    ctx = T.ctx
    assert T.potential == (embed(Y.potential, ctx) + embed(X.potential, ctx))


def test_tensor_associative_on_the_nose():
    mfs = corpus_boundary_mfs()
    X = mfs["x^3:(x,x^2)"]
    Y = mf_rename(X, {"x": "y"})
    Z = mf_rename(X, {"x": "z"})
    left = tensor(tensor(Z, Y), X)
    right = tensor(Z, tensor(Y, X))
    lmat = [[embed(e, left.ctx.merge(right.ctx)) for e in row]
            for row in left.d]
    rmat = [[embed(e, left.ctx.merge(right.ctx)) for e in row]
            for row in right.d]
    assert polymat.mat_eq(lmat, rmat)
    assert left.parity == right.parity


# -- the tensor product against its first-written form ----------------------

def _reference_tensor(Y, X):
    """The first-written tensor: every entry accumulated onto a zero, with
    the Koszul sign as a Fraction product."""
    ctx = Y.ctx.merge(X.ctx)
    ry, rx = Y.rank, X.rank
    parity = tuple((Y.parity[a] + X.parity[b]) % 2
                   for a in range(ry) for b in range(rx))
    dY = [[embed(e, ctx) for e in row] for row in Y.d]
    dX = [[embed(e, ctx) for e in row] for row in X.d]
    d = polymat.zeros(ctx, ry * rx, ry * rx)
    for a in range(ry):
        for b in range(rx):
            col = a * rx + b
            for i in range(ry):
                if not dY[i][a].is_zero():
                    d[i * rx + b][col] = d[i * rx + b][col] + dY[i][a]
            sgn = Fraction(-1) ** Y.parity[a]
            for j in range(rx):
                if not dX[j][b].is_zero():
                    d[a * rx + j][col] = d[a * rx + j][col] + dX[j][b] * sgn
    pot = embed(Y.potential, ctx) + embed(X.potential, ctx)
    return MatrixFactorisation(ctx, pot, parity, d, validate=False,
                               factors=(Y, X))


def _structure_map_factors(data):
    """The factors of the six tensors a defect's structure maps build: both
    unit actions, and the tensors of coev_tilde, coev, ev_tilde and ev."""
    X = data.base
    tensors = [unit.unit_action_right(X, data.source.unit).tensor_mf,
               unit.unit_action_left(X, data.target.unit).tensor_mf,
               adjunction.coev_tilde(data).target,
               adjunction.coev(data).target,
               adjunction.ev_tilde(data).source,
               adjunction.ev(data).source]
    return [T.factors for T in tensors]


CTX_XYZ = RingContext(["x", "y", "z"])


def _klein(a, b, c):
    x, y, z = (CTX_XYZ.gen(n) for n in CTX_XYZ.names)
    return a * x ** 3 * y + b * y ** 3 * z + c * z ** 3 * x


def _fermat(a, b, c):
    x, y, z = (CTX_XYZ.gen(n) for n in CTX_XYZ.names)
    return a * x ** 3 + b * y ** 3 + c * z ** 3


def _odd_both_sides():
    X = corpus_boundary_mfs()["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    return [(mf_rename(X, {"x": "u", "y": "v"}), shift(X)),
            (shift(X), mf_rename(X, {"x": "u"}))]


def _rank_one():
    X = corpus_boundary_mfs()["x^3:(x,x^2)"]
    cx = X.ctx
    odd_one = shift(trivial_mf(cx))
    return [(trivial_mf(cx), X), (X, trivial_mf(ctx_of("z"))),
            (odd_one, X), (X, odd_one)]


def _meeting_cells():
    """Unvalidated factors with diagonal entries, so that both terms of the
    differential reach the same cell (and cancel in one of them)."""
    cx = ctx_of("x")
    x = cx.gen("x")
    Y = MatrixFactorisation(cx, cx.zero(), (1, 0), [[x, x], [cx.one(), x]],
                            validate=False)
    X = MatrixFactorisation(cx, cx.zero(), (0, 1), [[x, -x], [x ** 2, x]],
                            validate=False)
    return [(Y, X), (X, Y)]


TENSOR_CASES = {
    "Delta Klein": lambda: _structure_map_factors(
        delta_defect(_klein(1, 1, 1))),
    "Delta Fermat": lambda: _structure_map_factors(
        delta_defect(_fermat(1, -1, 1))),
    "line y^2->x^2": lambda: _structure_map_factors(line_defect(2)),
    "line y^3->x^3": lambda: _structure_map_factors(line_defect(3)),
    "odd basis vectors on both sides": _odd_both_sides,
    "rank one": _rank_one,
}


def _same_tensor(got, want):
    assert got.ctx == want.ctx and got.parity == want.parity
    assert got.factors[0] is want.factors[0]
    assert got.factors[1] is want.factors[1]
    assert (list(got.potential.terms.items())
            == list(want.potential.terms.items()))
    for grow, wrow in zip(got.d, want.d, strict=True):
        for g, w in zip(grow, wrow, strict=True):
            assert g.ctx == w.ctx
            assert list(g.terms.items()) == list(w.terms.items())


@pytest.mark.parametrize("key", list(TENSOR_CASES))
def test_tensor_matches_the_accumulating_reference(key):
    for Y, X in TENSOR_CASES[key]():
        assert not Y.validation_failures() and not X.validation_failures()
        T = tensor(Y, X)
        _same_tensor(T, _reference_tensor(Y, X))
        assert not T.validation_failures()


def test_tensor_adds_only_where_both_terms_meet():
    for Y, X in _meeting_cells():
        T = tensor(Y, X)
        _same_tensor(T, _reference_tensor(Y, X))
    # (x, x): the cell (0, 0) holds dY[0][0] - dX[0][0] = x - x = 0
    Y, X = _meeting_cells()[0]
    assert tensor(Y, X).d[0][0].is_zero()


def test_tensor_signs_cost_no_fraction_product(monkeypatch):
    """The Klein quartic's Delta with the right unit's factor: the Koszul
    signs negate each entry of d_X once and multiply by no Fraction."""
    data = delta_defect(_klein(1, 1, 1))
    Y, X = unit.unit_action_right(data.base,
                                  data.source.unit).tensor_mf.factors
    assert any(Y.parity) and X.rank == 8
    scalars, products = [], []
    scale, mul = ring._terms_scale, Fraction.__mul__

    def counting_scale(a, c):
        scalars.append(c)
        return scale(a, c)

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(ring, "_terms_scale", counting_scale)
    monkeypatch.setattr(Fraction, "__mul__", counting_mul)
    T = tensor(Y, X)
    monkeypatch.undo()
    assert [c for c in scalars if not (type(c) is int and c == -1)] == []
    assert len(scalars) == sum(1 for row in X.d for e in row if e.terms)
    assert products == []
    _same_tensor(T, _reference_tensor(Y, X))


def test_tensor_morphism_functorial_up_to_sign(eta_x3):
    X = eta_x3.source
    Y = mf_rename(X, {"x": "y"})
    ey = Morphism(Y, Y, 1, [[embed(e, Y.ctx) for e in row]
                            for row in mf_rename_mat(eta_x3, {"x": "y"})])
    idX = X.identity()
    idY = Y.identity()
    f = tensor_morphism(ey, idX)
    g = tensor_morphism(idY, eta_x3)
    # (ey (x) 1)(1 (x) eta) = -(1 (x) eta)(ey (x) 1) for odd eta, ey
    assert f.compose(g) == g.compose(f).scale(Fraction(-1))
    assert f.is_closed() and g.is_closed()


def mf_rename_mat(phi, mapping):
    from lgmf.ring import rename
    new_names = [mapping.get(n, n) for n in phi.ctx.names]
    target = RingContext(new_names)
    return [[rename(e, mapping, target) for e in row] for row in phi.mat]


def test_null_homotopy_found_for_contractible_endomorphism():
    cx = ctx_of("x")
    x = cx.gen("x")
    X = new_mf(cx, x ** 3, [[x]], [[x ** 2]])
    # the boundary of an arbitrary odd map is null-homotopic by construction
    alpha = Morphism(X, X, 1, [[cx.zero(), x], [cx.one(), cx.zero()]])
    phi = alpha.boundary()
    wit = null_homotopy_search(phi)
    assert isinstance(wit, Morphism) and wit.parity == phi.parity ^ 1
    assert (wit.source, wit.target) == (X, X)
    assert wit.verifies(phi) and wit.boundary() == phi
    assert not wit.verifies(phi.scale(2))


def test_homotopic_depends_only_on_class(eta_x3):
    X = eta_x3.source
    alpha = Morphism(X, X, 0, [[X.ctx.gen("x"), X.ctx.zero()],
                               [X.ctx.zero(), X.ctx.zero()]])
    other = eta_x3 + alpha.boundary()
    assert homotopic(eta_x3, other) is not None
    assert homotopic(eta_x3, eta_x3.scale(Fraction(2))) is None


def test_default_null_homotopies_certify_derivatives(boundary_mfs):
    X = boundary_mfs["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    hs = default_null_homotopies(X, X.ctx.names, side="source")
    assert isinstance(hs, NullHomotopySet)
    for name in X.ctx.names:
        lam = hs.entries[name].mat
        dW = partial_derivative(X.potential, name)
        comm = polymat.mat_add(polymat.mat_mul(X.d, lam),
                               polymat.mat_mul(lam, X.d))
        want = [[-dW if i == j else X.ctx.zero() for j in range(X.rank)]
                for i in range(X.rank)]
        assert polymat.mat_eq(comm, want)


def test_homotopy_order_flips_pairing_sign(boundary_mfs):
    """Pairing a closed endomorphism against the reversed homotopy product
    negates the residue, exactly."""
    from lgmf.mf import str_matrix
    from lgmf.residue import residue
    X = boundary_mfs["x^3-y^3:(x-y,x^2+x*y+y^2)"]
    ctx = X.ctx
    hs = default_null_homotopies(X, ctx.names, side="source")
    dens = [partial_derivative(X.potential, n) for n in ctx.names]
    alphas = [X.identity(),
              Morphism(X, X, 0, polymat.mat_scale(
                  polymat.identity(ctx, X.rank), Fraction(1)))]
    y = ctx.gen("y")
    alphas[1] = Morphism(X, X, 0, [[e * y for e in row]
                                   for row in alphas[1].mat])
    saw_nonzero = False
    for alpha in alphas:
        def pair(sig):
            m = polymat.mat_mul(alpha.mat, hs.permuted_product(sig))
            return residue(str_matrix(m, X.parity), dens, list(ctx.names))
        a, b = pair((1, 2)), pair((2, 1))
        assert a == -b
        saw_nonzero = saw_nonzero or not a.is_zero()
    assert saw_nonzero


def test_trivial_factorisation():
    cx = ctx_of("x")
    T = trivial_mf(cx)
    assert T.rank == 1 and T.potential.is_zero()


def test_adding_morphisms_of_different_parity_raises(eta_x3):
    even = eta_x3.source.identity()
    with pytest.raises(ValueError):
        even + eta_x3
    with pytest.raises(ValueError):
        even - eta_x3


def test_a_morphism_refuses_entries_of_the_wrong_parity(boundary_mfs):
    X = boundary_mfs["x^3:(x,x^2)"]
    cx = X.ctx
    x = cx.gen("x")
    with pytest.raises(ValueError,
                       match=r"^entry \[0\]\[1\] = -x is not of parity 0$"):
        Morphism(X, X, 0, [[cx.zero(), -x], [cx.one(), cx.zero()]])
    with pytest.raises(ValueError, match=r"entry \[0\]\[0\] = 1 is not "
                                         r"of parity 1"):
        Morphism(X, X, 1, [[cx.one(), cx.zero()], [cx.zero(), cx.one()]])
    # zero entries may sit anywhere
    assert Morphism(X, X, 0, polymat.zeros(cx, 2, 2)).is_zero()


def test_wrong_solver_output_fails_witness_verification(monkeypatch):
    cx = ctx_of("x")
    x = cx.gen("x")
    X = new_mf(cx, x ** 3, [[x]], [[x ** 2]])
    alpha = Morphism(X, X, 1, [[cx.zero(), x], [cx.one(), cx.zero()]])
    phi = alpha.boundary()
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda rows, rhs: {
        c: v + 1 for c, v in solve(rows, rhs).items()})
    with pytest.raises(RuntimeError):
        null_homotopy_search(phi)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_monomials_up_to_matches_filtered_product(n):
    ctx = RingContext([f"v{i}" for i in range(n)])
    for bound in range(-1, 7):
        filtered = sorted(e for e in itertools.product(range(bound + 1),
                                                       repeat=n)
                          if sum(e) <= bound)
        assert _monomials_up_to(ctx, bound) == filtered


# -- the boundary system against its first-written loop ---------------------

def _reference_boundary_columns(source, target, parity, bound, ctx,
                                reduce=None):
    """The first-written builder: exponents added in a generator, every
    term accumulated onto a default 0 and the sign a Fraction product."""
    monos = _monomials_up_to(ctx, bound)
    domain = [(i, j, m) for i in range(target.rank) for j in range(source.rank)
              if (target.parity[i] + source.parity[j]) % 2 == parity
              for m in monos]
    dT = embed_matrix(target.d, ctx)
    dS = embed_matrix(source.d, ctx)
    sgn = Fraction(-1) ** parity
    columns = []
    for (i, j, m) in domain:
        col = {}
        for r in range(target.rank):
            for exp, c in dT[r][i].terms.items():
                key = (r, j, tuple(x + y for x, y in zip(exp, m)))
                col[key] = col.get(key, 0) + c
        for b in range(source.rank):
            for exp, c in dS[j][b].terms.items():
                key = (i, b, tuple(x + y for x, y in zip(exp, m)))
                col[key] = col.get(key, 0) - sgn * c
        if reduce is not None:
            entries = {}
            for (r, b, exp), c in col.items():
                entries.setdefault((r, b), {})[exp] = c
            col = {(r, b, exp): c for (r, b), terms in entries.items()
                   for exp, c in reduce(ring.Poly(ctx, terms)).terms.items()}
        columns.append({k: v for k, v in col.items() if v})
    return domain, columns


def _boundary_cases():
    """(name, source, target, ctx, Groebner basis of a normal-form hook).

    The corpus line defects as endomorphism systems and coev_tilde's
    unit -> tensor system, each with the hook kernel_homotopy_search passes
    for the defect's ev_tilde; and factors with diagonal entries, where
    both terms of the boundary reach one cell and some cancel."""
    out = []
    for p in (2, 3):
        data = line_defect(p)
        X = data.base
        out.append((f"line {p}", X, X, X.ctx,
                    adjunction.ev_tilde(data).denominator_gb(X.ctx)))
    data = line_defect(2)
    C = adjunction.coev_tilde(data)
    ctx = C._joint_ctx()
    out.append(("coev_tilde line 2", C.source, C.target, ctx,
                adjunction.ev_tilde(data).denominator_gb(ctx)))
    X = _meeting_cells()[0][1]
    out.append(("meeting cells", X, X, X.ctx,
                groebner([X.ctx.gen("x") ** 2])))
    return out


@pytest.mark.parametrize("case", _boundary_cases(), ids=lambda c: c[0])
def test_boundary_columns_match_the_reference_loop(case):
    _, S, T, ctx, gb = case
    for reduce in (None, lambda q: normal_form(q, gb)):
        for parity in (0, 1):
            for bound in (0, 2, 4):
                dom, cols = _boundary_columns(S, T, parity, bound, ctx,
                                              reduce)
                rdom, rcols = _reference_boundary_columns(
                    S, T, parity, bound, ctx, reduce)
                assert dom == rdom
                assert cols == rcols
                assert all(canonical_coefficient(c)
                           for col in cols for c in col.values())
    # the hook changes some column
    assert (_boundary_columns(S, T, 0, 4, ctx)[1]
            != _boundary_columns(S, T, 0, 4, ctx,
                                 lambda q: normal_form(q, gb))[1])
