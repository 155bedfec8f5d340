"""Matrix factorisations: validity, functors, tensor calculus, homotopies."""

import itertools
from fractions import Fraction

import pytest

from lgmf import linalg, polymat
from lgmf.mf import (FactorisationError, MatrixFactorisation, Morphism,
                     NullHomotopySet, _monomials_up_to,
                     default_null_homotopies, dual,
                     dual_morphism, homotopic, identity_morphism, mf_rename,
                     new_mf, null_homotopy_search, shift, supertrace, tensor,
                     tensor_morphism, trivial_mf)
from lgmf.ring import RingContext, embed, partial_derivative

from conftest import corpus_boundary_mfs, corpus_potentials, ctx_of


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


def test_tensor_morphism_functorial_up_to_sign(eta_x3):
    X = eta_x3.source
    Y = mf_rename(X, {"x": "y"})
    ey = Morphism(Y, Y, 1, [[embed(e, Y.ctx) for e in row]
                            for row in mf_rename_mat(eta_x3, {"x": "y"})])
    idX = identity_morphism(X)
    idY = identity_morphism(Y)
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
    assert wit is not None
    assert wit.verifies(phi)


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
    alphas = [identity_morphism(X),
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


def test_wrong_solver_output_fails_witness_verification(monkeypatch):
    cx = ctx_of("x")
    x = cx.gen("x")
    X = new_mf(cx, x ** 3, [[x]], [[x ** 2]])
    alpha = Morphism(X, X, 1, [[cx.zero(), x], [cx.one(), cx.zero()]])
    phi = alpha.boundary()
    solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda matrix, rhs: [
        v + 1 for v in solve(matrix, rhs)])
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
