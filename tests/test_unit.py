"""The stabilised diagonal, its splitting maps and the unit actions."""

import itertools
from fractions import Fraction

import pytest

from lgmf import polymat, signs
from lgmf.mf import Morphism, homotopic, new_mf
from lgmf.residue import JacobiRing, NotAPotential
from lgmf.ring import RingContext, divided_difference, embed, substitute
from lgmf.unit import (KoszulElement, _try_restrict, difference_quotients,
                       epsilon, koszul_unit, lambda_inverse, lift_to_diagonal,
                       permute_unit, phi, psi, psi_of_words,
                       psi_phi_is_identity, rho_inverse, stab_pi,
                       unit_action_left, unit_action_right)

from conftest import (boundary_defect, corpus_boundary_mfs,
                      corpus_potentials, ctx_of, delta_defect, line_defect)


THREE_VARS = ctx_of("x", "y", "z")
W3 = (THREE_VARS.gen("x") ** 3 + THREE_VARS.gen("y") ** 3
      + THREE_VARS.gen("z") ** 3)


def all_units():
    units = [koszul_unit(W) for W in corpus_potentials().values()]
    units.append(koszul_unit(W3))
    return units


def test_unit_is_a_factorisation_of_the_difference():
    for unit in all_units():
        assert not unit.validation_failures()
        assert unit.rank == 2 ** unit.n
        prime_map = dict(zip(unit.base_names, unit.prime_names))
        want = embed(unit.W, unit.ctx) - substitute(
            embed(unit.W, unit.ctx), prime_map)
        assert unit.potential == want


def test_psi_phi_identity_up_to_three_variables():
    for unit in all_units():
        assert psi_phi_is_identity(unit)


def test_psi_on_short_words():
    unit = koszul_unit(corpus_potentials()["x^3-y^3"])
    x = unit.ctx.gen("x")
    el = psi([x], unit)
    # the one-letter word df maps to difference quotients on singletons
    assert set(el) <= {(0,), (1,)}
    long = psi([x, x, x], unit)
    assert long == {}  # words longer than n vanish


def test_epsilon_reads_top_coefficient():
    unit = koszul_unit(corpus_potentials()["x^3-y^3"])
    el = KoszulElement()
    el.accumulate((0, 1), unit.ctx.one())
    assert epsilon(el, unit) == unit.ctx.one()
    el2 = KoszulElement()
    el2.accumulate((0,), unit.ctx.one())
    assert epsilon(el2, unit).is_zero()


def test_stabilisation_map_contracts_primes():
    unit = koszul_unit(corpus_potentials()["x^3"])
    pi = stab_pi(unit)
    el = KoszulElement()
    el.accumulate((), unit.ctx.gen(unit.prime_names[0]) ** 2)
    assert pi(el) == embed(unit.W.ctx.gen("x") ** 2, unit.ctx)


# -- unit actions and their sections -----------------------------------------

def _left_setup(key):
    X = corpus_boundary_mfs()[key]
    unit = koszul_unit(X.potential)
    act = unit_action_left(X, unit)
    return X, unit, act


@pytest.mark.parametrize("key", ["x^3:(x,x^2)", "xy:(x,y)",
                                 "x^3-y^3:(x-y,x^2+x*y+y^2)"])
def test_lambda_section_exact(key):
    X, unit, act = _left_setup(key)
    assert act.is_closed()
    li = lambda_inverse(X, unit, action=act)
    assert li.is_closed()
    assert act.compose(li) == X.identity()


def _widen(X, ctx):
    from lgmf.mf import MatrixFactorisation
    return MatrixFactorisation(ctx, embed(X.potential, ctx), list(X.parity),
                               [[embed(e, ctx) for e in row] for row in X.d])


def _reversed_composite_acts_as_identity(X, act, inv):
    """The section-then-action idempotent fixes every morphism class X -> T.

    The action contracts a variable, so the reversed composite is only
    semilinear over the full coefficient ring; its homotopy-category content
    is exactly that it fixes [X, T] in both parities, which is a finite,
    witness-verified statement.
    """
    from lgmf.tft import hom_cohomology
    T = act.tensor_mf
    Xb = _widen(X, T.ctx)
    coh = hom_cohomology(Xb, T, degree_bound=3)
    assert coh.stable
    assert sum(coh.dimensions) > 0
    for reps in (coh.h0, coh.h1):
        for f in reps:
            f_small = Morphism(X, T, f.parity, f.mat)
            g = inv.compose(act.compose(f_small))
            g_wide = Morphism(Xb, T, g.parity, g.mat)
            wit = homotopic(g_wide, f)
            assert wit is not None and wit.verifies(g_wide - f)


@pytest.mark.parametrize("key", ["x^3:(x,x^2)", "xy:(x,y)"])
def test_lambda_reversed_composite_fixes_morphism_classes(key):
    X, unit, act = _left_setup(key)
    li = lambda_inverse(X, unit, action=act)
    _reversed_composite_acts_as_identity(X, act, li)


def _right_setup(power):
    from conftest import line_defect
    data = line_defect(power)
    X = data.base
    unit = koszul_unit(data.source.potential)
    act = unit_action_right(X, unit)
    return X, unit, act


@pytest.mark.parametrize("power", [2, 3])
def test_rho_section_exact_on_defects(power):
    X, unit, act = _right_setup(power)
    assert act.is_closed()
    ri = rho_inverse(X, unit, action=act)
    assert ri.is_closed()
    assert act.compose(ri) == X.identity()


@pytest.mark.parametrize("power", [2, 3])
def test_rho_reversed_composite_fixes_morphism_classes(power):
    X, unit, act = _right_setup(power)
    ri = rho_inverse(X, unit, action=act)
    _reversed_composite_acts_as_identity(X, act, ri)


def test_each_section_refuses_the_other_sides_action():
    """The action's side picks the section's formula: rho_inverse of a left
    action, or lambda_inverse of a right one, would not be closed."""
    ctx = ctx_of("x", "y")
    x, y = ctx.gen("x"), ctx.gen("y")
    X = new_mf(ctx, x ** 3 + y ** 3, [[x + y]], [[x * x - x * y + y * y]])
    unit = koszul_unit(X.potential)
    for section, own, other in ((rho_inverse, unit_action_right,
                                 unit_action_left),
                                (lambda_inverse, unit_action_left,
                                 unit_action_right)):
        with pytest.raises(ValueError, match="section of a"):
            section(X, unit, action=other(X, unit))
        act = own(X, unit)
        assert act.compose(section(X, unit, action=act)) == X.identity()


# -- the difference-quotient primitive ---------------------------------------

QUOTIENT_DEFECTS = {
    "boundary x^3": lambda: boundary_defect(
        corpus_boundary_mfs()["x^3:(x,x^2)"]),
    "boundary x^3-y^3": lambda: boundary_defect(
        corpus_boundary_mfs()["x^3-y^3:(x-y,x^2+x*y+y^2)"]),
    "line y^3->x^3": lambda: line_defect(3),
    "Delta x^3-y^3": lambda: delta_defect(corpus_potentials()["x^3-y^3"]),
    "Delta x^3+y^3+z^3": lambda: delta_defect(W3),
}


@pytest.mark.parametrize("key", list(QUOTIENT_DEFECTS))
def test_difference_quotients_match_the_single_quotients(key):
    """The telescoping pass gives divided_difference of each entry of d_X,
    for the pairs in every order, on both sides of the defect: n = 0 (a
    boundary's source) up to n = 3."""
    data = QUOTIENT_DEFECTS[key]()
    X = data.base
    for unit in (data.source.unit, data.target.unit):
        ctx = X.ctx.extend(unit.prime_names)
        d = [[embed(e, ctx) for e in row] for row in X.d]
        for pairs in itertools.permutations(unit.pairs):
            got = difference_quotients(d, pairs)
            assert len(got) == unit.n
            for i, mat in enumerate(got):
                assert mat == [[divided_difference(e, i + 1, pairs)
                                for e in row] for row in d]


# -- lifting and variable permutation ----------------------------------------

@pytest.mark.parametrize("key", ["x^3", "x^3-y^3"])
def test_lift_of_stabilisation_map_through_itself(key):
    W = corpus_potentials()[key]
    unit = koszul_unit(W)
    base = W.ctx
    values = [base.one() if S == () else base.zero() for S in unit.subsets]
    lift = lift_to_diagonal(values, unit, unit)
    assert lift.is_closed()
    pi = stab_pi(unit)
    for j in range(unit.rank):
        col = KoszulElement()
        for k, S in enumerate(unit.subsets):
            col.accumulate(tuple(S), lift.mat[k][j])
        assert pi(col) == embed(values[j], unit.ctx)


def _lift_by_words(phi_values, Y, unit):
    """The lift summed over index words, the oracle of lift_to_diagonal.

    Column j accumulates, over index words (j_1, ..., j_l), the Psi-image of
    the word of differentials times the primed phi-value, with the sign
    (-1)^(l|e_j| + l).
    """
    ctx = unit.ctx.merge(Y.ctx)
    prime_map = dict(zip(unit.base_names, unit.prime_names))
    pos = {s: k for k, s in enumerate(unit.subsets)}
    mat = polymat.zeros(ctx, len(unit.subsets), Y.rank)
    for j in range(Y.rank):
        acc = KoszulElement()
        stack = [(j, [], 0)]    # (last index, word so far, length)
        while stack:
            last, word, l = stack.pop()
            val = embed(phi_values[last], ctx)
            if not val.is_zero():
                tail = substitute(val, prime_map, target_ctx=ctx)
                sgn = signs.minus_one_to(l * Y.parity[j] + l)
                for subset, c in psi(word, unit).items():
                    acc.accumulate(subset, embed(c, ctx) * tail * sgn)
            if l < unit.n:
                for nxt in range(Y.rank):
                    e = embed(Y.d[nxt][last], ctx)
                    if not e.is_zero():
                        stack.append((nxt, word + [e], l + 1))
        for subset, c in acc.items():
            mat[pos[subset]][j] = embed(c, ctx)
    return mat


_XY = ctx_of("x", "y")
_W_X2Y_Y4 = _XY.gen("x") ** 2 * _XY.gen("y") + _XY.gen("y") ** 4
LIFT_CASES = {
    "Delta x^3": lambda: _diagonal(corpus_potentials()["x^3"]),
    "Delta x^3-y^3": lambda: _diagonal(corpus_potentials()["x^3-y^3"]),
    "Delta x^2y+y^4": lambda: _diagonal(_W_X2Y_Y4),
    "Delta Fermat cubic": lambda: _diagonal(W3),
    "rank 2 over x^2y+y^4": lambda: (
        new_mf(_XY, _W_X2Y_Y4, [[_XY.gen("y")]],
               [[_XY.gen("x") ** 2 + _XY.gen("y") ** 3]]),
        koszul_unit(_W_X2Y_Y4)),
}


def _diagonal(W):
    unit = koszul_unit(W)
    return unit, unit


@pytest.mark.parametrize("key", list(LIFT_CASES))
def test_lift_is_the_sum_over_index_words(key):
    """The subset products give exactly the word search, for even
    phi-values nonzero on every even basis column."""
    Y, unit = LIFT_CASES[key]()
    base = unit.W.ctx
    values = [base.zero() if Y.parity[j] else
              base.gen(base.names[j % len(base.names)]) ** j + j + 1
              for j in range(Y.rank)]
    assert (lift_to_diagonal(values, Y, unit).mat
            == _lift_by_words(values, Y, unit))


def test_wedge_complement_sign_is_the_wedge_product():
    """theta_S ^ theta_B, B the complement, formed one theta at a time."""
    for n in range(5):
        for S in signs.subsets_ordered(n):
            s, comp = signs.wedge_complement_sign(S, n)
            assert comp == tuple(i for i in range(n) if i not in S)
            sign, T = 1, S
            # theta_T ^ theta_b = (-1)^|T| theta_b ^ theta_T
            for b in comp:
                step, T2 = signs.wedge_insert(b, T)
                sign, T = sign * step * (-1) ** len(T), T2
            assert T == tuple(range(n))
            assert signs.minus_one_to(s) == sign


def _assert_closed_and_respects_pi(xi, unit, unit_sigma):
    """xi is closed and pi^sigma o xi = pi."""
    assert xi.is_closed()
    pi_sigma = stab_pi(unit_sigma)
    for j in range(unit.rank):
        col = KoszulElement()
        for k, S in enumerate(unit_sigma.subsets):
            col.accumulate(tuple(S), xi.mat[k][j])
        got = pi_sigma(col)
        want = embed(unit.W.ctx.one() if unit.subsets[j] == ()
                     else unit.W.ctx.zero(), got.ctx)
        assert got == want


def test_permute_unit_comparison_is_closed_and_respects_pi():
    W = corpus_potentials()["x^3-y^3"]
    _assert_closed_and_respects_pi(*permute_unit((2, 1), W))


def _permute_unit_by_hand(sigma, W):
    """xi with the contraction spelled out: lambda-inverse into
    Delta^sigma (x) Delta_W (basis index s * rank + j), Delta^sigma's primes
    renamed to the middles, keep the theta-degree-0 component j = 0 of the
    right-hand Delta_W, then rename the middles to Delta^sigma's primes."""
    unit = koszul_unit(W)
    names = W.ctx.names
    unit_sigma = koszul_unit(embed(W, RingContext([names[s - 1]
                                                   for s in sigma])))
    mids = tuple(n + "''" for n in unit_sigma.base_names)
    inner = unit_sigma.renamed(dict(zip(unit_sigma.prime_names, mids)))
    act = unit_action_left(unit, inner)
    li = lambda_inverse(unit, inner, act)
    ctx = act.tensor_mf.ctx
    back = dict(zip(mids, unit_sigma.prime_names))
    rx = unit.rank
    return [[_try_restrict(substitute(embed(li.mat[s * rx][i], ctx), back,
                                      target_ctx=ctx), unit_sigma.ctx)
             for i in range(rx)] for s in range(act.unit_mf.rank)]


_CXYZ = ctx_of("x", "y", "z")
_X, _Y, _Z = (_CXYZ.gen(n) for n in "xyz")
_CXY = ctx_of("x", "y")
_U, _V = _CXY.gen("x"), _CXY.gen("y")


@pytest.mark.parametrize("W", [
    _U ** 3 + _V ** 3, _U ** 2 * _V + _V ** 4,
    _X ** 3 + _Y ** 3 + _Z ** 3,
    _X ** 3 * _Y + _Y ** 3 * _Z + _Z ** 3 * _X,
], ids=["x3+y3", "x2y+y4", "Fermat cubic", "Klein quartic"])
def test_permute_unit_is_the_hand_written_contraction(W):
    """rho o lambda-inverse through UnitAction gives the entries, and their
    contexts, of the contraction written out by hand, for every sigma."""
    for sigma in itertools.permutations(range(1, len(W.ctx.names) + 1)):
        xi, unit, unit_sigma = permute_unit(sigma, W)
        want = _permute_unit_by_hand(sigma, W)
        assert (xi.source, xi.target) == (unit, unit_sigma)
        assert [[(e.ctx, e) for e in row] for row in xi.mat] == [
            [(e.ctx, e) for e in row] for row in want], sigma

# Non-separable potentials W = sum_k a_k * b_k with their Koszul
# factorisations (a_k; b_k): rank 1 for one pair, rank 2 for two.
SIGMA_CASES = {
    "xy": [(_U, _V)],
    "x2y+y4": [(_V, _U ** 2 + _V ** 3)],
    "x2y+y3": [(_V, _U ** 2 + _V ** 2)],
    "x2y+y2z+z3": [(_X, _X * _Y), (_Z, _Y ** 2 + _Z ** 2)],
    "Klein quartic": [(_X, _X ** 2 * _Y + _Z ** 3), (_Z, _Y ** 3)],
}


def _koszul_mf(pairs, sign=1):
    """The Koszul factorisation of sign * sum_k a_k * b_k."""
    pairs = [(a, b * sign) for a, b in pairs]
    ctx = pairs[0][0].ctx
    W = sum((a * b for a, b in pairs), ctx.zero())
    if len(pairs) == 1:
        (a, b), = pairs
        return new_mf(ctx, W, [[a]], [[b]])
    (a1, b1), (a2, b2) = pairs
    return new_mf(ctx, W, [[a1, a2], [-b2, b1]], [[b1, -a2], [b2, a1]])


def _sigma_units(key):
    """(sigma, xi, Delta_W, Delta_W^sigma) for every order sigma of W."""
    X = _koszul_mf(SIGMA_CASES[key])
    n = len(X.ctx.names)
    for sigma in itertools.permutations(range(1, n + 1)):
        yield (sigma, *permute_unit(sigma, X.potential))


@pytest.mark.parametrize("key", list(SIGMA_CASES))
def test_permute_unit_is_closed_and_respects_pi_at_every_order(key):
    """xi: Delta_W -> Delta_W^sigma on non-separable W, every sigma;
    Delta_W^sigma primes variable sigma(k) k-th."""
    for sigma, xi, unit, unit_sigma in _sigma_units(key):
        assert unit_sigma.base_names == tuple(unit.base_names[s - 1]
                                              for s in sigma)
        _assert_closed_and_respects_pi(xi, unit, unit_sigma)


@pytest.mark.parametrize("key", list(SIGMA_CASES))
def test_permute_unit_inverse_order_undoes_xi(key):
    """The comparison back from Delta_W^sigma to Delta_W is closed, and
    after xi it is the identity, exactly."""
    for sigma, xi, unit, unit_sigma in _sigma_units(key):
        back_order = tuple(sigma.index(k) + 1
                           for k in range(1, len(sigma) + 1))
        back, _, unit_back = permute_unit(back_order, unit_sigma.W)
        assert unit_back.ctx == unit.ctx
        assert back.is_closed(), sigma
        assert back.compose(xi) == Morphism(unit, unit, 0, polymat.identity(
            unit.ctx, unit.rank)), sigma


@pytest.mark.parametrize("key", list(SIGMA_CASES))
def test_sections_into_sigma_units_are_exact(key):
    """lambda-inverse of a factorisation of W and rho-inverse of one of -W
    into Delta_W^sigma are closed, and sections: lambda o lambda-inverse =
    rho o rho-inverse = Id exactly, at every sigma."""
    X = _koszul_mf(SIGMA_CASES[key])
    Xneg = _koszul_mf(SIGMA_CASES[key], sign=-1)
    for sigma, _, _, unit_sigma in _sigma_units(key):
        act = unit_action_left(X, unit_sigma)
        li = lambda_inverse(X, unit_sigma, action=act)
        assert li.is_closed(), sigma
        assert act.compose(li) == X.identity(), sigma
        act = unit_action_right(Xneg, unit_sigma)
        ri = rho_inverse(Xneg, unit_sigma, action=act)
        assert ri.is_closed(), sigma
        assert act.compose(ri) == Xneg.identity(), sigma


def test_permute_unit_rejects_a_non_permutation():
    W = corpus_potentials()["x^3-y^3"]
    with pytest.raises(ValueError, match="not a permutation"):
        permute_unit((1, 1), W)


def test_sections_refuse_a_factorisation_using_the_units_primes():
    """Delta_W's own primes are those of a unit of W: its quotients cannot
    interpolate toward them."""
    unit = koszul_unit(corpus_potentials()["x^3-y^3"])
    with pytest.raises(ValueError, match="primes"):
        lambda_inverse(unit, unit, unit_action_left(unit, unit))


def test_permute_unit_certifies_its_potential_once(monkeypatch):
    built = []
    real = JacobiRing.__init__

    def counting(self, W):
        built.append(W)
        real(self, W)

    monkeypatch.setattr(JacobiRing, "__init__", counting)
    cxy = ctx_of("x", "y")
    W = cxy.gen("x") ** 3 + cxy.gen("y") ** 3
    permute_unit((2, 1), W)
    assert built == [W]         # once, before either unit is built


def test_koszul_unit_factorises_any_polynomial():
    """Delta_W factorises W(x) - W(x') whether or not W is a potential; the
    certificate is the caller's (here permute_unit's)."""
    cxy = ctx_of("x", "y")
    W = cxy.gen("x") ** 2 * cxy.gen("y")        # infinite Jacobi ring
    unit = koszul_unit(W)
    assert unit.rank == 4 and not unit.validation_failures()
    with pytest.raises(NotAPotential):
        permute_unit((2, 1), W)
