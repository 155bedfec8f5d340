"""Groebner bases, normal forms, Jacobi quotients, potential certification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgmf.ideal import (GRLEX, check_potential, groebner,
                        membership_with_cofactors, normal_form,
                        power_membership, quotient_monomial_basis)
from lgmf.ring import RingContext, embed

from conftest import corpus_potentials
from test_ring import poly_strategy

CTX = RingContext(["x", "y"])


def _gens():
    x, y = CTX.gen("x"), CTX.gen("y")
    return [x ** 2 + y, x * y - 1, y ** 3 - x]


def test_normal_form_is_zero_on_generators():
    gens = _gens()
    gb = groebner(gens)
    for g in gens:
        assert normal_form(g, gb).is_zero()
    for a in gb.generators:
        for b in gens:
            assert normal_form(a * b, gb).is_zero()


@settings(max_examples=40)
@given(poly_strategy(CTX), poly_strategy(CTX))
def test_normal_form_is_linear_and_idempotent(p, q):
    gb = groebner(_gens())
    np_, nq = normal_form(p, gb), normal_form(q, gb)
    assert normal_form(p + q, gb) == normal_form(np_ + nq, gb)
    assert normal_form(np_, gb) == np_


@settings(max_examples=30)
@given(poly_strategy(CTX))
def test_membership_with_cofactors_reconstructs(p):
    gens = _gens()
    cofactors, remainder = membership_with_cofactors(p, gens)
    acc = CTX.zero()
    for c, g in zip(cofactors, gens):
        acc = acc + c * g
    assert acc + remainder == p
    gb = groebner(gens)
    assert remainder == normal_form(p, gb)


def test_jacobi_dimensions_of_corpus():
    expected = {"x^3": 2, "x^4": 3, "xy": 1, "x^2-y^2": 1, "x^3-y^3": 4}
    for key, W in corpus_potentials().items():
        cert = check_potential(W)
        assert cert.is_potential, key
        assert cert.jacobi_dimension == expected[key], key


def test_non_potential_rejected_with_witness():
    x, y = CTX.gen("x"), CTX.gen("y")
    cert = check_potential(x ** 2 * y)
    assert not cert.is_potential
    assert cert.quotient.witness in ("x", "y")


def test_quotient_basis_x3_y3():
    W = corpus_potentials()["x^3-y^3"]
    cert = check_potential(W)
    monos = cert.quotient.monomials
    assert sorted(monos) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_power_membership_in_jacobi_ideal():
    W = corpus_potentials()["x^3"]
    gb = check_potential(W).gb
    k, cof = power_membership("x", gb)
    x = W.ctx.gen("x")
    assert k >= 1
    assert normal_form(x ** k, gb).is_zero()
    acc = W.ctx.zero()
    for c, g in zip(cof, gb.original_gens):
        acc = acc + c * g
    assert acc == x ** k


def test_power_membership_bound_is_the_quotient_dimension():
    x, y = CTX.gen("x"), CTX.gen("y")
    # modulo (x - y^2, y^6), y is nilpotent of index exactly D = 6
    gb = groebner([x - y ** 2, y ** 6])
    assert quotient_monomial_basis(gb).dimension == 6
    assert power_membership("x", gb)[0] == 3
    assert power_membership("y", gb)[0] == 6
    with pytest.raises(ValueError, match=r"x\^2 is not in the ideal"):
        power_membership("x", groebner([x ** 2 - 1, y]))
    with pytest.raises(ValueError, match="infinite quotient"):
        power_membership("x", groebner([x ** 3]))


def test_groebner_requires_matching_contexts():
    other = RingContext(["z"])
    with pytest.raises(Exception):
        groebner([CTX.gen("x"), other.gen("z")])
    with pytest.raises(ValueError):
        groebner([])
