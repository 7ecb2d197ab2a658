import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindle.errors import ExactDivisionError
from spindle.qpoly import (
    GradedSeries,
    QPolynomial,
    cyclo_product,
    factored_blocks,
    factored_str,
    gaussian_binomial,
    poly_str,
    series_equal,
)

P = QPolynomial


def test_trailing_zeros_trimmed():
    assert P([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
    assert P([0, 0]).coeffs == ()
    assert P.zero().degree == -1
    assert P.one().degree == 0


def test_constructors_and_eval():
    assert P.monomial(3).coeffs == (0, 0, 0, 1)
    assert P.monomial(2, 5)(2) == 20
    assert P.geometric(4).coeffs == (1, 1, 1, 1)
    assert P.geometric(3, 2).coeffs == (1, 0, 1, 0, 1)
    assert P([1, 2, 3])(10) == 321


def test_ring_ops():
    a = P([1, 1])
    b = P([1, -1])
    assert (a * b).coeffs == (1, 0, -1)
    assert (a + b).coeffs == (2,)
    assert (a - a).is_zero()
    assert (a ** 3).coeffs == (1, 3, 3, 1)
    assert (2 * a).coeffs == (2, 2)
    assert (a + 1).coeffs == (2, 1)


def test_exact_divide():
    num = P([1, 0, -1])
    assert num.exact_divide(P([1, -1])).coeffs == (1, 1)
    with pytest.raises(ExactDivisionError):
        P([1, 1, 1]).exact_divide(P([1, 1]))
    with pytest.raises(ExactDivisionError):
        P.one().exact_divide(P.zero())
    assert P.zero().exact_divide(P([1, 1])).is_zero()


coeffs_st = st.lists(st.integers(-9, 9), max_size=6)


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st)
def test_product_then_divide_roundtrip(ca, cb):
    a, b = P(ca), P(cb)
    if b.is_zero():
        return
    assert (a * b).exact_divide(b) == a


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st, st.integers(-3, 3))
def test_evaluation_is_ring_hom(ca, cb, x):
    a, b = P(ca), P(cb)
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


def test_symmetry_and_unimodality():
    assert P([1, 2, 1]).is_symmetric()
    assert not P([1, 2, 2]).is_symmetric()
    assert P([1, 2, 2, 1]).is_unimodal()
    assert P([1, 0, 1]).is_symmetric()
    assert not P([1, 0, 1]).is_unimodal()
    assert P.zero().is_symmetric() and P.zero().is_unimodal()
    # the sp6 counterexample shape
    f = P([1, 1, 2, 2, 3, 2, 3, 1, 1])
    assert not f.is_symmetric()
    assert not f.is_unimodal()


def test_poly_str():
    assert poly_str(P.zero()) == "0"
    assert poly_str(P([1, 2, 0, -1])) == "1 + 2*q - q^3"
    assert poly_str(P([0, 1])) == "q"
    assert poly_str(P([-1])) == "-1"


def test_cyclo_product_and_gaussian():
    # (1-q^2)(1-q^3)/(1-q)^2 = (1+q)(1+q+q^2)
    assert cyclo_product([2, 3], [1, 1]).coeffs == (1, 2, 2, 1)
    assert gaussian_binomial(2, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian_binomial(0, 5) == P.one()
    assert gaussian_binomial(1, 3).coeffs == (1, 1, 1, 1)
    # full cancellation
    assert cyclo_product([4, 6], [6, 4]) == P.one()
    with pytest.raises(ExactDivisionError):
        cyclo_product([3], [2])
    with pytest.raises(ValueError):
        cyclo_product([2, 0], [1])


@st.composite
def cyclo_exponents(draw):
    """Numerator and denominator exponents in 1..12, up to ten a side.
    Some denominators divide distinct numerators, so that exact and
    inexact quotients are both drawn."""
    numer = draw(st.lists(st.integers(1, 12), max_size=10))
    denom = [
        draw(st.sampled_from([d for d in range(1, a + 1) if a % d == 0]))
        for a in numer if draw(st.booleans())
    ]
    denom += draw(st.lists(st.integers(1, 12), max_size=10 - len(denom)))
    return numer, draw(st.permutations(denom))


@settings(max_examples=300, deadline=None)
@given(cyclo_exponents())
def test_cyclo_product_matches_ring_operations(exps):
    numer, denom = exps
    expected = P.one()
    for a in numer:
        expected = expected * (P.one() - P.monomial(a))
    try:
        for b in denom:
            expected = expected.exact_divide(P.one() - P.monomial(b))
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            cyclo_product(numer, denom)
    else:
        assert cyclo_product(numer, denom) == expected


def test_gaussian_symmetry_in_arguments():
    for m in range(1, 6):
        for n in range(1, 6):
            assert gaussian_binomial(m, n) == gaussian_binomial(n, m)


def test_json_roundtrip():
    p = P([1, 0, 12345678901234567890])
    assert QPolynomial.from_json(p.to_json()) == p
    assert p.to_json()["coefficients"][2] == "12345678901234567890"


def test_graded_series_equality_is_semantic():
    # 1/(1-q) == (1+q)/(1-q^2)
    s1 = GradedSeries(P.one(), [1])
    s2 = GradedSeries(P([1, 1]), [2])
    assert s1 == s2
    assert series_equal(s1, s2)
    assert s1 != GradedSeries(P.one(), [2])
    with pytest.raises(TypeError):
        hash(s1)


def test_factored_blocks():
    p = P([1, 1]) * P([1, 0, 1]) * P([1, 0, 0, 1])
    blocks = factored_blocks(p)
    acc = P.one()
    for k, s in blocks:
        acc = acc * P.geometric(k, s)
    assert acc == p
    assert factored_blocks(P([1, 1, 2])) is None
    assert factored_blocks(P.one()) == []


def test_factored_str():
    assert factored_str(P.geometric(7)) == poly_str(P.geometric(7))
    two = P([1, 1]) * P([1, 1, 1])
    assert factored_str(two) == "(1 + q)(1 + q + q^2)"
    # a product that collapses to a single block prints expanded
    assert factored_str(P([1, 1]) * P([1, 0, 1])) == "1 + q + q^2 + q^3"
    assert factored_str(P([1, 1, 2])) == "1 + q + 2*q^2"
