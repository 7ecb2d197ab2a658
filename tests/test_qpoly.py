import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qpoly_reference as ref
from spindle import qpoly
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
    assert (a * a * a).coeffs == (1, 3, 3, 1)
    assert (2 * a).coeffs == (2, 2)
    assert (a + 1).coeffs == (2, 1)


def test_exact_divide():
    num = P([1, 0, -1])
    assert ref.long_divide(num, P([1, -1])).coeffs == (1, 1)
    with pytest.raises(ExactDivisionError):
        ref.long_divide(P([1, 1, 1]), P([1, 1]))
    with pytest.raises(ExactDivisionError):
        ref.long_divide(P.one(), P.zero())
    assert ref.long_divide(P.zero(), P([1, 1])).is_zero()


coeffs_st = st.lists(st.integers(-9, 9), max_size=6)


@settings(max_examples=60, deadline=None)
@given(coeffs_st, coeffs_st)
def test_product_then_divide_roundtrip(ca, cb):
    a, b = P(ca), P(cb)
    if b.is_zero():
        return
    assert ref.long_divide(a * b, b) == a


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
            expected = ref.long_divide(expected, P.one() - P.monomial(b))
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


@st.composite
def series_pairs(draw):
    """(s1, s2, equal) with exponents in 1..8: a core series with its
    numerator and denominator times factors 1 - q^a for s1 and 1 - q^b
    for s2, so the exponent lists share the core and any common a and b,
    and are disjoint when there are none.  An unequal pair changes one
    numerator coefficient of s2."""
    num = P(draw(st.lists(st.integers(-5, 5), max_size=6)))
    core = draw(st.lists(st.integers(1, 8), max_size=4))
    series = []
    for _ in range(2):
        extra = draw(st.lists(st.integers(1, 8), max_size=4))
        n = num
        for d in extra:
            n = n * ref.one_minus(d)
        series.append([n, draw(st.permutations(core + extra))])
    equal = draw(st.booleans())
    if not equal:
        i = draw(st.integers(0, series[1][0].degree + 2))
        series[1][0] = series[1][0] + P.monomial(
            i, draw(st.sampled_from([-2, -1, 1, 3])))
    s1, s2 = (GradedSeries(n, exps) for n, exps in series)
    return s1, s2, equal


@settings(max_examples=300, deadline=None)
@given(series_pairs())
@example((GradedSeries(P.one(), [1]), GradedSeries(P([1, 1]), [2]), True))
@example((GradedSeries(P.one(), [1, 2]), GradedSeries(P.one(), [1, 3]),
          False))
def test_series_equal_matches_ring_operations(pair):
    s1, s2, equal = pair
    assert series_equal(s1, s2) == ref.series_equal(s1, s2) == equal
    assert series_equal(s2, s1) == equal


def test_series_equal_makes_no_generic_product(monkeypatch):
    from spindle import verify as vf
    from spindle import qanalogues as qa

    pairs = [(qa.poincare_cg(rs, lam), qa.poincare_ct(rs, lam))
             for rs, lam in vf._minuscule_fundamentals(5)]
    pairs.append((GradedSeries(P([1, 2, 1]), [1, 4, 4]),
                  GradedSeries(P([1, 3]), [2, 5, 7])))
    calls = []
    multiply = QPolynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return multiply(self, other)

    monkeypatch.setattr(QPolynomial, "__mul__", counted)
    monkeypatch.setattr(QPolynomial, "__rmul__", counted)
    results = [series_equal(a, b) for a, b in pairs]
    assert calls == []
    monkeypatch.undo()
    assert results == [ref.series_equal(a, b) for a, b in pairs]
    assert results[:-1] == [True] * (len(pairs) - 1)


def test_series_equal_refuses_a_nonpositive_exponent():
    with pytest.raises(ValueError):
        series_equal(GradedSeries(P.one(), [0]), GradedSeries(P.one(), [1]))


sum_operands = st.one_of(
    st.lists(st.integers(-4, 4), max_size=7).map(P),
    st.integers(-4, 4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), max_size=7).map(P), sum_operands)
@example(P([1, 2, 3]), P([1, 2, 3]))
@example(P([1, 2, 3]), P([0, 0, 3]))
@example(P([5]), 5)
def test_sums_match_coefficientwise_reference(a, b):
    pb = b if isinstance(b, QPolynomial) else P([b])
    assert a + b == ref.add(a, pb)
    assert b + a == ref.add(pb, a)
    assert a - b == ref.sub(a, pb)
    assert b - a == ref.sub(pb, a)
    for r in (a + b, a - b, b - a):
        assert not r.coeffs or r.coeffs[-1] != 0
    assert (a - a).coeffs == ()
    assert (a + (-a)).coeffs == ()


# dense polynomials and monomials c q^k (zero when c = 0), and ints
polynomial_factors = st.one_of(
    st.lists(st.integers(-4, 4), max_size=7).map(P),
    st.builds(P.monomial, st.integers(0, 6), st.integers(-4, 4)),
)


@settings(max_examples=300, deadline=None)
@given(polynomial_factors, st.one_of(polynomial_factors, st.integers(-4, 4)))
@example(P([1, 2, 3]), P([0, 0, 3]))
@example(P([0, 0, -2]), P([0, 5]))
@example(P([4]), P.zero())
@example(P([1, 2, 3]), 0)
@example(P([0, 1]), 7)
def test_products_match_schoolbook_reference(a, b):
    want = ref.mul(a, b if isinstance(b, QPolynomial) else P([b]))
    assert a * b == want
    assert b * a == want
    assert not (a * b).coeffs or (a * b).coeffs[-1] != 0


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


def _product(factors):
    acc = P.one()
    for f in factors:
        acc = acc * f
    return acc


display_inputs = st.one_of(
    # products of geometric blocks
    st.lists(st.tuples(st.integers(2, 6), st.integers(1, 4)), max_size=5)
    .map(lambda ks: _product(P.geometric(k, s) for k, s in ks)),
    # cyclotomic products, Phi_1 and Phi_d with d > deg p among them
    st.lists(st.integers(1, 16), max_size=6)
    .map(lambda ds: _product(ref.cyclotomic(d) for d in ds)),
    # small integer polynomials, palindromic or not
    st.lists(st.integers(-3, 3), max_size=9).map(P),
    st.lists(st.integers(0, 3), max_size=5)
    .map(lambda c: P([1] + c + c[::-1] + [1])),
)


@settings(max_examples=400, deadline=None)
@given(display_inputs)
@example(P.one())
@example(P([-1]))
@example(P([1, -1]))
@example(P([1, -2, 1]))
@example(P([1, 0, 0, 1]))
@example(ref.cyclotomic(5))
@example(ref.cyclotomic(3) * ref.cyclotomic(6))
@example(ref.cyclotomic(2) * ref.cyclotomic(12))
def test_factored_display_matches_trial_division(p):
    assert qpoly._cyclotomic_multiset(p) == ref.cyclotomic_multiset(p)
    assert factored_blocks(p) == ref.factored_blocks(p)
    assert factored_str(p) == ref.factored_str(p)


def test_non_product_of_degree_2000_prints_expanded_quickly():
    # palindromic but not cyclotomic: the peel stops after 2 deg p passes
    p = P([1] + [3] * 1999 + [1])
    start = time.perf_counter()
    assert factored_str(p) == poly_str(p)
    assert time.perf_counter() - start < 10
