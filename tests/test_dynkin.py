import pytest

from spindle import dynkin as dy
from spindle.errors import DomainError
from spindle.qpoly import QPolynomial, gaussian_binomial
from spindle.rootsystem import build_root_system

A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)


def test_dynkin_product_values():
    assert dy.dynkin_product(G2, (1, 0)) == QPolynomial.geometric(7)
    assert dy.dynkin_product(A2, (1, 0)) == QPolynomial.geometric(3)
    assert dy.dynkin_product(A3, (0, 1, 0)) == gaussian_binomial(2, 2)
    e7 = build_root_system("E", 7)
    got = dy.dynkin_product(e7, (0, 0, 0, 0, 0, 0, 1))
    want = (QPolynomial.geometric(2, 5) * QPolynomial.geometric(2, 9)
            * QPolynomial.geometric(14))
    assert got == want


@pytest.mark.parametrize("rs, lam", [
    (A2, (2, 2)), (B2, (1, 3)), (C3, (0, 2, 1)), (G2, (2, 1)),
    (build_root_system("E", 8), (0,) * 7 + (1,)),
])
def test_dynkin_product_with_terms_is_the_leading_coefficients(rs, lam):
    full = dy.dynkin_product(rs, lam).coeffs
    for terms in (1, 2, len(full) // 2, len(full), len(full) + 3):
        padded = full[:terms] + (0,) * (terms - len(full))
        assert dy.dynkin_product(rs, lam, terms) == QPolynomial(padded)


def test_dynkin_product_rejects_non_dominant():
    with pytest.raises(DomainError):
        dy.dynkin_product(A2, (1, -1))


def test_sum_equals_product():
    cases = [(A2, (2, 1)), (A3, (1, 1, 1)), (B2, (2, 0)), (C3, (0, 1, 0)),
             (G2, (1, 1))]
    for rs, lam in cases:
        assert dy.dynkin_sum(rs, lam) == dy.dynkin_product(rs, lam)


def test_dynkin_minuscule():
    for rs, lam in [(A3, (0, 1, 0)), (B2, (0, 1)), (C3, (1, 0, 0))]:
        assert dy.dynkin_minuscule(rs, lam) == dy.dynkin_product(rs, lam)
    with pytest.raises(DomainError):
        dy.dynkin_minuscule(G2, (1, 0))


def test_verify_spindle_report():
    report = dy.verify_spindle(G2, (1, 0))
    assert report["ok"]
    assert report["symmetric"] and report["unimodal"]
    assert report["degree_law"] and report["dimension_law"]
    assert report["violations"] == []
    for rs, lam in [(A3, (3, 1, 2)), (B2, (2, 2)), (C3, (1, 1, 1))]:
        assert dy.verify_spindle(rs, lam)["ok"]


def test_hermite_identities():
    for m in range(1, 6):
        for n in range(1, 6):
            rep = dy.hermite_identities(m, n)
            assert rep["ok"], (m, n)
            assert rep["value"] == gaussian_binomial(m, n)
    with pytest.raises(DomainError):
        dy.hermite_identities(0, 3)
