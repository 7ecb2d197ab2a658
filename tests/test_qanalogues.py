from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindle import characters as ch
from spindle import qanalogues as qa
from spindle import verify as vf
from spindle.errors import (
    DomainError,
    InternalConsistencyError,
    ResourceBudgetError,
)
from spindle.qpoly import QPolynomial, cyclo_product
from spindle.rootsystem import RootSystem, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)


def test_kostant_partition_q():
    # alpha_1 + alpha_2 in A2: itself (1 root) or alpha_1 + alpha_2 (2 roots)
    assert qa.kostant_partition_q(A2, (1, 1)) == QPolynomial([0, 1, 1])
    assert qa.kostant_partition_q(A2, (0, 0)) == QPolynomial.one()
    assert qa.kostant_partition_q(A2, (-1, 0)).is_zero()
    assert qa.kostant_partition_q(A1, (3,)) == QPolynomial.monomial(3)


def test_lusztig_q_multiplicity_basics():
    assert qa.lusztig_q_multiplicity(A1, (2,), (0,)) == QPolynomial([0, 1])
    assert qa.lusztig_q_multiplicity(A2, (1, 1), (0, 0)) == QPolynomial(
        [0, 1, 1]
    )
    # highest weight itself
    assert qa.lusztig_q_multiplicity(A2, (1, 1), (1, 1)) == QPolynomial.one()
    # not a weight of the module
    assert qa.lusztig_q_multiplicity(A1, (2,), (1,)).is_zero()


def test_lusztig_specializes_to_multiplicity():
    from spindle import characters as ch

    for rs, lam in [(A2, (2, 2)), (B2, (2, 0)), (C3, (0, 1, 0))]:
        dom = ch.dominant_multiplicities(rs, lam)
        for mu, m in dom.items():
            assert qa.lusztig_q_multiplicity(rs, lam, mu)(1) == m


def test_wmf_q_power_law():
    from spindle import characters as ch

    lam = (0, 0, 1)
    assert ch.is_wmf(C3, lam)
    for mu in ch.dominant_weights(C3, lam):
        got = qa.lusztig_q_multiplicity(C3, lam, mu)
        doubled = C3.doubled_height(tuple(a - b for a, b in zip(lam, mu)))
        assert doubled % 2 == 0
        assert got == QPolynomial.monomial(doubled // 2)


def test_wmf_closed_form_refuses_a_half_integral_height(monkeypatch):
    rs = RootSystem("C", 3)
    monkeypatch.setattr(rs, "doubled_height", lambda mu: 1)
    power = qa._q_mult_fn(rs, (0, 0, 1), True, "closed", 10)
    with pytest.raises(InternalConsistencyError, match="half-integral"):
        power((0, 0, 1))


def test_t_poly():
    assert qa.t_poly(A3, (0, 1, 0)) == QPolynomial([1, 2, 1])
    assert qa.t_poly(G2, (1, 1)) == QPolynomial.one()
    assert qa.t_poly(G2, (0, 0)) == cyclo_product([2, 6], [1, 1])
    # t_0(1) = |W|
    assert qa.t_poly(B2, (0, 0))(1) == 8


def test_kostant_t0_factorization():
    for rs in (A1, A2, A3, B2, C3, G2):
        assert qa.kostant_t0_factorization(rs) == qa.t_poly(
            rs, (0,) * rs.rank
        )


def test_parabolic_quotient_equals_long_division():
    # every zero set of every type up to rank 8, against t_0 / t_lam by
    # long division of the two t polynomials
    for letter, rank in vf._simple_types(8):
        rs = build_root_system(letter, rank)
        t0 = qa.t_poly(rs, (0,) * rank)
        for lam in product((0, 1), repeat=rank):
            assert qa.parabolic_quotient(rs, lam) == t0.exact_divide(
                qa.t_poly(rs, lam)), (rs, lam)


def test_generalized_exponents():
    assert qa.generalized_exponents(A2, (1, 1)) == [1, 2]
    assert qa.generalized_exponents(G2, (1, 0)) == [3]
    assert len(qa.generalized_exponents(C3, (0, 1, 0))) == 2
    with pytest.raises(DomainError):
        qa.generalized_exponents(A2, (1, 0))


def test_adjoint_exponents_match_root_system():
    # zero-weight space of the adjoint realizes the exponents
    a3_adjoint = (1, 0, 1)
    assert qa.generalized_exponents(A3, a3_adjoint) == list(A3.exponents)
    assert qa.generalized_exponents(G2, (0, 1)) == list(G2.exponents)


def test_jump_tensor():
    assert qa.jump_tensor(A1, (1,), (1,)) == QPolynomial([1, 1])
    assert qa.jump_tensor(G2, (1, 0), (1, 0)) == QPolynomial([1] * 7)
    got = qa.jump_tensor(C3, (0, 1, 0), (0, 1, 0))
    assert got == QPolynomial([1, 1, 2, 2, 3, 2, 3, 1, 1])


def test_f_lambda_counterexample():
    f = qa.f_lambda(C3, (0, 1, 0))
    assert f == QPolynomial([1, 1, 2, 2, 3, 2, 3, 1, 1])
    assert not f.is_symmetric()
    assert not f.is_unimodal()
    assert f(1) == 16


def test_f_lambda_methods_agree():
    for rs, lam in [(A2, (1, 1)), (C3, (0, 0, 1)), (G2, (1, 0))]:
        assert qa.f_lambda(rs, lam, method="weyl") == qa.f_lambda(
            rs, lam, method="auto"
        )


def test_f_lambda_degree_and_mass():
    from spindle import characters as ch

    for rs, lam in [(A2, (2, 1)), (B2, (1, 1)), (C3, (1, 0, 0))]:
        f = qa.f_lambda(rs, lam)
        assert f.degree == rs.doubled_height(lam)
        dom = ch.dominant_multiplicities(rs, lam)
        assert f(1) == sum(
            m * m * rs.orbit_size(mu) for mu, m in dom.items()
        )


def test_poincare_series():
    cg = qa.poincare_cg(A1, (2,))
    assert cg.numerator == QPolynomial([1, 1, 1])
    assert cg.denominator_exponents == (2,)
    ct = qa.poincare_ct(C3, (0, 0, 1))
    assert ct.numerator(1) == 14
    # minuscule weight: the two series agree
    assert qa.poincare_cg(C3, (1, 0, 0)) == qa.poincare_ct(C3, (1, 0, 0))


# Every type with |W| <= 1152, where summing over the whole group is cheap.
SMALL = [
    build_root_system(letter, rank)
    for letter, rank in [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2),
        ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3),
        ("D", 4), ("F", 4), ("G", 2),
    ]
]


@st.composite
def small_weight(draw, rs=None):
    """(rs, lam): a small type and a sum of at most two fundamental weights."""
    rs = rs or draw(st.sampled_from(SMALL))
    lam = [0] * rs.rank
    for i in draw(st.lists(st.integers(0, rs.rank - 1), max_size=2)):
        lam[i] += 1
    return rs, tuple(lam)


def _brute_force_lusztig(rs, lam, mu):
    """Alternating sum over the whole orbit of lam+rho; the sign of x is
    (-1)^#{alpha > 0 : (x, alpha^vee) < 0}."""
    acc = QPolynomial.zero()
    mu_rho = tuple(m + 1 for m in mu)
    for x in rs.weyl_orbit(tuple(l + 1 for l in lam)):
        rc = rs.root_lattice_coords(tuple(a - b for a, b in zip(x, mu_rho)))
        if rc is None or min(rc) < 0:
            continue
        negative = sum(1 for cr in rs.positive_coroots
                       if sum(a * c for a, c in zip(x, cr)) < 0)
        term = qa.kostant_partition_q(rs, rc)
        acc = acc + (-term if negative % 2 else term)
    return acc


@settings(max_examples=100, deadline=None)
@given(small_weight(), st.data())
def test_pruned_sum_equals_full_orbit_sum(case, data):
    rs, lam = case
    _, mu = data.draw(small_weight(rs))
    assert qa.lusztig_q_multiplicity(rs, lam, mu) == _brute_force_lusztig(
        rs, lam, mu
    )


def _naive_kostant(roots, nu, memo):
    """Sum over the multiplicity k of the first root of q^k P(rest)."""
    if not any(nu):
        return QPolynomial.one()
    if not roots:
        return QPolynomial.zero()
    key = (len(roots), nu)
    if key not in memo:
        acc = QPolynomial.zero()
        k = 0
        while all(x >= 0 for x in nu):
            acc = acc + _naive_kostant(roots[1:], nu, memo).shift(k)
            nu = tuple(x - a for x, a in zip(nu, roots[0]))
            k += 1
        memo[key] = acc
    return memo[key]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_packed_kostant_table_equals_naive_recursion(rs, data):
    nu = tuple(data.draw(st.lists(
        st.integers(-1, 3), min_size=rs.rank, max_size=rs.rank
    )))
    want = (QPolynomial.zero() if min(nu) < 0
            else _naive_kostant(rs.positive_roots, nu, {}))
    assert qa.kostant_partition_q(rs, nu) == want


@settings(max_examples=40, deadline=None)
@given(small_weight())
def test_q_multiplicity_at_one_is_freudenthal_multiplicity(case):
    rs, lam = case
    dom = ch.dominant_multiplicities(rs, lam)
    for mu, m in dom.items():
        assert qa.lusztig_q_multiplicity(rs, lam, mu)(1) == m


def test_lusztig_budget_counts_walk_and_table():
    e8 = build_root_system("E", 8)
    adjoint = (0, 0, 0, 0, 0, 0, 0, 1)
    # 2318 walk points + 151200 cells of the box [0, theta]
    with pytest.raises(ResourceBudgetError,
                       match=r"2318 points \+ 151200 cells"):
        qa.lusztig_q_multiplicity(e8, adjoint, (0,) * 8, budget=153517)


def test_lusztig_budget_counts_packed_table_words():
    e8 = build_root_system("E", 8)
    adjoint = (0, 0, 0, 0, 0, 0, 0, 1)
    # 2318 + 151200 fits, 2318 + 151200 cells * 12 words does not
    with pytest.raises(
        ResourceBudgetError,
        match=r"^Kostant partition table: 2318 points \+ 151200 cells of "
              r"12 words exceeds budget 1000000$",
    ):
        qa.lusztig_q_multiplicity(e8, adjoint, (0,) * 8, budget=10**6)


# The F(1) mass law: F_lam(1) = dim End V_lam^T = sum over all weights of
# m_lam(mu)^2, read from the full character rather than the dominant ones.
MASS_TYPES = [
    build_root_system(letter, rank)
    for letter, rank in [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
        ("C", 2), ("C", 3), ("D", 4), ("G", 2),
    ]
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MASS_TYPES), st.data())
def test_f_lambda_mass_law(rs, data):
    lam = [0] * rs.rank
    for i in data.draw(st.lists(st.integers(0, rs.rank - 1), max_size=3)):
        lam[i] += 1
    char = ch.irreducible_character(rs, tuple(lam))
    assert qa.f_lambda(rs, tuple(lam))(1) == sum(
        m * m for m in char.entries.values()
    )
