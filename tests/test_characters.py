from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spindle import budget
from spindle import characters as ch
from spindle import dynkin as dy
from spindle import verify as vf
from spindle.errors import DomainError, ResourceBudgetError
from spindle.qpoly import QPolynomial
from spindle.rootsystem import RootSystem, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)


def test_adjoint_a2():
    mult = ch.dominant_multiplicities(A2, (1, 1))
    assert mult == {(1, 1): 1, (0, 0): 2}
    char = ch.irreducible_character(A2, (1, 1))
    assert char.dimension == 8
    assert char.entries[(0, 0)] == 2
    assert char.entries[(1, 1)] == 1


def test_sl2_strings():
    for m in range(7):
        char = ch.irreducible_character(A1, (m,))
        assert char.dimension == m + 1
        assert all(v == 1 for v in char.entries.values())


def test_c3_w3_wmf():
    mult = ch.dominant_multiplicities(C3, (0, 0, 1))
    assert sum(C3.orbit_size(mu) * m for mu, m in mult.items()) == 14
    assert all(m == 1 for m in mult.values())
    assert ch.is_wmf(C3, (0, 0, 1))
    assert ch.dominant_weights(C3, (0, 0, 1)) == [(0, 0, 1), (1, 0, 0)]


def test_c3_w2_not_wmf():
    mult = ch.dominant_multiplicities(C3, (0, 1, 0))
    assert mult[(0, 0, 0)] == 2
    assert not ch.is_wmf(C3, (0, 1, 0))


def test_dimension_budget():
    with pytest.raises(ResourceBudgetError), budget.limits(dim=1000):
        ch.dominant_multiplicities(
            build_root_system("E", 8), (1, 0, 0, 0, 0, 0, 0, 0))


def test_dominant_weights_order():
    weights = ch.dominant_weights(A2, (2, 2))
    assert weights[0] == (2, 2)
    heights = [A2.doubled_height(w) for w in weights]
    assert heights == sorted(heights, reverse=True)


def test_minuscule():
    assert ch.is_minuscule(A3, (0, 1, 0))
    assert ch.is_minuscule(build_root_system("E", 7),
                           (0, 0, 0, 0, 0, 0, 1))
    assert not ch.is_minuscule(G2, (1, 0))
    assert not ch.is_minuscule(B2, (1, 0))
    assert ch.is_minuscule(B2, (0, 1))
    assert ch.minuscule_by_pairing(A2, (1, 0))


def test_minuscule_implies_wmf():
    for rs, lam in [(A3, (1, 0, 0)), (A3, (0, 1, 0)), (B2, (0, 1)),
                    (C3, (1, 0, 0))]:
        assert ch.is_minuscule(rs, lam)
        assert ch.is_wmf(rs, lam)


def test_is_small():
    # the adjoint weight is in Q; 2*theta is never a weight of the adjoint
    assert ch.is_small(A2, (1, 1))
    with pytest.raises(DomainError):
        ch.is_small(A2, (1, 0))
    # (G2, 2w1) contains the doubled short roots
    assert not ch.is_small(G2, (2, 0))
    # smallness reads only root coordinates, so no character budget bounds
    # it: E8 3w8 has dimension 1763125, over the default budget
    e8 = build_root_system("E", 8)
    assert e8.weyl_dimension((0, 0, 0, 0, 0, 0, 0, 3)) == 1763125
    assert not ch.is_small(e8, (0, 0, 0, 0, 0, 0, 0, 3))


def test_tensor_square_sl2():
    assert ch.decompose_tensor_square(A1, (1,)) == [((2,), 1), ((0,), 1)]
    pieces = ch.decompose_tensor_square(A1, (2,))
    assert pieces == [((4,), 1), ((2,), 1), ((0,), 1)]


def test_tensor_square_mass():
    for rs, lam in [(A2, (1, 1)), (C3, (0, 0, 1)), (G2, (1, 0))]:
        dim = rs.weyl_dimension(lam)
        pieces = ch.decompose_tensor_square(rs, lam)
        assert sum(c * rs.weyl_dimension(nu) for nu, c in pieces) == dim * dim


def test_tensor_square_budget():
    # the budget bounds the one character computed, dim V_lam = 64
    with pytest.raises(ResourceBudgetError, match="64 exceeds budget 63"), \
            budget.limits(dim=63):
        ch.decompose_tensor_square(A2, (3, 3))
    with budget.limits(dim=64):
        assert len(ch.decompose_tensor_square(A2, (3, 3))) > 1


def test_floor_profile_adjoint():
    prof = ch.floor_profile(A2, (1, 1))
    assert prof == QPolynomial([1, 2, 2, 2, 1])
    assert prof.is_symmetric() and prof.is_unimodal()


def test_floor_profile_g2():
    assert ch.floor_profile(G2, (1, 0)) == QPolynomial([1] * 7)


def test_string_decomposition_adjoint():
    char = ch.irreducible_character(A2, (1, 1))
    assert ch.string_decomposition(char) == QPolynomial([0, 1, 1])


def test_string_decomposition_g2_w1():
    char = ch.irreducible_character(G2, (1, 0))
    assert ch.string_decomposition(char) == QPolynomial.monomial(3)


def test_string_decomposition_end_type():
    char = ch.irreducible_character(A1, (1,))
    end = char.product(char.dual())
    assert ch.string_decomposition(end) == QPolynomial([1, 1])


def test_string_decomposition_rejects_half_levels():
    char = ch.irreducible_character(A1, (1,))
    with pytest.raises(DomainError):
        ch.string_decomposition(char)


def test_dual_and_product_dimensions():
    char = ch.irreducible_character(A3, (1, 0, 0))
    assert char.dual().dimension == 4
    assert char.product(char.dual()).dimension == 16


# (type letter, rank, largest coordinate drawn) for the property tests.
PROPERTY_TYPES = (
    ("A", 1, 4), ("A", 2, 3), ("A", 3, 2), ("A", 4, 2), ("B", 2, 3),
    ("B", 3, 2), ("C", 2, 3), ("C", 3, 2), ("C", 4, 1), ("D", 4, 2),
    ("E", 6, 1), ("F", 4, 1), ("G", 2, 3),
)


@st.composite
def bounded_weights(draw):
    letter, rank, cap = draw(st.sampled_from(PROPERTY_TYPES))
    rs = build_root_system(letter, rank)
    lam = tuple(draw(st.integers(0, cap)) for _ in range(rank))
    assume(rs.weyl_dimension(lam) <= 2000)
    return rs, lam


def _brute_force_dominant_weights(rs, lam):
    """Every lam - sum g_i alpha_i that is dominant, over the integer box
    0 <= g <= floor(root coordinates of lam)."""
    den, inv = rs._root_inverse
    top = [sum(a * w for a, w in zip(row, lam)) // den for row in inv]
    out = set()
    for g in product(*(range(t + 1) for t in top)):
        mu = tuple(l - a for l, a in zip(lam, rs.root_to_weight_coords(g)))
        if rs.is_dominant(mu):
            out.add(mu)
    return out


@settings(max_examples=60, deadline=None)
@given(bounded_weights())
def test_dominant_weights_match_brute_force(case):
    rs, lam = case
    got = set(ch.dominant_multiplicities(rs, lam))
    assert got == _brute_force_dominant_weights(rs, lam)


@settings(max_examples=60, deadline=None)
@given(bounded_weights())
def test_dynkin_sum_equals_product(case):
    rs, lam = case
    assert dy.dynkin_sum(rs, lam) == dy.dynkin_product(rs, lam)


def test_dimension_budget_holds_on_a_memo_hit():
    rs = build_root_system("A", 2)
    ch.dominant_multiplicities(rs, (3, 3))
    with pytest.raises(ResourceBudgetError), budget.limits(dim=10):
        ch.dominant_multiplicities(rs, (3, 3))


def _strip_full_characters(rs, lam):
    """Tensor-square stripping over full characters: the product of every
    weight of V_lam with every weight of V_lam^*, each constituent
    subtracted with its whole W-orbit."""
    char = ch.irreducible_character(rs, lam)
    remaining = char.product(char.dual()).entries
    out = []
    while remaining:
        nu = max(remaining, key=lambda mu: (sum(
            m * t for m, t in zip(mu, rs.two_rho_check)), mu))
        c = remaining[nu]
        for mu, m in ch.irreducible_character(rs, nu).entries.items():
            remaining[mu] = remaining.get(mu, 0) - c * m
            assert remaining[mu] >= 0
            if not remaining[mu]:
                del remaining[mu]
        out.append((nu, c))
    return sorted(out)


@settings(max_examples=40, deadline=None)
@given(bounded_weights())
@example((build_root_system("E", 6), (1, 0, 0, 0, 0, 0)))
@example((build_root_system("F", 4), (0, 0, 0, 1)))
@example((G2, (1, 1)))
def test_dominant_stripping_equals_full_character_stripping(case):
    rs, lam = case
    assume(rs.weyl_dimension(lam) <= 100)
    got = ch.decompose_tensor_square(rs, lam)
    assert sorted(got) == _strip_full_characters(rs, lam)


def _small_by_character(rs, lam):
    """Smallness from the definition: no doubled root's dominant
    representative is a dominant weight of V_lam."""
    dom = ch.dominant_multiplicities(rs, lam)
    return not any(
        rs.dominant_representative(tuple(2 * x for x in w)) in dom
        for w in rs.positive_root_weights)


SMALL_TYPES = (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
               ("D", 4), ("G", 2))


@st.composite
def root_lattice_weights(draw):
    rs = build_root_system(*draw(st.sampled_from(SMALL_TYPES)))
    lam = tuple(draw(st.integers(0, 4)) for _ in range(rs.rank))
    assume(rs.in_root_lattice(lam) and rs.weyl_dimension(lam) <= 2000)
    return rs, lam


@settings(max_examples=80, deadline=None)
@given(root_lattice_weights())
def test_is_small_equals_character_definition(case):
    rs, lam = case
    assert ch.is_small(rs, lam) == _small_by_character(rs, lam)


def test_minuscule_by_pairing_equals_dot_products():
    # every fundamental weight up to rank 8, against (lam, gamma^vee) as a
    # dot product over the positive coroots
    for letter, rank in vf._simple_types(8):
        rs = build_root_system(letter, rank)
        for i in range(rank):
            lam = tuple(int(k == i) for k in range(rank))
            want = all(sum(l * c for l, c in zip(lam, cr)) <= 1
                       for cr in rs.positive_coroots)
            assert ch.minuscule_by_pairing(rs, lam) == want, (rs, lam)


def test_tensor_square_and_smallness_run_no_constituent_characters():
    # a fresh root system: only V_lam's own character is computed
    # counted by the misses of the Freudenthal memo
    rs = RootSystem("E", 6)
    misses = ch._freudenthal.cache_info().misses
    pieces = ch.decompose_tensor_square(rs, (1, 0, 0, 0, 0, 0))
    assert len(pieces) == 3
    assert ch._freudenthal.cache_info().misses == misses + 1
    ch.dominant_multiplicities(rs, (1, 0, 0, 0, 0, 0))  # a hit: V_lam's
    assert ch._freudenthal.cache_info().misses == misses + 1
    rs = RootSystem("E", 6)
    assert ch.is_small(rs, (0, 1, 0, 0, 0, 0))
    assert not ch.is_small(rs, (0, 2, 0, 0, 0, 0))
    assert ch._freudenthal.cache_info().misses == misses + 1


def _per_root_multiplicities(rs, lam):
    """Freudenthal's recursion with one root string per positive root: the
    dominant weights by an unfiltered walk that builds every mu - alpha,
    then the sum over all of Phi+, in the order of the module."""
    gaps = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            for r, w in zip(rs.positive_roots, rs.positive_root_weights):
                nu = tuple(m - a for m, a in zip(mu, w))
                if nu not in gaps and rs.is_dominant(nu):
                    gaps[nu] = tuple(g + n for g, n in zip(gaps[mu], r))
                    new.append(nu)
        frontier = new
    sym = rs.symmetrizer
    mult = {lam: 1}
    for mu in sorted(gaps, key=lambda mu: (sum(gaps[mu]), mu)):
        if mu == lam:
            continue
        acc = 0
        for r, w in zip(rs.positive_roots, rs.positive_root_weights):
            ne = [n * e for n, e in zip(r, sym)]
            nu = tuple(m + a for m, a in zip(mu, w))
            while (m_nu := mult.get(rs.dominant_representative(nu))):
                acc += m_nu * sum(c * x for c, x in zip(ne, nu))
                nu = tuple(x + a for x, a in zip(nu, w))
        denom = sum(g * e * (l + m + 2)
                    for g, e, l, m in zip(gaps[mu], sym, lam, mu))
        assert 2 * acc % denom == 0
        mult[mu] = 2 * acc // denom
    return list(mult.items())


@settings(max_examples=60, deadline=None)
@given(bounded_weights())
@example((build_root_system("E", 8), (1, 0, 0, 0, 0, 0, 0, 1)))
@example((build_root_system("F", 4), (2, 1, 1, 1)))
@example((build_root_system("B", 6), (1, 1, 0, 1, 0, 1)))
@example((G2, (3, 4)))
def test_orbit_strings_equal_per_root_recursion(case):
    # values and order: one root string per W_mu-orbit gives the same
    # multiplicities as one per positive root
    rs, lam = case
    with budget.limits(dim=10**9):
        got = ch.dominant_multiplicities(rs, lam)
    assert list(got.items()) == _per_root_multiplicities(rs, lam)
