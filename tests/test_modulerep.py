from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spindle import budget
from spindle import characters as ch
from spindle import dynkin as dy
from spindle import endalg
from spindle import exactla as la
from spindle import modulerep as mr
from spindle import qanalogues as qa
from spindle.errors import (
    DomainError,
    InternalConsistencyError,
    ResourceBudgetError,
)
from spindle.qpoly import QPolynomial
from spindle.rootsystem import build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)
C2 = build_root_system("C", 2)
C3 = build_root_system("C", 3)
G2 = build_root_system("G", 2)


def _rational(cols):
    """The operator with integer columns num, or lowering columns
    (den, num), as a sparse Fraction matrix."""
    pairs = ((gb, col if isinstance(col, tuple) else (1, col))
             for gb, col in cols.items())
    return la.transpose({gb: {r: Fraction(x, den) for r, x in num.items()}
                         for gb, (den, num) in pairs})


def test_module_dimension_matches_weyl_formula():
    cases = [(A1, (4,)), (A2, (2, 1)), (A3, (0, 1, 0)), (B2, (1, 1)),
             (C3, (0, 0, 1)), (G2, (0, 1))]
    for rs, lam in cases:
        module = mr.HighestWeightModule(rs, lam)
        assert module.dimension == rs.weyl_dimension(lam)


def test_module_weight_multiplicities():
    from spindle import characters as ch

    module = mr.HighestWeightModule(A2, (1, 1))
    counts = {}
    for w in module.weights:
        counts[w] = counts.get(w, 0) + 1
    char = ch.irreducible_character(A2, (1, 1))
    assert counts == dict(char.entries)


def test_sl2_commutation_relation():
    # [e_i, f_j] = delta_ij h_i, with h_i diagonal: mu_i on a weight-mu
    # vector.  G2 (1, 1) and A3 (1, 1, 1) have weight spaces of dimension
    # >= 2 and lowering columns with denominators.
    for rs, lam in [(A2, (2, 1)), (G2, (0, 1)), (G2, (1, 1)),
                    (A3, (1, 1, 1))]:
        module = mr.HighestWeightModule(rs, lam)
        for i in range(rs.rank):
            h = {col: {col: w[i]}
                 for col, w in enumerate(module.weights) if w[i]}
            for j in range(rs.rank):
                comm = la.bracket(_rational(module._e_cols[i]),
                                  _rational(module._f_cols[j]))
                assert comm == (h if i == j else {}), (rs.type_letter, i, j)


def _is_integer_matrix(m):
    return all(type(x) is int for row in m.values() for x in row.values())


def test_module_route_is_integer_only(monkeypatch):
    # Every basis row the kernel stores along the module route is an int
    # row, and so is every operator, bracket and centralizer element.
    stored = []
    add = la.RowSpace.add

    def recording_add(self, row):
        grew = add(self, row)
        stored.extend(self._rows.values())
        return grew

    monkeypatch.setattr(la.RowSpace, "add", recording_add)
    fractional = False
    for rs, lam in [(A2, (1, 1)), (B2, (0, 2)), (C3, (0, 1, 0)),
                    (G2, (0, 1)), (G2, (1, 1)), (A3, (1, 1, 1)),
                    (build_root_system("F", 4), (0, 0, 0, 1)),
                    (build_root_system("E", 6), (1, 0, 0, 0, 0, 0))]:
        module = mr.HighestWeightModule(rs, lam)
        for cols in module._e_cols:
            for num in cols.values():
                assert all(type(x) is int for x in num.values())
        # every lowering column is in lowest terms, and each basis vector
        # below the top has a nonzero raising column
        for cols in module._f_cols:
            for den, num in cols.values():
                assert type(den) is int and den > 0
                assert all(type(x) is int for x in num.values())
                assert gcd(den, *num.values()) == 1
        raised = {b for cols in module._e_cols
                  for b, num in cols.items() if num}
        assert raised == set(range(1, module.dimension))
        fractional |= any(den > 1 for cols in module._f_cols
                          for den, _ in cols.values())
        for _, grade in endalg._nilradical_span(module):
            for m, em in grade:
                assert _is_integer_matrix(m) and _is_integer_matrix(em)
        zs = endalg.nilpotent_centralizer(module)
        assert all(_is_integer_matrix(z) for z in zs)
        if rs.in_root_lattice(lam):
            assert mr.jump_polynomial(rs, lam) == qa.lusztig_q_multiplicity(
                rs, lam, (0,) * rs.rank)
    # some lowering operators of these modules have non-integer entries,
    # so the integer raising columns are not an accident of the cases
    assert fractional
    assert stored
    assert all(type(x) is int for row in stored for x in row.values())


@pytest.mark.parametrize("rs,lam", [(G2, (1, 1)), (A3, (1, 1, 1)),
                                    (C3, (0, 1, 1))])
def test_raising_columns_are_integer_rows_and_e_is_their_sum(rs, lam):
    module = mr.HighestWeightModule(rs, lam)
    for cols in module._e_cols:
        for b, num in cols.items():
            assert type(b) is int and type(num) is dict
            assert all(type(r) is int and type(x) is int
                       for r, x in num.items())
    raising = [la.transpose(cols) for cols in module._e_cols]
    assert mr.raising_operators(module) == raising
    # no scale factor: e is the plain sum of the raising operators
    assert mr.principal_nilpotent(module) == la.combination(
        (1, m) for m in raising)


def test_module_budget():
    with pytest.raises(ResourceBudgetError), budget.limits(dim=50):
        mr.HighestWeightModule(G2, (2, 2))


def test_truncated_build_is_charged_only_the_levels_it_builds():
    # G2 (2, 2) has dimension 729; its top three levels hold 1 + 2 + 4.
    with budget.limits(dim=7):
        module = mr.HighestWeightModule(G2, (2, 2), depth=2)
    assert module.dimension == 7
    with pytest.raises(ResourceBudgetError, match="module dimension: 7"), \
            budget.limits(dim=6):
        mr.HighestWeightModule(G2, (2, 2), depth=2)


@pytest.mark.parametrize("rs,lam", [(G2, (1, 1)), (C3, (0, 1, 0)),
                                    (A3, (1, 0, 1))])
def test_truncated_build_is_the_top_of_the_full_build(rs, lam):
    full = mr.HighestWeightModule(rs, lam)
    sizes = dy.dynkin_product(rs, lam).coeffs
    for depth in (0, 1, len(sizes) // 2, len(sizes) - 1):
        top = mr.HighestWeightModule(rs, lam, depth=depth)
        n = sum(sizes[:depth + 1])
        assert top.dimension == n
        assert top.weights == full.weights[:n]
        for i in range(rs.rank):
            # raising operators map each level into the one above it
            want = {r: {c: x for c, x in row.items() if c < n}
                    for r, row in _rational(full._e_cols[i]).items() if r < n}
            assert _rational(top._e_cols[i]) == {r: row for r, row in
                                                 want.items() if row}


def test_a_part_of_a_huge_module_lists_only_the_levels_it_builds():
    # 2 * 10^12 + 1 levels in all; each level holds a vector, so a part is
    # charged its level count before any coefficient is listed
    lam = (10**12,)
    assert mr.HighestWeightModule(A1, lam, depth=10).dimension == 11
    with pytest.raises(ResourceBudgetError, match="^module dimension: "
                       "11 levels exceeds budget 10$"), budget.limits(dim=10):
        mr.HighestWeightModule(A1, lam, depth=10)
    with pytest.raises(ResourceBudgetError,
                       match="^module dimension: 1000000000001 exceeds"):
        mr.HighestWeightModule(A1, lam)


def test_a_long_part_is_listed_and_charged_in_doubling_prefixes(monkeypatch):
    # A2 (40, 40) down to 0 has 161 levels: 20964 vectors in the first 64,
    # 65504 in the first 128 and 68921 in all
    terms = []
    listed = dy.dynkin_product

    def counted(rs, lam, n):
        terms.append(n)
        return listed(rs, lam, n)

    monkeypatch.setattr(mr, "dynkin_product", counted)
    lam = (40, 40)
    for cap, message, listings in [
        (20963, "20964 in the first 64 levels", [64]),
        (20964, "65504 in the first 128 levels", [64, 128]),
        (65504, "68921", [64, 128, 161]),
    ]:
        terms.clear()
        with pytest.raises(ResourceBudgetError) as exc, \
                budget.limits(dim=cap):
            mr.HighestWeightModule(A2, lam, depth=160)
        assert str(exc.value) == (
            f"module dimension: {message} exceeds budget {cap}")
        assert terms == listings


@pytest.mark.parametrize("sizes", [(1, 2, 1), (1, 1)])
def test_each_level_is_checked_against_the_dynkin_polynomial(
        monkeypatch, sizes):
    # A2 omega_1 has one vector on each of three levels: a level count of
    # 2 is wrong, and so is a full build that finds a vector below the
    # last level the polynomial has.
    monkeypatch.setattr(mr, "dynkin_product",
                        lambda rs, lam: QPolynomial(sizes))
    with pytest.raises(InternalConsistencyError, match="Dynkin polynomial"):
        mr.HighestWeightModule(A2, (1, 0))


def test_jump_matches_lusztig_zero_weight():
    cases = [(A1, (2,)), (A1, (4,)), (A2, (1, 1)), (A2, (2, 2)),
             (B2, (2, 0)), (B2, (0, 2)), (C3, (0, 1, 0)), (G2, (1, 0)),
             (G2, (0, 1))]
    for rs, lam in cases:
        zero = (0,) * rs.rank
        assert mr.jump_polynomial(rs, lam) == qa.lusztig_q_multiplicity(
            rs, lam, zero
        ), (rs.type_letter, lam)


# Nonzero root-lattice weights with coordinates <= 6 and dimension <= 100.
ROOT_LATTICE_WEIGHTS = [
    (rs, lam)
    for rs in (A1, A2, A3, B2, C2, G2)
    for lam in product(range(7), repeat=rs.rank)
    if any(lam) and rs.in_root_lattice(lam) and rs.weyl_dimension(lam) <= 100
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ROOT_LATTICE_WEIGHTS))
def test_module_jump_equals_alternating_sum(case):
    rs, lam = case
    assert mr.jump_polynomial(rs, lam) == qa.lusztig_q_multiplicity(
        rs, lam, (0,) * rs.rank
    )


def _joint_kernel_jump(rs, lam):
    """Reference recipe: the graded dimensions of the joint kernel of the
    nilpotent centralizer z(e) on the full module, one kernel per level."""
    module = mr.HighestWeightModule(rs, lam)
    level_of = [lv // 2 for lv in module.levels()]
    size = {}
    slot = []
    for lv in level_of:
        slot.append(size.get(lv, 0))
        size[lv] = slot[-1] + 1
    rows = {lv: {} for lv in size}  # level -> (z, p) -> kernel row
    for k, z in enumerate(endalg.nilpotent_centralizer(module)):
        for p, row in z.items():
            for c, x in row.items():
                rows[level_of[c]].setdefault((k, p), {})[slot[c]] = x
    coeffs = {lv: size[lv] - la.rank(rows[lv].values())
              for lv in size}
    assert all(lv >= 0 for lv, k in coeffs.items() if k)
    return QPolynomial([coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ROOT_LATTICE_WEIGHTS))
def test_joint_kernel_of_centralizer_equals_filtration(case):
    rs, lam = case
    assert _joint_kernel_jump(rs, lam) == mr.jump_polynomial(rs, lam)


# Dominant weights with coordinates <= 4 and dimension <= 100, 0 included.
DOMINANT_WEIGHTS = [
    (rs, lam)
    for rs in (A1, A2, A3, B2, B3, C3, G2)
    for lam in product(range(5), repeat=rs.rank)
    if rs.weyl_dimension(lam) <= 100
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DOMINANT_WEIGHTS))
def test_filtration_equals_alternating_sum_at_every_dominant_weight(case):
    rs, lam = case
    for mu in ch.dominant_weights(rs, lam):
        assert mr.filtration_q_multiplicity(rs, lam, mu) == (
            qa.lusztig_q_multiplicity(rs, lam, mu)), mu


def test_filtration_outside_the_weights_and_off_the_dominant_chamber():
    assert mr.filtration_q_multiplicity(A2, (1, 1), (3, 0)).is_zero()
    assert mr.filtration_q_multiplicity(A2, (1, 0), (0, 0)).is_zero()
    with pytest.raises(DomainError):
        mr.filtration_q_multiplicity(A2, (1, 1), (2, -1))
    with pytest.raises(DomainError):
        mr.filtration_q_multiplicity(A2, (-1, 2), (0, 0))


def test_jump_polynomial_does_not_solve_the_centralizer(monkeypatch):
    def refuse(module):
        raise AssertionError("z(e) solved")

    monkeypatch.setattr(endalg, "nilpotent_centralizer", refuse)
    assert mr.jump_polynomial(C3, (0, 1, 0)) == qa.lusztig_q_multiplicity(
        C3, (0, 1, 0), (0, 0, 0))


def test_jump_distinguishes_from_level_differences():
    # For A2 with highest weight 3*varpi_2 the zero-level space of the
    # module is two dimensional but only one line is invariant, so any
    # recipe made from level-count differences (q + q^3) is wrong.
    assert mr.jump_polynomial(A2, (0, 3)) == QPolynomial.monomial(3)
    assert qa.lusztig_q_multiplicity(A2, (0, 3), (0, 0)) == (
        QPolynomial.monomial(3)
    )


def test_jump_rejects_weights_outside_root_lattice():
    with pytest.raises(DomainError):
        mr.jump_polynomial(A2, (1, 0))


def test_jump_of_zero_weight():
    assert mr.jump_polynomial(A2, (0, 0)) == QPolynomial.one()


def _commutant_jump(rs, lam):
    """Graded dimensions of the commutant of z(e) on V_lam."""
    return QPolynomial(endalg.GradedCommutant(
        mr.HighestWeightModule(rs, lam)).graded_dimensions())


def test_end_jump_matches_tensor_formula():
    cases = [(A1, (1,)), (A1, (2,)), (A2, (1, 0)), (A3, (0, 1, 0)),
             (C3, (0, 0, 1)), (C3, (0, 1, 0)), (G2, (1, 0))]
    for rs, lam in cases:
        # second argument of jump_tensor is dualized by convention
        assert _commutant_jump(rs, lam) == qa.jump_tensor(
            rs, lam, lam
        ), (rs.type_letter, lam)


def test_end_jump_c3_counterexample_shape():
    got = _commutant_jump(C3, (0, 1, 0))
    assert got == QPolynomial([1, 1, 2, 2, 3, 2, 3, 1, 1])
    assert not got.is_symmetric()
    assert not got.is_unimodal()
