from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import exactla_reference as ref
import spindle.exactla as la

matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=5,
    )
)


def _squares(n):
    return st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n, max_size=n)


square_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(_squares(n), _squares(n))
)


def _sparse(a):
    """A dense list-of-rows matrix in the sparse form of exactla."""
    out = {i: {j: x for j, x in enumerate(row) if x}
           for i, row in enumerate(a)}
    return {i: row for i, row in out.items() if row}


def _dense_product(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=200, deadline=None)
@given(square_pairs)
def test_sparse_product_and_bracket_match_dense(pair):
    a, b = pair
    ab, ba = _dense_product(a, b), _dense_product(b, a)
    commutator = [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
    assert la.mat_mul(_sparse(a), _sparse(b)) == _sparse(ab)
    assert la.bracket(_sparse(a), _sparse(b)) == _sparse(commutator)
    # no stored zeros: a matrix commutes with itself to the empty dict
    assert la.bracket(_sparse(a), _sparse(a)) == {}


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rref_is_reduced_echelon_with_leftmost_pivots(a):
    ncols = len(a[0])
    basis = la.span(a).basis()
    pivots = [min(b) for b in basis]
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] > 0
        assert all(c >= p for c in row)
        assert all(p not in other for j, other in enumerate(basis) if j != i)
    # divided by its pivot entry, each row is the textbook reduced row
    assert [[Fraction(b.get(c, 0), b[p]) for c in range(ncols)]
            for b, p in zip(basis, pivots)] == _gauss_jordan(a, ncols)[0]
    assert la.rank(basis + a) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_nullspace_is_annihilated_and_complements_rank(a):
    ncols = len(a[0])
    basis = la.nullspace(a, ncols)
    assert len(basis) == ncols - la.rank(a)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    assert la.rank(basis) == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_of_transpose(a):
    transpose = [list(col) for col in zip(*a)]
    assert la.rank(a) == la.rank(transpose)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_row_space_add_reports_rank_growth(a):
    space = la.RowSpace()
    for i, row in enumerate(a):
        grew = la.rank(a[: i + 1]) > la.rank(a[:i])
        assert space.add(row) == grew
        assert row in space
    assert len(space) == la.rank(a)


def test_row_space_accepts_sparse_rows():
    space = la.RowSpace()
    assert space.add({1: 2, 3: -2})
    assert [0, 1, 0, -1] in space
    assert [0, 3, 0, -3] in space
    assert {0: 1} not in space


def _grade_dimensions(basis):
    return dict(Counter(g for _, g in basis))


def test_graded_commutant_of_a_jordan_block():
    n = 4
    jordan = _sparse([[int(j == i + 1) for j in range(n)] for i in range(n)])
    levels = list(range(n - 1, -1, -1))
    basis = la.graded_commutant([jordan], levels)
    assert _grade_dimensions(basis) == {g: 1 for g in range(n)}


def test_graded_commutant_of_two_operators_pins_the_sign():
    # With one homogeneous operator, or only odd-degree ones, the commutant
    # and the anticommutant have equal grade dimensions (conjugate by
    # diag((-1)^level)); J and J^2 of degrees 1 and 2 tell them apart.
    n = 4
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    ops = [_sparse(jordan), _sparse(_dense_product(jordan, jordan))]
    levels = list(range(n - 1, -1, -1))
    basis = la.graded_commutant(ops, levels)
    assert _grade_dimensions(basis) == {g: 1 for g in range(n)}


def test_graded_kernel_combines_each_nullspace_vector():
    # grade 0: x0 E_00 + x1 E_11 with x0 + x1 = 0; grade 1: x0 = 0
    unit = {0: {0: 1}}
    grades = [(0, [(unit, unit), ({1: {1: 1}}, unit)]),
              (1, [({0: {1: 1}}, unit)])]
    assert la.graded_kernel(grades) == [({0: {0: -1}, 1: {1: 1}}, 0)]


sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
op_sets = st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                      min_size=n, max_size=n), min_size=1, max_size=3),
    st.lists(st.integers(0, 3), min_size=n, max_size=n),
))


@settings(max_examples=200, deadline=None)
@given(op_sets)
def test_graded_commutant_matches_the_op_major_reference(case):
    # any entries: diagonal ones, and ops that are not homogeneous
    ops, levels = case
    ops = [_sparse(op) for op in ops]
    basis = la.graded_commutant(ops, levels)
    assert basis == ref.graded_commutant(ops, levels)
    for t, _ in basis:
        assert all(la.bracket(t, op) == {} for op in ops)


def _gauss_jordan(rows, ncols):
    """Textbook Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    red = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(red)) if red[i][c]), None)
        if k is None:
            continue
        red[r], red[k] = red[k], red[r]
        red[r] = [x / red[r][c] for x in red[r]]
        for i in range(len(red)):
            if i != r and red[i][c]:
                f = red[i][c]
                red[i] = [x - f * y for x, y in zip(red[i], red[r])]
        pivots.append(c)
    return red[:len(pivots)], pivots


def _integer_row(row):
    """A rational row times the lcm of its denominators."""
    den = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
rational_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                 min_size=1, max_size=6),
        st.lists(entries, min_size=ncols, max_size=ncols),
    )
)


@settings(max_examples=150, deadline=None)
@given(rational_matrices)
def test_integer_row_space_matches_fraction_gauss_jordan(case):
    a, probe = case
    ncols = len(probe)
    want, pivots = _gauss_jordan(a, ncols)
    # rational rows scaled to integers: the same span, rank and kernel
    a = [_integer_row(row) for row in a]
    probe = _integer_row(probe)
    space = la.span(a)
    basis = space.basis()
    assert [min(b) for b in basis] == pivots
    assert [[Fraction(b.get(c, 0), b[min(b)]) for c in range(ncols)]
            for b in basis] == want
    for p, row in space._rows.items():
        assert all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1
        assert not (row.keys() & space._rows.keys()) - {p}
    assert all(row in space for row in a)
    in_span = len(_gauss_jordan(a + [probe], ncols)[1]) == len(pivots)
    assert (probe in space) == in_span
    assert ({c: x for c, x in enumerate(probe) if x} in space) == in_span
    free = [c for c in range(ncols) if c not in pivots]
    basis = la.nullspace(a, ncols)
    assert len(basis) == ncols - len(pivots)
    for fc, v in zip(free, basis):
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert v[fc] > 0
        assert all(v[c] == 0 for c in free if c != fc)
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


def test_scaled_inverse():
    # the A2 Cartan matrix has determinant 3; the B2 one has 2
    assert la.scaled_inverse([[2, -1], [-1, 2]]) == (3, ((2, 1), (1, 2)))
    assert la.scaled_inverse([[2, -2], [-1, 2]]) == (2, ((2, 2), (1, 2)))
    assert la.scaled_inverse([[1, 0], [0, 1]]) == (1, ((1, 0), (0, 1)))


@settings(max_examples=100, deadline=None)
@given(_squares(3))
def test_scaled_inverse_inverts(m):
    if la.rank(m) < 3:
        return
    den, inv = la.scaled_inverse(m)
    assert den >= 1
    assert gcd(den, *(x for row in inv for x in row)) == 1
    product = [[sum(m[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
               for i in range(3)]
    assert product == [[den * int(i == j) for j in range(3)] for i in range(3)]
