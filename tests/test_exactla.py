from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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
    out = {i: {j: Fraction(x) for j, x in enumerate(row) if x}
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
    red, pivots = la.rref(a)
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(red, pivots)):
        assert row[p] == 1
        assert all(x == 0 for x in row[:p])
        assert all(other[p] == 0 for j, other in enumerate(red) if j != i)
    assert la.rank(red + a, len(a[0])) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_nullspace_is_annihilated_and_complements_rank(a):
    ncols = len(a[0])
    basis = la.nullspace(a, ncols)
    assert len(basis) == ncols - la.rank(a)
    for v in basis:
        assert la.mat_vec(_sparse(a), dict(enumerate(v))) == {}
    assert la.rank(basis, ncols) == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_of_transpose(a):
    transpose = [list(col) for col in zip(*a)]
    assert la.rank(a) == la.rank(transpose)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_row_space_add_reports_rank_growth(a):
    space = la.RowSpace(len(a[0]))
    for i, row in enumerate(a):
        grew = la.rank(a[: i + 1]) > la.rank(a[:i], len(row))
        assert space.add(row) == grew
        assert row in space
    assert len(space) == la.rank(a)


def test_row_space_accepts_sparse_rows():
    space = la.RowSpace(4)
    assert space.add({1: 2, 3: -2})
    assert [0, Fraction(1, 2), 0, Fraction(-1, 2)] in space
    assert {0: 1} not in space


def test_graded_commutant_of_a_jordan_block():
    n = 4
    jordan = _sparse([[int(j == i + 1) for j in range(n)] for i in range(n)])
    levels = list(range(n - 1, -1, -1))
    dims = {g: len(basis)
            for g, _, basis in la.graded_commutant([jordan], levels)}
    assert dims == {g: 1 if g >= 0 else 0 for g in range(1 - n, n)}


def test_graded_commutant_of_two_operators_pins_the_sign():
    # With one homogeneous operator, or only odd-degree ones, the commutant
    # and the anticommutant have equal grade dimensions (conjugate by
    # diag((-1)^level)); J and J^2 of degrees 1 and 2 tell them apart.
    n = 4
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    ops = [_sparse(jordan), _sparse(_dense_product(jordan, jordan))]
    levels = list(range(n - 1, -1, -1))
    dims = {g: len(basis) for g, _, basis in la.graded_commutant(ops, levels)}
    assert dims == {g: 1 if g >= 0 else 0 for g in range(1 - n, n)}
