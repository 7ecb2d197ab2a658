"""The one weight check: every exported function that takes a weight runs
it through ``rootsystem.checked_weight`` at entry, so a weight of the
wrong length is a UsageError and a negative coordinate, where a dominant
weight is needed, a DomainError, before any work is done."""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spindle
from spindle import modulerep as mr
from spindle.errors import DomainError, UsageError
from spindle.rootsystem import build_root_system, checked_weight

A2 = build_root_system("A", 2)
TYPES = [build_root_system(letter, rank) for letter, rank in
         [("A", 1), ("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
          ("F", 4), ("E", 8)]]

# Each exported weight-taking function, with the number of weights it
# takes; kostant_partition_q takes simple-root coordinates, which may be
# negative, so only their length is checked.
WEIGHT_FUNCTIONS = {
    "decompose_tensor_square": 1,
    "dominant_multiplicities": 1,
    "dominant_weights": 1,
    "dynkin_minuscule": 1,
    "dynkin_product": 1,
    "dynkin_sum": 1,
    "f_lambda": 1,
    "floor_profile": 1,
    "generalized_exponents": 1,
    "irreducible_character": 1,
    "is_minuscule": 1,
    "is_small": 1,
    "is_wmf": 1,
    "jump_tensor": 2,
    "kostant_partition_q": 1,
    "lusztig_q_multiplicity": 2,
    "poincare_cg": 1,
    "poincare_ct": 1,
    "t_poly": 1,
    "verify_spindle": 1,
}
LENGTH_ONLY = {"kostant_partition_q"}


def test_the_table_names_every_exported_weight_taking_function():
    taking = set()
    for name in spindle.__all__:
        f = getattr(spindle, name)
        if inspect.isfunction(f) and {"lam", "mu", "nu"} & set(
                inspect.signature(f).parameters):
            taking.add(name)
    assert taking == set(WEIGHT_FUNCTIONS)


def test_checked_weight():
    assert checked_weight([1, 0, 2], 3) == (1, 0, 2)
    assert checked_weight((-1, 2), 2, dominant=False) == (-1, 2)
    # any iterable; no root system of the rank is built
    assert checked_weight(iter([0] * 1000), 1000) == (0,) * 1000
    with pytest.raises(UsageError, match="^weight has 1 coordinates, "
                                         "rank is 200$"):
        checked_weight((1,), 200)
    with pytest.raises(UsageError, match="^weight has 3 coordinates"):
        checked_weight((1, 2, -3), 2, dominant=False)
    with pytest.raises(DomainError, match=r"^\(0, -1\) is not dominant$"):
        checked_weight((0, -1), 2)


def test_gap_is_the_root_coordinates_of_a_sum_of_positive_roots():
    assert A2.gap((1, 1), (0, 0)) == (1, 1)
    assert A2.gap((2, 2), (1, 1)) == (1, 1)
    assert A2.gap((3, 0), (1, 1)) == (1, 0)
    assert A2.gap((1, 1), (1, 1)) == (0, 0)
    assert A2.gap((1, 0), (0, 0)) is None  # outside the root lattice
    assert A2.gap((0, 0), (1, 1)) is None  # a negative root coordinate
    assert A2.gap((1, 1), (3, 0)) is None


@pytest.mark.parametrize("call, error", [
    (lambda: spindle.dynkin_product(A2, (1, 1, 5)), UsageError),
    (lambda: spindle.dynkin_product(A2, (1,)), UsageError),
    (lambda: spindle.f_lambda(A2, (1, 1, 5)), UsageError),
    (lambda: spindle.lusztig_q_multiplicity(A2, (1, 1, 0), (0, 0, 0)),
     UsageError),
    (lambda: spindle.kostant_partition_q(A2, (1, 1, 1)), UsageError),
    (lambda: mr.filtration_q_multiplicity(A2, (1, 1, 0), (0, 0, 0)),
     UsageError),
    (lambda: spindle.lusztig_q_multiplicity(A2, (-1, 2), (0, 0)),
     DomainError),
], ids=["dynkin-long", "dynkin-short", "f-lambda", "lusztig-long",
        "kostant-long", "filtration-long", "lusztig-negative"])
def test_calls_that_answered_wrongly_now_raise(call, error):
    # each used to answer as if the weight were another one, or to end in
    # an IndexError or a false InternalConsistencyError
    with pytest.raises(error):
        call()


def _arguments(rs, name, data, bad):
    """The weights of one call to ``name``, the one drawn to be bad."""
    weights = [(0,) * rs.rank] * WEIGHT_FUNCTIONS[name]
    weights[data.draw(st.integers(0, len(weights) - 1))] = bad
    return weights


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TYPES), st.sampled_from(sorted(WEIGHT_FUNCTIONS)),
       st.data())
def test_a_weight_of_the_wrong_length_is_a_usage_error(rs, name, data):
    length = data.draw(st.integers(0, rs.rank + 3).filter(
        lambda n: n != rs.rank))
    bad = data.draw(st.lists(st.integers(-3, 3), min_size=length,
                             max_size=length))
    with pytest.raises(UsageError, match=f"^weight has {length} coordinates, "
                                         f"rank is {rs.rank}$"):
        getattr(spindle, name)(rs, *_arguments(rs, name, data, bad))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TYPES),
       st.sampled_from(sorted(WEIGHT_FUNCTIONS.keys() - LENGTH_ONLY)),
       st.data())
def test_a_negative_coordinate_is_a_domain_error(rs, name, data):
    bad = data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank,
                             max_size=rs.rank))
    bad[data.draw(st.integers(0, rs.rank - 1))] = data.draw(
        st.integers(-5, -1))
    with pytest.raises(DomainError, match=r"is not dominant$"):
        getattr(spindle, name)(rs, *_arguments(rs, name, data, tuple(bad)))
