import pytest

from spindle import endalg as ea
from spindle.errors import ResourceBudgetError, UsageError
from spindle.qpoly import QPolynomial, gaussian_binomial
from spindle.rootsystem import build_root_system


def test_parse_kind_errors():
    with pytest.raises(UsageError):
        ea.build_rep(2, "Q2")
    with pytest.raises(UsageError):
        ea.build_rep(2, "Sx")
    with pytest.raises(UsageError):
        ea.build_rep(2, "S0")
    with pytest.raises(UsageError):
        ea.build_rep(0, "S2")
    with pytest.raises(UsageError):
        ea.build_rep(2, "E4")  # exterior power above n+1


def test_dim_bound():
    with pytest.raises(ResourceBudgetError):
        ea.build_rep(3, "S4", dim_bound=10)


def test_rep_structure_sym_square():
    rep = ea.build_rep(2, "S2")
    assert rep.dimension == 6
    assert rep.highest_weight == (2, 0)
    assert rep.commutator_check()
    assert rep.top_floor == 4
    assert rep.floors.count(0) == 1 and rep.floors.count(4) == 1


def test_rep_structure_exterior():
    rep = ea.build_rep(3, "E2")
    assert rep.dimension == 6
    assert rep.highest_weight == (0, 1, 0)
    assert rep.commutator_check()


def test_commutant_properties():
    grid = [(1, "S2"), (1, "S3"), (2, "S1"), (2, "S2"), (3, "S1"),
            (3, "E2")]
    for n, kind in grid:
        rep = ea.build_rep(n, kind)
        comm = ea.commutant(rep)
        assert comm.dimension == rep.dimension, (n, kind)
        assert comm.is_commutative(), (n, kind)
        assert comm.is_closed_under_product(), (n, kind)
        assert ea.socle_dimension(comm) == 1, (n, kind)
        assert ea.check_bijection(rep, comm), (n, kind)
        assert ea.lefschetz_check(comm), (n, kind)
        assert ea.e_power_projections(rep), (n, kind)
        assert ea.a_invariants_dimension(rep) == 1, (n, kind)


def test_graded_dimensions_match_dynkin():
    from spindle.dynkin import dynkin_product

    for n, kind, lam in [(2, "S2", (2, 0)), (3, "E2", (0, 1, 0)),
                         (1, "S4", (4,))]:
        rep = ea.build_rep(n, kind)
        comm = ea.commutant(rep)
        rs = build_root_system("A", n)
        assert QPolynomial(comm.graded_dimensions()) == dynkin_product(
            rs, lam
        )


def test_sym_square_a2_is_gaussian():
    rep = ea.build_rep(2, "S2")
    comm = ea.commutant(rep)
    assert QPolynomial(comm.graded_dimensions()) == gaussian_binomial(2, 2)


def test_rep_and_commutant_are_plain_objects():
    rep = ea.build_rep(2, "S2")
    assert (rep.n, rep.kind, rep.dimension, rep.top_floor) == (2, "S2", 6, 4)
    assert len(rep.e_std_lifts) == 2
    bare = ea.MatrixRep(1, "S1", 2, {0: {1: 1}}, {}, {}, [(1,), (-1,)],
                        [1, 0], 1, (1,), 1)
    assert bare.e_std_lifts is None
    comm = ea.commutant(rep)
    assert comm.rep is rep and comm.dimension == 6
