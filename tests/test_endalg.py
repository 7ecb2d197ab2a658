import hashlib
import math
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spindle import budget
from spindle import characters as ch
from spindle import cli
from spindle import endalg as ea
from spindle import exactla as la
from spindle import modulerep as mr
from spindle import rootsystem
from spindle import verify as vf
from spindle.errors import ResourceBudgetError, UsageError
from spindle.qpoly import QPolynomial, gaussian_binomial
from spindle.rootsystem import build_root_system


def test_parse_kind_errors():
    with pytest.raises(UsageError):
        ea.type_a_module(2, "Q2")
    with pytest.raises(UsageError):
        ea.type_a_module(2, "Sx")
    with pytest.raises(UsageError):
        ea.type_a_module(2, "S0")
    with pytest.raises(UsageError):
        ea.type_a_module(0, "S2")
    with pytest.raises(UsageError):
        ea.type_a_module(2, "E4")  # exterior power above n+1


def test_dim_bound():
    with pytest.raises(ResourceBudgetError), budget.limits(matrix=10):
        ea.type_a_module(3, "S4")


def _e_raises_floors_by_one(module):
    floors = module.floors()
    e = mr.principal_nilpotent(module)
    return bool(e) and all(floors[r] == floors[c] + 1
                           for r, row in e.items() for c in row)


def test_rep_structure_sym_square():
    module = ea.type_a_module(2, "S2")
    assert module.dimension == 6
    assert module.lam == (2, 0)
    assert _e_raises_floors_by_one(module)
    floors = module.floors()
    assert max(floors) == 4
    assert floors.count(0) == 1 and floors.count(4) == 1


def test_rep_structure_exterior():
    module = ea.type_a_module(3, "E2")
    assert module.dimension == 6
    assert module.lam == (0, 1, 0)
    assert _e_raises_floors_by_one(module)


def test_commutant_properties():
    grid = [(1, "S2"), (1, "S3"), (2, "S1"), (2, "S2"), (3, "S1"),
            (3, "E2")]
    for n, kind in grid:
        module = ea.type_a_module(n, kind)
        comm = ea.commutant(module)
        assert comm.dimension == module.dimension, (n, kind)
        assert comm.is_commutative(), (n, kind)
        dim = module.dimension
        span = la.span(la.flatten(m, dim) for m, _ in comm.basis)
        assert all(la.flatten(la.mat_mul(a, b), dim) in span
                   for a, _ in comm.basis for b, _ in comm.basis), (n, kind)
        assert la.flatten(mr.principal_nilpotent(module), dim) in span, (
            n, kind)
        assert ea.socle_dimension(comm) == 1, (n, kind)
        assert ea.check_bijection(comm), (n, kind)
        assert ea.lefschetz_check(comm), (n, kind)
        assert ea.e_power_projections(module), (n, kind)
        assert ea.a_invariants_dimension(comm) == 1, (n, kind)


def test_graded_dimensions_match_dynkin():
    from spindle.dynkin import dynkin_product

    for n, kind, lam in [(2, "S2", (2, 0)), (3, "E2", (0, 1, 0)),
                         (1, "S4", (4,))]:
        comm = ea.commutant(ea.type_a_module(n, kind))
        rs = build_root_system("A", n)
        assert QPolynomial(comm.graded_dimensions()) == dynkin_product(
            rs, lam
        )


def test_sym_square_a2_is_gaussian():
    comm = ea.commutant(ea.type_a_module(2, "S2"))
    assert QPolynomial(comm.graded_dimensions()) == gaussian_binomial(2, 2)


def test_rep_and_commutant_are_plain_objects():
    module = ea.type_a_module(2, "S2")
    comm = ea.commutant(module)
    assert comm.module is module and comm.dimension == 6
    assert "__dataclass_fields__" not in vars(ea.GradedCommutant)
    assert comm.basis == la.graded_commutant(comm.centralizer,
                                             module.floors())


def test_commutativity_is_decided_once(monkeypatch):
    comm = ea.commutant(ea.type_a_module(2, "S2"))
    assert comm.is_commutative()

    def refuse(a, b):
        raise AssertionError("commutativity decided twice")

    monkeypatch.setattr(la, "bracket", refuse)
    assert comm.is_commutative()
    assert ea.socle_dimension(comm) == 1


def test_products_zero_by_grading_are_not_computed(monkeypatch):
    # a product or bracket of grades summing past the top floor is 0
    comm = ea.commutant(ea.type_a_module(3, "S3"))
    grades = [g for _, g in comm.basis]
    positive = [g for g in grades if g > 0]
    zero = [(a, b) for a, ga in comm.basis for b, gb in comm.basis
            if ga + gb > comm.top]
    assert zero and not any(la.mat_mul(a, b) for a, b in zero)
    calls = Counter()

    def counted(fn):
        def wrapper(a, b):
            calls[fn.__name__] += 1
            return fn(a, b)
        return wrapper

    monkeypatch.setattr(la, "mat_mul", counted(la.mat_mul))
    monkeypatch.setattr(la, "bracket", counted(la.bracket))
    assert comm.is_commutative() and ea.socle_dimension(comm) == 1
    products = sum(g + h <= comm.top for g in positive for h in grades)
    brackets = sum(g + h <= comm.top for g, h in combinations(grades, 2))
    assert products < len(positive) * len(grades)
    assert brackets < len(grades) * (len(grades) - 1) // 2
    assert calls == {"mat_mul": products, "bracket": brackets}


def test_suite_asks_each_structure_question_once(monkeypatch):
    calls = {}

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("socle_dimension", "a_invariants_dimension"):
        monkeypatch.setattr(ea, name, counted(getattr(ea, name)))
    monkeypatch.setattr(ea, "nilpotent_centralizer",
                        counted(ea.nilpotent_centralizer))
    checks = vf.suite_endalg()
    assert all(c.ok for c in checks) and len(checks) == 64
    assert calls == {"socle_dimension": 8, "a_invariants_dimension": 8,
                     "nilpotent_centralizer": 8}


# An independent construction of the type-A cases: the powers e^j of the
# principal nilpotent of sl_{n+1} (e sends e_{i+1} to e_i) lifted to
# S^m or Lambda^k of C^{n+1}, on the monomial basis, with its floors.
def _lifted_model(n, kind):
    flavor, power = kind[0], int(kind[1:])
    if flavor == "S":
        basis = [a for a in product(range(power + 1), repeat=n + 1)
                 if sum(a) == power]
        occupancy = basis
    else:
        basis = list(combinations(range(n + 1), power))
        occupancy = [[int(i in b) for i in range(n + 1)] for b in basis]
    index = {b: k for k, b in enumerate(basis)}
    lifts = []
    for j in range(1, n + 1):
        lift = {}
        for col, b in enumerate(basis):
            for i in range(n + 1 - j):  # x_{i+j} -> x_i
                if flavor == "S":
                    if not b[i + j]:
                        continue
                    target = list(b)
                    target[i + j] -= 1
                    target[i] += 1
                    target, coeff = tuple(target), b[i + j]
                else:
                    if i + j not in b or i in b:
                        continue
                    target = tuple(sorted(set(b) - {i + j} | {i}))
                    # e_i moves left past the factors between i and i+j
                    coeff = (-1) ** sum(1 for v in b if i < v < i + j)
                lift.setdefault(index[target], {})[col] = coeff
        lifts.append(lift)
    floors = [sum(a * (n - i) for i, a in enumerate(occ))
              for occ in occupancy]
    return lifts, [f - min(floors) for f in floors]


@pytest.mark.parametrize("n, kind", vf.ENDALG_GRID)
def test_lifted_model_commutant_matches_module_route(n, kind):
    lifts, floors = _lifted_model(n, kind)
    want = Counter(g for _, g in la.graded_commutant(lifts, floors))
    assert min(want) == 0 and sum(want.values()) == len(floors)
    got = ea.commutant(ea.type_a_module(n, kind)).graded_dimensions()
    assert {g: d for g, d in enumerate(got) if d} == want


def _run(argv, capsys):
    code = cli.main(["compute", "end-alg-a"] + argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_end_alg_a_text_output_is_pinned(capsys):
    digest = hashlib.md5()
    # up to the 56-dimensional Lambda^3 of sl8, and the trivial Lambda^3
    # of sl3
    for n, kind in [(3, "S1"), (3, "S2"), (3, "S3"), (3, "S4"), (3, "E1"),
                    (3, "E2"), (3, "E3"), (3, "E4"), (1, "S2"), (5, "S3"),
                    (7, "E3"), (2, "E3")]:
        code, out, err = _run(["--n", str(n), "--kind", kind], capsys)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == "dd5535e5d8dbefa8edbc126426cd9070"


@pytest.mark.parametrize("argv, code, err", [
    (["--n", "2", "--kind", "Q2"], 2,
     "error: kind must look like 'S2' or 'E2', got 'Q2'\n"),
    (["--n", "2", "--kind", "E4"], 2, "error: exterior power 4 exceeds 3\n"),
    (["--n", "3", "--kind", "S4", "--matrix-budget", "10"], 3,
     "error: matrix model dimension: 35 exceeds budget 10\n"),
])
def test_end_alg_a_error_lines(capsys, argv, code, err):
    assert _run(argv, capsys) == (code, "", err)


@pytest.mark.parametrize("cap", [1, 2, 5, 10, 60, 1000])
def test_dimension_is_refused_exactly_when_the_binomial_exceeds_the_limit(
        monkeypatch, cap):
    # C(a, b) >= 2^min(b, a - b): from that bit length on it is refused
    # uncomputed and shown as C(a, b), below it computed and shown in full
    monkeypatch.setattr(mr, "HighestWeightModule", lambda rs, lam: lam)
    for n, kind in product(range(1, 13), ["S1", "S2", "S5", "S12", "E1",
                                          "E2", "E4", "E7", "E13"]):
        power = int(kind[1:])
        if kind[0] == "E" and power > n + 1:
            continue
        a = n + power if kind[0] == "S" else n + 1
        dim = math.comb(a, power)
        with budget.limits(matrix=cap):
            if dim <= cap and n <= cap:
                ea.type_a_module(n, kind)
                continue
            with pytest.raises(ResourceBudgetError) as info:
                ea.type_a_module(n, kind)
        if dim > cap:
            short = min(power, a - power) >= cap.bit_length()
            assert info.value.needed == (f"C({a}, {power})" if short else dim)


def _record_builds(monkeypatch):
    """The (type, rank) of every root system asked of build_root_system
    from now on, built or taken from its memo."""
    built = []
    build = rootsystem._build
    monkeypatch.setattr(rootsystem, "_build", lambda letter, rank: (
        built.append((letter, rank)) or build(letter, rank)))
    return built


def test_budget_is_checked_before_anything_is_built(capsys, monkeypatch):
    built = _record_builds(monkeypatch)
    assert _run(["--n", "300", "--kind", "S2"], capsys) == (
        3, "", "error: matrix model dimension: 45451 exceeds budget 60\n")
    assert ("A", 300) not in built


def test_rank_is_checked_before_anything_is_built(capsys, monkeypatch):
    # Lambda^{n+1} is the 1-dimensional trivial module: only the rank
    # bounds the A_n that the module route would build for it.
    built = _record_builds(monkeypatch)
    assert _run(["--n", "300", "--kind", "E301"], capsys) == (
        3, "", "error: matrix model rank: 300 exceeds budget 60\n")
    assert _run(["--n", "61", "--kind", "E62", "--matrix-budget", "60"],
                capsys)[0] == 3
    assert ("A", 300) not in built
    assert ("A", 61) not in built
    code, out, err = _run(["--n", "4", "--kind", "E5", "--matrix-budget",
                           "4"], capsys)
    assert (code, err) == (0, "") and "invariants_dimension" in out
    assert ("A", 4) in built  # the stub sees a build


@st.composite
def small_modules(draw):
    letter, rank = draw(st.sampled_from(
        [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)]))
    rs = build_root_system(letter, rank)
    lam = tuple(draw(st.integers(0, 4)) for _ in range(rank))
    assume(rs.weyl_dimension(lam) <= 27)
    return rs, lam


@settings(max_examples=40, deadline=None)
@given(small_modules())
def test_module_commutant_is_commutative_iff_wmf(case):
    rs, lam = case
    module = mr.HighestWeightModule(rs, lam)
    comm = ea.GradedCommutant(module)
    assert comm.is_commutative() == ch.is_wmf(rs, lam)


@pytest.mark.parametrize("letter, rank, lam, commutative", [
    ("B", 3, (1, 0, 0), True), ("G", 2, (1, 0), True),
    ("C", 3, (0, 0, 1), True), ("B", 3, (0, 0, 1), True),
    ("D", 4, (1, 0, 0, 0), True), ("A", 2, (1, 1), False),
    ("B", 2, (0, 2), False), ("G", 2, (0, 1), False),
])
def test_module_commutant_commutativity_samples(letter, rank, lam,
                                                commutative):
    module = mr.HighestWeightModule(build_root_system(letter, rank), lam)
    comm = ea.GradedCommutant(module)
    assert comm.is_commutative() is commutative
