"""Acceptance gate: the fifteen headline guarantees, each with an explicit
runtime bound and exact (zero-tolerance) arithmetic.  Every test prints one
PASS/FAIL line so the gate is readable from the raw pytest log.
"""

import time
from math import comb

from spindle import characters as ch
from spindle import dynkin as dy
from spindle import modulerep as mr
from spindle import qanalogues as qa
from spindle import truncsym as ts
from spindle import verify as vf
from spindle.qpoly import QPolynomial, gaussian_binomial
from spindle.rootsystem import build_root_system


def _report(num, label, ok, elapsed, bound):
    in_time = elapsed < bound
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"{status} criterion {num}: {label} "
          f"({elapsed:.2f}s, bound {bound}s)")
    assert ok, f"criterion {num} ({label}) has failing checks"
    assert in_time, f"criterion {num} ({label}) exceeded {bound}s"


def _run_suite(name, **options):
    start = time.monotonic()
    results = vf.run_suite(name, **options)
    elapsed = time.monotonic() - start
    bad = [r.label for _, r in results if not r.ok]
    return len(results) > 0 and not bad, elapsed, bad


def test_criterion_01_closed_form_table():
    ok, elapsed, bad = _run_suite("table1")
    _report(1, "closed-form polynomial table", ok and not bad, elapsed, 5)


def test_table1_entries_build_no_closed_form(monkeypatch):
    # dynkin-cross and tensor-mf read only the weights of the table
    def build(*args):
        raise AssertionError(f"closed form {args} built")
    for name in ("gaussian_binomial", "_geometric", "_spin", "_d_vector"):
        monkeypatch.setattr(vf, name, build)
    assert len(vf._table1_entries()) == 135
    assert len(vf._table1_entries(dim_cap=60)) == 92


def test_criterion_02_dynkin_cross_formula():
    ok, elapsed, bad = _run_suite("dynkin-cross")
    _report(2, "floor-count sum equals root product", ok, elapsed, 60)


def test_criterion_03_minuscule_quotient():
    start = time.monotonic()
    ok = True
    count = 0
    for letter, rank in [("A", r) for r in range(1, 9)] + [
        ("B", r) for r in range(2, 9)
    ] + [("C", r) for r in range(3, 9)] + [
        ("D", r) for r in range(4, 9)
    ] + [("E", 6), ("E", 7)]:
        rs = build_root_system(letter, rank)
        for i in range(rank):
            lam = tuple(1 if j == i else 0 for j in range(rank))
            # cheap pairing filter first; the full single-orbit check runs
            # inside dynkin_minuscule on the survivors
            if not ch.minuscule_by_pairing(rs, lam):
                continue
            count += 1
            if dy.dynkin_minuscule(rs, lam) != dy.dynkin_product(rs, lam):
                ok = False
    elapsed = time.monotonic() - start
    _report(3, f"minuscule quotient formula ({count} weights)",
            ok and count > 0, elapsed, 5)


def test_criterion_04_spindle_property():
    ok, elapsed, bad = _run_suite("spindle")
    _report(4, "symmetry and unimodality on 200 random weights", ok,
            elapsed, 60)


def test_criterion_05_two_algorithm_q_multiplicity():
    ok, elapsed, bad = _run_suite("lusztig-vs-jump")
    _report(5, "alternating sum equals module-level jump", ok, elapsed, 120)


def test_criterion_06_sp6_counterexample():
    start = time.monotonic()
    c3 = build_root_system("C", 3)
    f = qa.f_lambda(c3, (0, 1, 0))
    d = dy.dynkin_product(c3, (0, 1, 0))
    ok = (
        f == QPolynomial([1, 1, 2, 2, 3, 2, 3, 1, 1])
        and not f.is_symmetric()
        and not f.is_unimodal()
        and f(1) == 16
        and d(1) == 14
    )
    elapsed = time.monotonic() - start
    _report(6, "sp6 second fundamental counterexample", ok, elapsed, 5)


def test_criterion_07_wmf_iff():
    ok, elapsed, bad = _run_suite("wmf-iff")
    _report(7, "F equals D exactly on the wmf weights", ok, elapsed, 120)


def test_criterion_08_minuscule_series():
    ok, elapsed, bad = _run_suite("minuscule-series")
    _report(8, "graded series agree on minuscule weights", ok, elapsed, 10)


def test_criterion_09_kostant_factorization():
    ok, elapsed, bad = _run_suite("kostant-t0")
    _report(9, "degree and height-product factorizations", ok, elapsed, 5)


def test_criterion_10_end_algebra_oracle():
    ok, elapsed, bad = _run_suite("endalg")
    _report(10, "matrix commutant structure checks", ok, elapsed, 60)


def test_criterion_11_box_partition_identity():
    start = time.monotonic()
    ok = True
    for n in range(1, 9):
        for m in range(1, 9):
            box = ts.box_partition_poincare(n, m)
            if box != gaussian_binomial(m, n):
                ok = False
            rs = build_root_system("A", n)
            if box != dy.dynkin_product(rs, (m,) + (0,) * (n - 1)):
                ok = False
            if box(1) != comb(m + n, m):
                ok = False
    elapsed = time.monotonic() - start
    _report(11, "box partitions / Gaussian binomial / type A", ok,
            elapsed, 5)


def test_criterion_12_tensor_multiplicity_free():
    ok, elapsed, bad = _run_suite("tensor-mf")
    _report(12, "tensor squares of small wmf weights", ok, elapsed, 60)


def test_criterion_13_e7_e8_adjoint_exponents():
    start = time.monotonic()
    ok = True
    for rank, adjoint in [(7, (1, 0, 0, 0, 0, 0, 0)),
                          (8, (0, 0, 0, 0, 0, 0, 0, 1))]:
        rs = build_root_system("E", rank)
        if qa.generalized_exponents(rs, adjoint) != list(rs.exponents):
            ok = False
    elapsed = time.monotonic() - start
    _report(13, "E7 and E8 adjoint generalized exponents", ok, elapsed, 30)


def test_criterion_14_module_oracle_at_dimension_1539():
    # E7 with highest weight omega_6 (dimension 1539): the filtration of
    # the zero weight space by a regular nilpotent, computed in the module
    # itself, equals the zero-weight q-multiplicity from the alternating
    # Weyl sum.
    rs = build_root_system("E", 7)
    lam = (0, 0, 0, 0, 0, 1, 0)
    start = time.monotonic()
    via_module = mr.jump_polynomial(rs, lam)
    via_weyl = qa.lusztig_q_multiplicity(rs, lam, (0,) * 7)
    elapsed = time.monotonic() - start
    ok = (rs.weyl_dimension(lam) == 1539 and via_module == via_weyl
          and via_module(1) == 27)
    _report(14, "E7 omega_6 jump polynomial, module vs Weyl sum", ok,
            elapsed, 15)


def test_criterion_15_module_route_e8_omega1_zero_weight():
    # E8 with highest weight omega_1 (dimension 3875): the module route
    # answers at the zero weight, which the Weyl sum refuses at its default
    # budget.  m(1) is the zero-weight multiplicity and the degree is
    # (omega_1, rho^vee).
    rs = build_root_system("E", 8)
    lam = (1, 0, 0, 0, 0, 0, 0, 0)
    start = time.monotonic()
    m0 = mr.filtration_q_multiplicity(rs, lam, (0,) * 8)
    elapsed = time.monotonic() - start
    ok = m0(1) == 35 and 2 * m0.degree == 92 == rs.doubled_height(lam)
    _report(15, "E8 omega_1 zero-weight q-analogue on the module route", ok,
            elapsed, 30)
