from math import comb

import pytest

from spindle import budget
from spindle import truncsym as ts
from spindle.errors import ResourceBudgetError
from spindle.qpoly import QPolynomial, gaussian_binomial


def test_box_partition_values():
    assert ts.box_partition_poincare(2, 2) == QPolynomial([1, 1, 2, 1, 1])
    assert ts.box_partition_poincare(1, 3) == QPolynomial.geometric(4)
    assert ts.box_partition_poincare(3, 1) == QPolynomial.geometric(4)


def test_box_partition_total_count():
    for n in range(1, 6):
        for m in range(1, 6):
            p = ts.box_partition_poincare(n, m)
            assert p(1) == comb(m + n, m)
            assert p.degree == n * m


def test_box_partition_budget():
    with pytest.raises(ResourceBudgetError), budget.limits(dim=100):
        ts.box_partition_poincare(20, 20)


def test_box_partition_bad_input():
    with pytest.raises(ValueError):
        ts.box_partition_poincare(0, 3)


def test_three_way_identity():
    for n in range(1, 7):
        for m in range(1, 7):
            assert ts.verify_section6_identity(n, m)
            assert ts.box_partition_poincare(n, m) == gaussian_binomial(m, n)


def test_identity_check_refuses_a_wrong_box():
    box = ts.box_partition_poincare(3, 2)
    assert ts.section6_identity_holds(3, 2, box)
    assert not ts.section6_identity_holds(3, 2, box + 1)
    assert not ts.section6_identity_holds(2, 3, ts.box_partition_poincare(2, 2))


def test_suite_enumerates_each_box_once(monkeypatch):
    from spindle import verify as vf

    calls = []
    enumerate_box = ts.box_partition_poincare

    def counted(n, m, *args, **kwargs):
        calls.append((n, m))
        return enumerate_box(n, m, *args, **kwargs)

    monkeypatch.setattr(ts, "box_partition_poincare", counted)
    checks = vf.suite_truncsym()
    assert len(checks) == 64 and all(c.ok for c in checks)
    assert sorted(calls) == [(n, m) for n in range(1, 9) for m in range(1, 9)]
