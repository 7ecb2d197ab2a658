"""Combinatorial oracle: graded dimension count of partitions inside an
m x n box, and the three-way identity with the Gaussian binomial and the
type-A Dynkin polynomial.
"""

from __future__ import annotations

from . import budget
from .dynkin import dynkin_product
from .errors import InternalConsistencyError, count_text
from .qpoly import QPolynomial, gaussian_binomial
from .rootsystem import build_root_system


def box_partition_poincare(n, m):
    """Coefficient of q^d counts partitions of d with at most m parts,
    each part at most n, by direct lexicographic enumeration.

    The current partition is a stack of non-increasing parts, each bounded
    by the one before it (the first by n), so depth m needs no recursion."""
    if n < 1 or m < 1:
        raise ValueError("box_partition_poincare needs n, m >= 1")
    # C(m + n, m) over the shorter side of the box, the dimension of
    # V(m varpi_1) of A_n; its partial values C(k + i, i) grow with i, so
    # the first one over the limit refuses
    total, k, cap = 1, max(m, n), budget.limit("dim")
    for i in range(1, min(m, n) + 1):
        total = total * (k + i) // i
        if total > cap:
            break
    budget.charge("dim", "box partition enumeration", total,
                  f"C({count_text(m + n)}, {count_text(m)})")
    counts = [0] * (n * m + 1)
    parts, size = [], 0
    while True:
        counts[size] += 1
        if len(parts) < m:
            parts.append(1)
        else:
            while parts and parts[-1] == (parts[-2] if len(parts) > 1 else n):
                size -= parts.pop()
            if not parts:
                break
            parts[-1] += 1
        size += 1
    if sum(counts) != total:
        raise InternalConsistencyError(
            f"{sum(counts)} box partitions enumerated, expected {total}"
        )
    return QPolynomial(counts)


def verify_section6_identity(n, m):
    """Box partitions = Gaussian binomial = Dynkin polynomial of
    (A_n, m*varpi_1), all three exactly."""
    return section6_identity_holds(n, m, box_partition_poincare(n, m))


def section6_identity_holds(n, m, box):
    """The box-partition series ``box`` of the n x m box equals the
    Gaussian binomial and the Dynkin polynomial of (A_n, m*varpi_1)."""
    gauss = gaussian_binomial(m, n)
    rs = build_root_system("A", n)
    dyn = dynkin_product(rs, (m,) + (0,) * (n - 1))
    return box == gauss == dyn
