"""Dynkin polynomials: the floor-count sum, the root product formula, the
minuscule quotient, spindle-shape reports and the classical sl2 identities.
"""

from __future__ import annotations

from . import characters as ch
from .errors import DomainError
from .qpoly import QPolynomial, cyclo_product, gaussian_binomial
# t_poly stays bound here: the benchmark's shim test checks through it
# that names bound by a from-import are traced.
from .qanalogues import parabolic_quotient, t_poly  # noqa: F401
from .rootsystem import build_root_system


def dynkin_sum(rs, lam, dim_budget=ch.DEFAULT_DIM_BUDGET):
    """Dynkin polynomial from the character: weight multiplicities counted
    by floor number (character-based oracle)."""
    return ch.floor_profile(rs, lam, dim_budget)


def dynkin_product(rs, lam):
    """Dynkin polynomial by the root product: the product over the positive
    coroots gamma^vee of [<lam+rho, gamma^vee>]_q / [ht gamma^vee]_q.  It
    needs only root data, so it is fast even for the E types."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    return cyclo_product(rs.rho_pairings(lam), rs.coroot_heights)


def dynkin_minuscule(rs, lam, dim_budget=ch.DEFAULT_DIM_BUDGET):
    """Quotient formula t_0/t_lam, valid exactly on minuscule weights."""
    lam = tuple(lam)
    if not ch.is_minuscule(rs, lam, dim_budget):
        raise DomainError(f"{lam} is not minuscule")
    return parabolic_quotient(rs, lam)


def verify_spindle(rs, lam, dim_budget=ch.DEFAULT_DIM_BUDGET):
    """Report dict for the four spindle laws of the Dynkin polynomial:
    symmetry, unimodality, degree = 2*(lam, rho^vee), value at 1 = dim."""
    lam = tuple(lam)
    d = dynkin_product(rs, lam)
    report = {
        "symmetric": d.is_symmetric(),
        "unimodal": d.is_unimodal(),
        "degree_law": d.degree == rs.doubled_height(lam),
        "dimension_law": d(1) == rs.weyl_dimension(lam),
        "violations": [],
    }
    if not report["symmetric"]:
        report["violations"].extend(
            i for i in range(len(d.coeffs))
            if d.coeffs[i] != d.coeffs[d.degree - i]
        )
    if not report["unimodal"]:
        peak = d.coeffs.index(max(d.coeffs))
        report["violations"].extend(
            i for i in range(1, len(d.coeffs))
            if (d.coeffs[i] > d.coeffs[i - 1]) and i > peak
        )
    report["ok"] = all(
        report[k] for k in ("symmetric", "unimodal", "degree_law", "dimension_law")
    )
    return report


def hermite_identities(m, n):
    """The two sl2 plethysm identities at the level of Dynkin polynomials:
    S^m of sl_{n+1} vs S^n of sl_{m+1}, and vs the m-th fundamental of
    sl_{m+n}.  Returns the common polynomial and both booleans."""
    if m < 1 or n < 1:
        raise DomainError("hermite_identities needs m, n >= 1")
    a_n = build_root_system("A", n)
    a_m = build_root_system("A", m)
    lhs = dynkin_product(a_n, (m,) + (0,) * (n - 1))
    reciprocity = lhs == dynkin_product(a_m, (n,) + (0,) * (m - 1))
    if m + n >= 2:
        big = build_root_system("A", m + n - 1)
        fundamental = tuple(1 if i == m - 1 else 0 for i in range(m + n - 1))
        wedge = lhs == dynkin_product(big, fundamental)
    else:
        wedge = True
    gaussian = lhs == gaussian_binomial(m, n)
    return {
        "value": lhs,
        "reciprocity": reciprocity,
        "wedge": wedge,
        "gaussian": gaussian,
        "ok": reciprocity and wedge and gaussian,
    }
