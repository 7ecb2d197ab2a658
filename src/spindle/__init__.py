"""Exact computational engine for polynomial invariants of irreducible
representations of simple Lie algebras: Dynkin polynomials, Lusztig
q-analogues, jump polynomials and graded series of endomorphism algebras,
with a module-level oracle: the exact irreducible module, whose
Brylinski-Kostant filtration checks the alternating Weyl sum and whose
graded commutant of z(e) checks the endomorphism algebras.

All arithmetic is exact, in integers only; there are no rationals and no
floats anywhere in the engine.
"""

from .budget import limits
from .characters import (
    decompose_tensor_square,
    dominant_multiplicities,
    dominant_weights,
    floor_profile,
    irreducible_character,
    is_minuscule,
    is_small,
    is_wmf,
    string_decomposition,
)
from .dynkin import (
    dynkin_minuscule,
    dynkin_product,
    dynkin_sum,
    hermite_identities,
    verify_spindle,
)
from .errors import (
    DomainError,
    ExactDivisionError,
    InternalConsistencyError,
    ResourceBudgetError,
    SpindleError,
    UsageError,
)
from .qanalogues import (
    f_lambda,
    generalized_exponents,
    jump_tensor,
    kostant_partition_q,
    kostant_t0_factorization,
    lusztig_q_multiplicity,
    poincare_cg,
    poincare_ct,
    t_poly,
)
from .qpoly import (
    GradedSeries,
    QPolynomial,
    cyclo_product,
    factored_str,
    gaussian_binomial,
    poly_str,
)
from .rootsystem import RootSystem, build_root_system
from .truncsym import box_partition_poincare, verify_section6_identity

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ExactDivisionError",
    "GradedSeries",
    "InternalConsistencyError",
    "QPolynomial",
    "ResourceBudgetError",
    "RootSystem",
    "SpindleError",
    "UsageError",
    "box_partition_poincare",
    "build_root_system",
    "cyclo_product",
    "decompose_tensor_square",
    "dominant_multiplicities",
    "dominant_weights",
    "dynkin_minuscule",
    "dynkin_product",
    "dynkin_sum",
    "f_lambda",
    "factored_str",
    "floor_profile",
    "gaussian_binomial",
    "generalized_exponents",
    "hermite_identities",
    "irreducible_character",
    "is_minuscule",
    "is_small",
    "is_wmf",
    "jump_tensor",
    "kostant_partition_q",
    "kostant_t0_factorization",
    "limits",
    "lusztig_q_multiplicity",
    "poincare_cg",
    "poincare_ct",
    "poly_str",
    "string_decomposition",
    "t_poly",
    "verify_section6_identity",
    "verify_spindle",
]
