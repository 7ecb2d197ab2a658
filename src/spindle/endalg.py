"""Structure checks of the graded commutant algebra End_{z(e)} V.

The commutant of the centralizer z(e) of a regular nilpotent e is solved
on the module route, ``modulerep.commutant``, graded by floor.  For a
weight-multiplicity-free module we check the structural claims on it:
commutativity, a 1-dimensional socle, the lowest-vector bijection, the
Lefschetz ranges of e, nonvanishing projections of e-powers and a
1-dimensional joint kernel of z(e).  Everything is read off the module:
e is D times the sum of the simple raising operators, and the lowest
vector is the one basis vector of minimal level.

``type_a_module`` names the type-A cases: S^m and Lambda^k of the
defining representation of sl_{n+1} are V(m w_1) and V(w_k).  One budget
bounds both the module dimension and the rank n, because the module route
builds the whole root system of A_n and n elements of z(e).
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from . import exactla as la
from . import modulerep as mr
from .errors import DomainError, InternalConsistencyError, ResourceBudgetError, UsageError
from .rootsystem import build_root_system

DEFAULT_DIM_BOUND = 60


def _parse_kind(kind):
    """'S3' -> symmetric cube, 'E2' -> second exterior power."""
    if not isinstance(kind, str) or len(kind) < 2 or kind[0] not in "SE":
        raise UsageError(f"kind must look like 'S2' or 'E2', got {kind!r}")
    try:
        power = int(kind[1:])
    except ValueError:
        raise UsageError(f"kind must look like 'S2' or 'E2', got {kind!r}")
    if power < 1:
        raise UsageError("power must be >= 1")
    return kind[0], power


def type_a_module(n, kind, dim_bound=DEFAULT_DIM_BOUND):
    """S^m or Lambda^k of the defining rep of sl_{n+1} as the module of
    A_n with highest weight m w_1 or w_k (0 for k = n+1).  Its dimension,
    then n, is checked against dim_bound before anything is built."""
    if n < 1:
        raise UsageError("n must be >= 1")
    flavor, power = _parse_kind(kind)
    if flavor == "S":
        dim = comb(n + power, power)
        lam = (power,) + (0,) * (n - 1)
    else:
        if power > n + 1:
            raise UsageError(f"exterior power {power} exceeds {n + 1}")
        dim = comb(n + 1, power)
        lam = tuple(int(i == power - 1) for i in range(n))
    if dim > dim_bound:
        raise ResourceBudgetError("matrix model dimension", dim, dim_bound)
    # A faithful module of sl_{n+1} has dimension > n, so only the trivial
    # Lambda^{n+1} can pass the first check with n over the budget.
    if n > dim_bound:
        raise ResourceBudgetError("matrix model rank", n, dim_bound)
    return mr.HighestWeightModule(build_root_system("A", n), lam, dim_bound)


class GradedCommutant:
    """Homogeneous basis [(T, grade)] of the commutant of z(e) on a
    module, graded by floor, with the z(e) it was solved for."""

    def __init__(self, module):
        self.module = module
        self.centralizer = mr.nilpotent_centralizer(module)
        self.basis = mr.commutant(module, self.centralizer)

    @property
    def dimension(self):
        return len(self.basis)

    def graded_dimensions(self):
        out = [0] * (max(self.module.floors()) + 1)
        for _, g in self.basis:
            out[g] += 1
        return out

    def is_commutative(self):
        """Decided once per commutant; socle_dimension asks again."""
        return self._commutes

    @cached_property
    def _commutes(self):
        return not any(
            la.bracket(a, b)
            for i, (a, _) in enumerate(self.basis)
            for b, _g in self.basis[i + 1:]
        )

    def _span(self):
        dim = self.module.dimension
        return la.span([la.flatten(m, dim) for m, _ in self.basis])

    def contains(self, matrix):
        return la.flatten(matrix, self.module.dimension) in self._span()

    def is_closed_under_product(self):
        dim = self.module.dimension
        span = self._span()
        for a, _ in self.basis:
            for b, _g in self.basis:
                if la.flatten(la.mat_mul(a, b), dim) not in span:
                    return False
        return True


def commutant(module):
    """The graded commutant of z(e) on a weight-multiplicity-free module:
    its dimension is dim V."""
    comm = GradedCommutant(module)
    if comm.dimension != module.dimension:
        raise InternalConsistencyError(
            f"commutant dimension {comm.dimension} != dim V = "
            f"{module.dimension}"
        )
    return comm


def _lowest(module):
    """(floors, index of the lowest vector)."""
    floors = module.floors()
    if floors.count(0) != 1:
        raise InternalConsistencyError("lowest weight space is not a line")
    return floors, floors.index(0)


def check_bijection(comm):
    """Evaluation at the lowest vector is bijective and maps grade i into
    floor i."""
    floors, low = _lowest(comm.module)
    columns = []
    for m, g in comm.basis:
        vec = {r: row[low] for r, row in m.items() if low in row}
        if any(floors[r] != g for r in vec):
            return False
        columns.append(vec)
    return la.rank(columns) == len(floors)


def socle_dimension(comm):
    """Dimension of the annihilator of the positive-grade part."""
    if not comm.is_commutative():
        raise DomainError("socle check requires a commutative commutant")
    rows = []
    for m, g in comm.basis:
        if g <= 0:
            continue
        # row block: coefficients x_i of sum x_i b_i with (sum x_i b_i) m = 0
        rows.extend(la.coefficient_rows(
            la.mat_mul(b, m) for b, _ in comm.basis
        ))
    return comm.dimension - la.rank(rows)


def lefschetz_check(comm):
    """Multiplication by the grade-1 element e is injective on the lower
    half of the grading and surjective on the upper half."""
    e = mr.principal_nilpotent(comm.module)
    if not comm.contains(e):
        raise InternalConsistencyError("e is not in the commutant")
    top = max(comm.module.floors())
    dim = comm.module.dimension
    by_grade = {}
    for m, g in comm.basis:
        by_grade.setdefault(g, []).append(m)
    # top = 2*hot(lam); injective for i <= [(top-1)/2], surjective for
    # i >= [top/2].  Images of grade i lie inside the grade-(i+1) span, so
    # rank comparisons decide both.
    for i in range(top):
        src = by_grade.get(i, [])
        dst = by_grade.get(i + 1, [])
        images = [la.flatten(la.mat_mul(e, m), dim) for m in src]
        target = la.span([la.flatten(m, dim) for m in dst])
        if any(img not in target for img in images):
            raise InternalConsistencyError("product left the expected grade")
        r = la.rank(images)
        if i <= (top - 1) // 2 and r != len(src):
            return False
        if i >= top // 2 and r != len(dst):
            return False
    return True


def e_power_projections(module):
    """e^n applied to the lowest vector hits every weight line on floor n."""
    floors, low = _lowest(module)
    e = mr.principal_nilpotent(module)
    vec = {low: 1}
    for step in range(1, max(floors) + 1):
        vec = la.mat_vec(e, vec)
        for b, floor in enumerate(floors):
            if floor == step and b not in vec:
                return False
    return True


def a_invariants_dimension(comm):
    """Dimension of the joint kernel of z(e)."""
    dim = comm.module.dimension
    rows = [row for z in comm.centralizer for row in z.values()]
    return dim - la.rank(rows)
