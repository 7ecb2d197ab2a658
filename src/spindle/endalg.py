"""The graded commutant algebra End_{z(e)} V and its structure checks.

The centralizer z(e) of a regular nilpotent e is solved inside the
bracket closure of the simple raising operators, height by height, and
its commutant grade by floor; both through the one graded-kernel solver
``exactla.graded_kernel``.  For a weight-multiplicity-free module we
check the structural claims on the commutant:
commutativity, a 1-dimensional socle, the lowest-vector bijection, the
Lefschetz ranges of e, nonvanishing projections of e-powers and a
1-dimensional joint kernel of z(e).  ``structure`` asks them all, in one
order, for both ``compute end-alg-a`` and ``verify endalg``.  Everything
is read off the module: e is the sum of its simple raising operators,
integer matrices in the module's basis, and the lowest vector is the one
basis vector of minimal level.  The basis is homogeneous and a product of
grades g and h has grade g + h, so each question is asked one grade at a
time: e is looked for in the span of grade 1, e maps the span of grade i
into that of grade i + 1, and the socle's system splits by grade.  No
span of the whole basis is built.

``type_a_module`` names the type-A cases: S^m and Lambda^k of the
defining representation of sl_{n+1} are V(m w_1) and V(w_k).  The
``matrix`` limit bounds both the module dimension and the rank n, because
the module route builds the whole root system of A_n and n elements of z(e).
"""

from __future__ import annotations

from functools import cached_property
from math import comb

from . import budget
from . import exactla as la
from . import modulerep as mr
from .errors import (DomainError, InternalConsistencyError,
                     ResourceBudgetError, UsageError, count_text)
from .qpoly import QPolynomial
from .rootsystem import build_root_system


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


def type_a_module(n, kind):
    """S^m or Lambda^k of the defining rep of sl_{n+1} as the module of
    A_n with highest weight m w_1 or w_k (0 for k = n+1).  Its dimension,
    then n, is charged to the ``matrix`` limit, which also bounds the build.

    The dimension is C(a, b).  With s = min(b, a - b) the shorter side,
    a >= 2s, so C(a, b) >= 2^s: once s reaches the bit length of the
    limit, C(a, b) is over it and is refused as C(a, b) uncomputed; below
    that it has fewer factors than that bit length and is computed."""
    if n < 1:
        raise UsageError("n must be >= 1")
    flavor, power = _parse_kind(kind)
    if flavor == "E" and power > n + 1:
        raise UsageError(f"exterior power {power} exceeds {n + 1}")
    a = n + power if flavor == "S" else n + 1
    cap = budget.limit("matrix")
    if min(power, a - power) >= cap.bit_length():
        raise ResourceBudgetError("matrix model dimension",
                                  f"C({count_text(a)}, {count_text(power)})",
                                  cap)
    budget.charge("matrix", "matrix model dimension", comb(a, power))
    # A faithful module of sl_{n+1} has dimension > n, so only the trivial
    # Lambda^{n+1} can pass the first check with n over the budget.
    budget.charge("matrix", "matrix model rank", n)
    if flavor == "S":
        lam = (power,) + (0,) * (n - 1)
    else:
        lam = tuple(int(i == power - 1) for i in range(n))
    with budget.limits(dim=cap):
        return mr.HighestWeightModule(build_root_system("A", n), lam)


def _nilradical_span(module):
    """Bracket closure of the simple raising operators: the image of the
    positive nilradical, each element homogeneous of definite height.

    Yields (height, [(m, [e, m]), ...]) per height, in increasing height,
    in integer matrices, with e = principal_nilpotent(module).
    """
    n = module.dimension
    simple = mr.raising_operators(module)
    space = la.span([la.flatten(m, n) for m in simple])
    frontier, h = simple, 1
    while frontier:
        grade, new = [], []
        for m in frontier:
            brackets = [la.bracket(s, m) for s in simple]
            new.extend(br for br in brackets if space.add(la.flatten(br, n)))
            grade.append((m, la.combination((1, br) for br in brackets)))
        yield h, grade
        frontier, h = new, h + 1


def nilpotent_centralizer(module):
    """Homogeneous basis of the centralizer of e = sum of simple raising
    operators inside the nilradical image; dimension equals the rank for
    any faithful module."""
    out = [z for z, _ in la.graded_kernel(_nilradical_span(module))]
    if len(out) != module.rs.rank:
        raise InternalConsistencyError(
            f"nilpotent centralizer has dimension {len(out)}, "
            f"expected the rank {module.rs.rank}"
        )
    return out


class GradedCommutant:
    """Homogeneous basis [(T, grade)] of the commutant of z(e) on a
    module, graded by floor (T raises every floor by its grade, so a
    product whose grades sum past the top floor ``top`` is 0), with the
    z(e) it was solved for.  ``grades[g]`` lists the basis elements of
    grade g, for g = 0, ..., top."""

    def __init__(self, module):
        self.module = module
        self.top = max(module.floors())
        self.centralizer = nilpotent_centralizer(module)
        self.basis = la.graded_commutant(self.centralizer, module.floors())
        if self.basis and self.basis[0][1] < 0:
            raise InternalConsistencyError(
                f"commutant element at negative grade {self.basis[0][1]} "
                f"for {module.lam}"
            )
        self.grades = [[] for _ in range(self.top + 1)]
        for m, g in self.basis:
            self.grades[g].append(m)

    @property
    def dimension(self):
        return len(self.basis)

    def graded_dimensions(self):
        return [len(grade) for grade in self.grades]

    def is_commutative(self):
        """Decided once per commutant; socle_dimension asks again."""
        return self._commutes

    @cached_property
    def _commutes(self):
        return not any(
            la.bracket(a, b)
            for i, (a, ga) in enumerate(self.basis)
            for b, gb in self.basis[i + 1:] if ga + gb <= self.top
        )


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
    """Dimension of the annihilator of the positive-grade part, the
    x = sum x_i b_i with x m = 0 for every basis element m of positive
    grade.  It is solved one grade h of the b_i at a time: b m lies in
    grade h + g for m of grade g, so no row of the whole system mixes two
    grades, and its rank is the sum of the per-grade ranks."""
    if not comm.is_commutative():
        raise DomainError("socle check requires a commutative commutant")
    grades, rank = comm.grades, 0
    for h, grade in enumerate(grades):
        # products past the top floor are 0 and give no rows
        rank += la.rank(
            row for g in range(1, comm.top - h + 1) for m in grades[g]
            for row in la.coefficient_rows(la.mat_mul(b, m) for b in grade)
        )
    return comm.dimension - rank


def lefschetz_check(comm):
    """Multiplication by the grade-1 element e is injective on the lower
    half of the grading and surjective on the upper half."""
    e = mr.principal_nilpotent(comm.module)
    top = comm.top
    dim = comm.module.dimension
    # e and the basis are homogeneous, so e lies in the commutant iff it
    # lies in the span of the grade-1 part; spans are built one at a time
    spans = (la.span(la.flatten(m, dim) for m in grade)
             for grade in comm.grades[1:])
    target = next(spans, la.RowSpace())
    if la.flatten(e, dim) not in target:
        raise InternalConsistencyError("e is not in the commutant")
    # top = 2*hot(lam); injective for i <= [(top-1)/2], surjective for
    # i >= [top/2].  Images of grade i lie inside the grade-(i+1) span, so
    # rank comparisons decide both.
    for i in range(top):
        src, dst = comm.grades[i], comm.grades[i + 1]
        images = [la.flatten(la.mat_mul(e, m), dim) for m in src]
        if any(img not in target for img in images):
            raise InternalConsistencyError("product left the expected grade")
        r = la.rank(images)
        if i <= (top - 1) // 2 and r != len(src):
            return False
        if i >= top // 2 and r != len(dst):
            return False
        target = next(spans, None)
    return True


def e_power_projections(module):
    """e^n applied to the lowest vector hits every weight line on floor n."""
    floors, low = _lowest(module)
    e_t = la.transpose(mr.principal_nilpotent(module))
    vec = {low: 1}
    for step in range(1, max(floors) + 1):
        # the vector as a row: e v is the row v times the transpose of e
        vec = la.mat_mul({0: vec}, e_t).get(0, {})
        for b, floor in enumerate(floors):
            if floor == step and b not in vec:
                return False
    return True


def a_invariants_dimension(comm):
    """Dimension of the joint kernel of z(e)."""
    dim = comm.module.dimension
    rows = [row for z in comm.centralizer for row in z.values()]
    return dim - la.rank(rows)


def structure(comm):
    """The structure questions on a commutant, as ordered (property, value)
    pairs: its dimension, graded dimensions (a QPolynomial), commutativity,
    socle dimension, lowest-vector bijection, Lefschetz ranges, e-power
    projections and the dimension of the joint kernel of z(e)."""
    return [
        ("commutant_dimension", comm.dimension),
        ("graded_polynomial", QPolynomial(comm.graded_dimensions())),
        ("commutative", comm.is_commutative()),
        ("socle_dimension", socle_dimension(comm)),
        ("lowest_vector_bijection", check_bijection(comm)),
        ("lefschetz", lefschetz_check(comm)),
        ("e_power_projections", e_power_projections(comm.module)),
        ("invariants_dimension", a_invariants_dimension(comm)),
    ]
