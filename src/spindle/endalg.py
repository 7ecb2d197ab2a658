"""Desk-scale matrix model of the graded commutant algebra for type A.

For sl_{n+1} acting on S^m(C^{n+1}) or Lambda^k(C^{n+1}) we realise the
principal triple {e, h, f} explicitly in integer matrices, compute the
joint commutant of the powers of the regular nilpotent exactly, and check
the structural claims: lowest-vector bijection, 1-dimensional socle,
Lefschetz ranges, nonvanishing projections of e-powers, and the graded
dimension count.
"""

from __future__ import annotations

from itertools import combinations

from . import exactla as la
from .errors import DomainError, InternalConsistencyError, ResourceBudgetError, UsageError

DEFAULT_DIM_BOUND = 60


def _parse_kind(kind):
    """'S3' -> symmetric cube, 'E2' -> second exterior power."""
    if isinstance(kind, tuple) and len(kind) == 2:
        kind = f"{kind[0]}{kind[1]}"
    if not isinstance(kind, str) or len(kind) < 2 or kind[0] not in "SE":
        raise UsageError(f"kind must look like 'S2' or 'E2', got {kind!r}")
    try:
        power = int(kind[1:])
    except ValueError:
        raise UsageError(f"kind must look like 'S2' or 'E2', got {kind!r}")
    if power < 1:
        raise UsageError("power must be >= 1")
    return kind[0], power


def _sym_basis(n, m):
    """Exponent vectors of monomials of degree m in n+1 variables, sorted."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a, slots - 1)

    rec([], m, n + 1)
    out.sort()
    return out


def _lift_symmetric(mat_std, basis, index):
    """Derivation action of an (n+1)x(n+1) matrix on monomials: the entry
    M[i][j] acts as x_i d/dx_j."""
    cols = la.transpose(mat_std)
    terms = []
    for col, a in enumerate(basis):
        for j, column in cols.items():
            if a[j] == 0:
                continue
            for i, c in column.items():
                target = list(a)
                target[j] -= 1
                target[i] += 1
                terms.append((c * a[j], {index[tuple(target)]: {col: 1}}))
    return la.combination(terms)


def _lift_exterior(mat_std, basis, index):
    """Action on wedge monomials e_S: M[i][j] sends e_j to e_i inside S."""
    cols = la.transpose(mat_std)
    terms = []
    for col, subset in enumerate(basis):
        pos = {v: p for p, v in enumerate(subset)}
        for j in subset:
            for i, c in cols.get(j, {}).items():
                if i == j:
                    terms.append((c, {col: {col: 1}}))
                    continue
                if i in pos:
                    continue
                target = [v for v in subset if v != j] + [i]
                target_sorted = tuple(sorted(target))
                # sign: move i from the old slot of j to its sorted slot
                old = pos[j]
                new = target_sorted.index(i)
                sign = -1 if (old + new) % 2 else 1
                terms.append((c * sign, {index[target_sorted]: {col: 1}}))
    return la.combination(terms)


class MatrixRep:
    """Principal sl2 triple acting on a symmetric or exterior power."""

    def __init__(self, n, kind, dimension, e_matrix, h_matrix, f_matrix,
                 weight_of_basis, floors, lowest_index, highest_weight,
                 top_floor, e_std_lifts=None):
        self.n = n
        self.kind = kind
        self.dimension = dimension
        self.e_matrix = e_matrix
        self.h_matrix = h_matrix
        self.f_matrix = f_matrix
        self.weight_of_basis = weight_of_basis
        self.floors = floors
        self.lowest_index = lowest_index
        self.highest_weight = highest_weight
        self.top_floor = top_floor
        self.e_std_lifts = e_std_lifts

    def commutator_check(self):
        """[h,e]=2e, [h,f]=-2f, [e,f]=h, exactly."""
        e, h, f = self.e_matrix, self.h_matrix, self.f_matrix
        return (
            la.bracket(h, e) == la.combination([(2, e)])
            and la.bracket(h, f) == la.combination([(-2, f)])
            and la.bracket(e, f) == h
        )


def build_rep(n, kind, dim_bound=DEFAULT_DIM_BOUND):
    """Matrix model of S^m or Lambda^k of the defining rep of sl_{n+1}."""
    if n < 1:
        raise UsageError("n must be >= 1")
    flavor, power = _parse_kind(kind)
    n1 = n + 1

    # principal triple in the defining representation
    e_std = {i: {i + 1: 1} for i in range(n)}
    h_std = {i: {i: n - 2 * i} for i in range(n1) if n != 2 * i}
    f_std = {i: {i - 1: i * (n1 - i)} for i in range(1, n1)}

    if flavor == "S":
        basis = _sym_basis(n, power)
        lam = (power,) + (0,) * (n - 1)
        lift = _lift_symmetric
    else:
        if power > n1:
            raise UsageError(f"exterior power {power} exceeds {n1}")
        basis = sorted(combinations(range(n1), power))
        lam = tuple(1 if i == power - 1 else 0 for i in range(n))  # 0 if power=n+1
        lift = _lift_exterior
    dim = len(basis)
    if dim > dim_bound:
        raise ResourceBudgetError("matrix model dimension", dim, dim_bound)
    index = {b: i for i, b in enumerate(basis)}

    e = lift(e_std, basis, index)
    h = lift(h_std, basis, index)
    f = lift(f_std, basis, index)

    # weights of the basis vectors in the fundamental basis of A_n:
    # eps_i has +1 in slot i and -1 in slot i-1 (slots clipped to 1..n).
    def eps(i):
        w = [0] * n
        if i < n:
            w[i] += 1
        if i > 0:
            w[i - 1] -= 1
        return w

    weights = []
    for b in basis:
        w = [0] * n
        occupancy = b if flavor == "S" else [1 if i in b else 0 for i in range(n1)]
        for i, a in enumerate(occupancy):
            if a:
                for k, x in enumerate(eps(i)):
                    w[k] += a * x
        weights.append(tuple(w))

    h_eigs = [h.get(i, {}).get(i, 0) for i in range(dim)]
    low = min(h_eigs)
    if h_eigs.count(low) != 1:
        raise InternalConsistencyError("lowest weight space is not a line")
    floors = [(x - low) // 2 for x in h_eigs]
    if any((x - low) % 2 for x in h_eigs):
        raise InternalConsistencyError("h eigenvalues not on one parity class")

    # lifts of the powers of the regular nilpotent (traceless part is
    # irrelevant for commutators, scalars commute with everything)
    lifts = []
    p = e_std
    for _ in range(n):
        lifts.append(lift(p, basis, index))
        p = la.mat_mul(p, e_std)

    rep = MatrixRep(
        n=n,
        kind=f"{flavor}{power}",
        dimension=dim,
        e_matrix=e,
        h_matrix=h,
        f_matrix=f,
        weight_of_basis=weights,
        floors=floors,
        lowest_index=h_eigs.index(low),
        highest_weight=lam,
        top_floor=max(floors),
        e_std_lifts=lifts,
    )
    if not rep.commutator_check():
        raise InternalConsistencyError("principal triple relations failed")
    return rep


class GradedCommutant:
    """Basis of the joint commutant of the nilpotent powers, graded by
    half the ad(h) eigenvalue."""

    def __init__(self, rep, basis):
        self.rep = rep
        self.basis = basis  # [(matrix, grade)]

    @property
    def dimension(self):
        return len(self.basis)

    def graded_dimensions(self):
        top = self.rep.top_floor
        out = [0] * (top + 1)
        for _, g in self.basis:
            out[g] += 1
        return out

    def is_commutative(self):
        for i, (a, _) in enumerate(self.basis):
            for b, _g in self.basis[i + 1:]:
                if la.bracket(a, b):
                    return False
        return True

    def _span(self):
        dim = self.rep.dimension
        return la.span([la.flatten(m, dim) for m, _ in self.basis], dim**2)

    def contains(self, matrix):
        return la.flatten(matrix, self.rep.dimension) in self._span()

    def is_closed_under_product(self):
        dim = self.rep.dimension
        span = self._span()
        for a, _ in self.basis:
            for b, _g in self.basis:
                if la.flatten(la.mat_mul(a, b), dim) not in span:
                    return False
        return True


def commutant(rep):
    """Joint commutant of the lifted powers e, e^2, ..., e^n, graded.

    Solved grade by grade: unknowns are matrix entries (u, v) with
    floor(u) - floor(v) equal to the grade; [T, lift(e^j)] = 0 rows.
    """
    dim = rep.dimension
    basis = []
    for g, pairs, sols in la.graded_commutant(rep.e_std_lifts, rep.floors):
        if sols and g < 0:
            raise InternalConsistencyError(
                f"commutant element at negative grade {g}"
            )
        for vec in sols:
            m = {}
            for (u, v), x in zip(pairs, vec):
                if x:
                    m.setdefault(u, {})[v] = x
            basis.append((m, g))
    comm = GradedCommutant(rep=rep, basis=basis)
    if comm.dimension != dim:
        raise InternalConsistencyError(
            f"commutant dimension {comm.dimension} != dim V = {dim}"
        )
    return comm


def check_bijection(rep, comm):
    """Evaluation at the lowest vector is bijective and maps grade i into
    floor i."""
    dim = rep.dimension
    low = rep.lowest_index
    columns = []
    for m, g in comm.basis:
        vec = {r: row[low] for r, row in m.items() if low in row}
        if any(rep.floors[r] != g for r in vec):
            return False
        columns.append(vec)
    return la.rank(columns, dim) == dim


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
    return comm.dimension - la.rank(rows, comm.dimension)


def lefschetz_check(comm):
    """Multiplication by the grade-1 triple element e is injective on the
    lower half of the grading and surjective on the upper half."""
    rep = comm.rep
    e = rep.e_matrix
    if not comm.contains(e):
        raise InternalConsistencyError("e is not in the commutant")
    top = rep.top_floor
    dim = rep.dimension
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
        target = la.span([la.flatten(m, dim) for m in dst], dim**2)
        if any(img not in target for img in images):
            raise InternalConsistencyError("product left the expected grade")
        r = la.rank(images, dim**2)
        if i <= (top - 1) // 2 and r != len(src):
            return False
        if i >= top // 2 and r != len(dst):
            return False
    return True


def e_power_projections(rep):
    """e^n applied to the lowest vector hits every weight line on floor n."""
    vec = {rep.lowest_index: 1}
    for step in range(1, rep.top_floor + 1):
        vec = la.mat_vec(rep.e_matrix, vec)
        for b, floor in enumerate(rep.floors):
            if floor == step and b not in vec:
                return False
    return True


def a_invariants_dimension(rep):
    """Dimension of the joint kernel of the lifted nilpotent powers."""
    rows = []
    for em in rep.e_std_lifts:
        rows.extend(em.values())
    return rep.dimension - la.rank(rows, rep.dimension)
