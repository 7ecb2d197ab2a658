"""Exact construction of irreducible highest-weight modules from the
Cartan matrix alone, and the jump polynomial computed directly from the
module: graded dimensions of the joint kernel of the centralizer of a
regular nilpotent element.

This is the matrix-level oracle for the q-multiplicity identities: it
never touches the alternating Weyl sum, so agreement between the two is a
genuine two-algorithm check.

The construction builds the module level by level.  Level-k vectors are
f_i-images of level-(k-1) basis vectors; linear relations among them are
detected through their e_j-images, because in an irreducible module a
vector of weight below the highest killed by every raising operator is
zero.  Everything is exact over Q.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla as la
from .characters import DEFAULT_DIM_BUDGET
from .errors import DomainError, InternalConsistencyError, ResourceBudgetError
from .qpoly import QPolynomial


class HighestWeightModule:
    """V_lam with exact matrices for the simple raising and lowering
    operators; basis vectors carry definite weights."""

    def __init__(self, rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
        lam = tuple(lam)
        if not rs.is_dominant(lam):
            raise DomainError(f"{lam} is not dominant")
        expected = rs.weyl_dimension(lam)
        if expected > dim_budget:
            raise ResourceBudgetError("module dimension", expected, dim_budget)
        self.rs = rs
        self.lam = lam
        self.weights = [lam]
        rank = rs.rank
        cartan = rs.cartan_matrix
        # column dicts: op_cols[i][col] = {row: coeff}
        e_cols = [dict() for _ in range(rank)]
        f_cols = [dict() for _ in range(rank)]

        prev = [0]
        while prev:
            candidates = []
            for gb in prev:
                wb = self.weights[gb]
                for i in range(rank):
                    mu = tuple(
                        wb[k] - cartan[i][k] for k in range(rank)
                    )
                    imgs = []
                    for j in range(rank):
                        img = {}
                        for gb2, c in e_cols[j].get(gb, {}).items():
                            for r, c2 in f_cols[i].get(gb2, {}).items():
                                img[r] = img.get(r, Fraction(0)) + c * c2
                        if i == j:
                            img[gb] = img.get(gb, Fraction(0)) + wb[j]
                        imgs.append({r: v for r, v in img.items() if v})
                    candidates.append((i, gb, mu, imgs))
            groups = {}
            for cand in candidates:
                groups.setdefault(cand[2], []).append(cand)
            new_indices = []
            for mu in sorted(groups):
                group = groups[mu]
                coords = sorted({
                    (j, r)
                    for cand in group
                    for j, img in enumerate(cand[3])
                    for r in img
                })
                m = [
                    [group[c][3][j].get(r, Fraction(0))
                     for c in range(len(group))]
                    for (j, r) in coords
                ]
                red, pivots = la.rref(m, len(group))
                new_of_pivot = []
                for c_pos in pivots:
                    i, gb, _, imgs = group[c_pos]
                    gb_new = len(self.weights)
                    self.weights.append(mu)
                    new_indices.append(gb_new)
                    new_of_pivot.append(gb_new)
                    f_cols[i][gb] = {gb_new: Fraction(1)}
                    for j in range(rank):
                        if imgs[j]:
                            e_cols[j][gb_new] = imgs[j]
                pivot_set = set(pivots)
                for c_pos, (i, gb, _, _) in enumerate(group):
                    if c_pos in pivot_set:
                        continue
                    expr = {}
                    for r, gb_new in enumerate(new_of_pivot):
                        if red[r][c_pos]:
                            expr[gb_new] = red[r][c_pos]
                    f_cols[i][gb] = expr
            prev = new_indices

        if len(self.weights) != expected:
            raise InternalConsistencyError(
                f"module construction for {lam} gave dimension "
                f"{len(self.weights)}, Weyl formula says {expected}"
            )
        self.dimension = expected
        self._e_cols = e_cols
        self._f_cols = f_cols

    def _dense(self, cols):
        n = self.dimension
        m = [[Fraction(0)] * n for _ in range(n)]
        for col, entries in cols.items():
            for row, v in entries.items():
                m[row][col] = v
        return m

    def raising_matrix(self, i):
        return self._dense(self._e_cols[i])

    def lowering_matrix(self, i):
        return self._dense(self._f_cols[i])

    def levels(self):
        """hot(mu) per basis vector, as exact fractions."""
        return [self.rs.height(w) for w in self.weights]


def _nilradical_span(module):
    """Bracket closure of the simple raising operators: the image of the
    positive nilradical, each element homogeneous of definite height."""
    rank = module.rs.rank
    simple = [module.raising_matrix(i) for i in range(rank)]
    span = [(1, m) for m in simple]
    space = la.span([la.flatten(m) for m in simple], module.dimension**2)
    frontier = list(span)
    while frontier:
        new = []
        for h, m in frontier:
            for s in simple:
                br = la.bracket(s, m)
                if space.add(la.flatten(br)):
                    span.append((h + 1, br))
                    new.append((h + 1, br))
        frontier = new
    return span


def _nilpotent_centralizer(module):
    """Homogeneous basis of the centralizer of e = sum of simple raising
    operators inside the nilradical image; dimension equals the rank for
    any faithful module."""
    rank = module.rs.rank
    e = module.raising_matrix(0)
    for i in range(1, rank):
        m = module.raising_matrix(i)
        e = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(e, m)]
    by_height = {}
    for h, m in _nilradical_span(module):
        by_height.setdefault(h, []).append(m)
    out = []
    n = module.dimension
    for h in sorted(by_height):
        group = by_height[h]
        comms = [la.bracket(e, m) for m in group]
        rows = []
        for p in range(n):
            for q in range(n):
                row = [comms[k][p][q] for k in range(len(group))]
                if any(row):
                    rows.append(row)
        for vec in la.nullspace(rows, len(group)):
            z = [[Fraction(0)] * n for _ in range(n)]
            for k, c in enumerate(vec):
                if c:
                    for p in range(n):
                        for q in range(n):
                            if group[k][p][q]:
                                z[p][q] += c * group[k][p][q]
            out.append(z)
    if len(out) != rank:
        raise InternalConsistencyError(
            f"nilpotent centralizer has dimension {len(out)}, "
            f"expected the rank {rank}"
        )
    return out


def jump_polynomial(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Jump polynomial of V_lam computed from the module itself: the
    coefficient of q^i is the dimension of the level-i part of the joint
    kernel of the regular nilpotent centralizer.

    Defined for lam in the root lattice (levels must be integers).
    """
    lam = tuple(lam)
    if not rs.in_root_lattice(lam):
        raise DomainError(f"jump polynomial needs {lam} in the root lattice")
    if not any(lam):
        return QPolynomial.one()
    module = HighestWeightModule(rs, lam, dim_budget)
    zs = _nilpotent_centralizer(module)
    levels = module.levels()
    by_level = {}
    for idx, lv in enumerate(levels):
        if Fraction(lv).denominator != 1:
            raise InternalConsistencyError(f"half-integral level for {lam}")
        by_level.setdefault(int(lv), []).append(idx)
    coeffs = {}
    n = module.dimension
    for lv in sorted(by_level):
        cols = by_level[lv]
        rows = []
        for z in zs:
            for p in range(n):
                row = [z[p][c] for c in cols]
                if any(row):
                    rows.append(row)
        k = len(la.nullspace(rows, len(cols)))
        if k:
            if lv < 0:
                raise InternalConsistencyError(
                    f"invariant vector at negative level {lv} for {lam}"
                )
            coeffs[lv] = k
    top = max(coeffs)
    return QPolynomial([coeffs.get(i, 0) for i in range(top + 1)])


def jump_polynomial_end(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Jump polynomial of End V_lam from the module: graded dimensions of
    the commutant of the nilpotent centralizer, graded by level shift."""
    lam = tuple(lam)
    module = HighestWeightModule(rs, lam, dim_budget)
    zs = _nilpotent_centralizer(module)
    levels = [int(2 * lv) for lv in module.levels()]  # doubled: always int
    coeffs = {}
    for g, _, sols in la.graded_commutant(zs, levels):
        if sols:
            if g < 0 or g % 2:
                raise InternalConsistencyError(
                    f"End-module invariant at grade {g}/2 for {lam}"
                )
            coeffs[g // 2] = len(sols)
    top = max(coeffs)
    return QPolynomial([coeffs.get(i, 0) for i in range(top + 1)])
