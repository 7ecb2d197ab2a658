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
                # relations among the candidates: those of their e_j-images
                images = [dict(enumerate(cand[3])) for cand in group]
                red, pivots = la.rref(la.coefficient_rows(images), len(group))
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

    def raising_matrix(self, i):
        return la.transpose(self._e_cols[i])

    def lowering_matrix(self, i):
        return la.transpose(self._f_cols[i])

    def levels(self):
        """2 hot(mu) per basis vector, as integers."""
        two_rho_check = self.rs.two_rho_check
        return [
            sum(m * t for m, t in zip(w, two_rho_check)) for w in self.weights
        ]


def _nilradical_span(module):
    """Bracket closure of the simple raising operators: the image of the
    positive nilradical, each element homogeneous of definite height.

    Yields (height, m, [e, m]) per basis element m, where e is the sum of
    the simple raising operators.
    """
    rank = module.rs.rank
    n = module.dimension
    simple = [module.raising_matrix(i) for i in range(rank)]
    space = la.span([la.flatten(m, n) for m in simple], n * n)
    frontier = [(1, m) for m in simple]
    while frontier:
        new = []
        for h, m in frontier:
            brackets = [la.bracket(s, m) for s in simple]
            for br in brackets:
                if space.add(la.flatten(br, n)):
                    new.append((h + 1, br))
            yield h, m, la.combination((1, br) for br in brackets)
        frontier = new


def _nilpotent_centralizer(module):
    """Homogeneous basis of the centralizer of e = sum of simple raising
    operators inside the nilradical image; dimension equals the rank for
    any faithful module."""
    rank = module.rs.rank
    by_height = {}
    for h, m, em in _nilradical_span(module):
        by_height.setdefault(h, []).append((m, em))
    out = []
    for h in sorted(by_height):
        group = by_height[h]
        rows = la.coefficient_rows(em for _, em in group)
        for vec in la.nullspace(rows, len(group)):
            out.append(la.combination(
                (c, m) for c, (m, _) in zip(vec, group) if c
            ))
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
    level_of = []
    for lv in module.levels():
        if lv % 2:
            raise InternalConsistencyError(f"half-integral level for {lam}")
        level_of.append(lv // 2)
    # number the basis vectors of each level within their level
    size = {}
    slot = []
    for lv in level_of:
        slot.append(size.get(lv, 0))
        size[lv] = slot[-1] + 1
    rows = {lv: {} for lv in size}  # level -> (z, p) -> kernel row
    for k, z in enumerate(zs):
        for p, row in z.items():
            for c, x in row.items():
                rows[level_of[c]].setdefault((k, p), {})[slot[c]] = x
    coeffs = {}
    for lv in sorted(size):
        k = len(la.nullspace(rows[lv].values(), size[lv]))
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
    coeffs = {}
    for g, _, sols in la.graded_commutant(zs, module.levels()):
        if sols:
            if g < 0 or g % 2:
                raise InternalConsistencyError(
                    f"End-module invariant at grade {g}/2 for {lam}"
                )
            coeffs[g // 2] = len(sols)
    top = max(coeffs)
    return QPolynomial([coeffs.get(i, 0) for i in range(top + 1)])
