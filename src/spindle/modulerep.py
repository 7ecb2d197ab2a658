"""Exact construction of irreducible highest-weight modules from the
Cartan matrix alone, their principal grading, and the q-multiplicities
m_lam^mu(q) read off a regular nilpotent element e on the module through
the Brylinski-Kostant filtration of each dominant weight space.  The
centralizer z(e) and its commutant are solved in ``endalg``.

This is the matrix-level oracle for the q-multiplicity identities: it
never touches the alternating Weyl sum or a Kostant partition table, so
agreement between the two is a genuine two-algorithm check.

The construction builds the module level by level.  Level-k vectors are
f_i-images of level-(k-1) basis vectors; linear relations among them are
detected through their e_j-images, because in an irreducible module a
vector of weight below the highest killed by every raising operator is
zero.  Everything is exact, and in integers: each operator column is
kept as integer numerators over one denominator.
"""

from __future__ import annotations

from math import gcd, lcm

from . import budget
from . import exactla as la
from .dynkin import dynkin_product
from .errors import DomainError, InternalConsistencyError
from .qpoly import QPolynomial


def _matrix(cols, den):
    """The sparse integer matrix den times the columns (d, num); d | den."""
    return la.transpose({gb: {r: x * (den // d) for r, x in num.items()}
                         for gb, (d, num) in cols.items()})


class HighestWeightModule:
    """V_lam with exact matrices for the simple raising and lowering
    operators; basis vectors carry definite weights.

    With ``depth``, only the levels at most ``depth`` simple roots below
    lam are built: the raising operators are then complete on them, the
    lowering operators are not.  Each level must hold as many vectors as
    the matching coefficient of the Dynkin polynomial, and their number
    is charged to the ``dim`` limit before anything is built.
    """

    def __init__(self, rs, lam, depth=None):
        lam = tuple(lam)
        # vectors per level, top down; a full build ends on an empty level
        sizes = dynkin_product(rs, lam).coeffs + (0,)
        sizes = sizes[:None if depth is None else depth + 1]
        budget.charge("dim", "module dimension", sum(sizes))
        self.rs = rs
        self.lam = lam
        self.weights = [lam]
        rank = rs.rank
        cartan = rs.cartan_matrix
        # Column gb of op_cols[i] is (den, {row: int}): the integer
        # numerators over one positive denominator, in lowest terms for
        # the lowering operators.
        e_cols = [dict() for _ in range(rank)]
        f_cols = [dict() for _ in range(rank)]

        prev = [0]
        for level, size in enumerate(sizes[1:], 1):
            candidates = []
            for gb in prev:
                wb = self.weights[gb]
                for i in range(rank):
                    mu = tuple(wb[k] - cartan[i][k] for k in range(rank))
                    # e_j f_i v_gb for every j, over one common denominator
                    cols = [e_cols[j].get(gb, (1, {})) for j in range(rank)]
                    den = lcm(*(d for d, _ in cols)) * lcm(*(
                        f_cols[i][gb2][0] for _, col in cols for gb2 in col))
                    imgs = []
                    for j, (d_e, e_col) in enumerate(cols):
                        num = {gb: wb[j] * den} if i == j else {}
                        for gb2, c in e_col.items():
                            d_f, f_col = f_cols[i][gb2]
                            c *= den // (d_e * d_f)
                            for r, c2 in f_col.items():
                                num[r] = num.get(r, 0) + c * c2
                        imgs.append({r: x for r, x in num.items() if x})
                    g = gcd(den, *(x for num in imgs for x in num.values()))
                    imgs = [{r: x // g for r, x in num.items()}
                            for num in imgs]
                    candidates.append((i, gb, mu, den // g, imgs))
            groups = {}
            for cand in candidates:
                groups.setdefault(cand[2], []).append(cand)
            new_indices = []
            for mu in sorted(groups):
                group = groups[mu]
                # relations among the candidates: those of their e_j-images,
                # read off the primitive echelon basis of their integer rows
                images = [dict(enumerate(cand[4])) for cand in group]
                basis = la.span(la.coefficient_rows(images)).basis()
                pivots = [min(b) for b in basis]
                new_of_pivot = []
                for c_pos in pivots:
                    i, gb, _, den, imgs = group[c_pos]
                    gb_new = len(self.weights)
                    self.weights.append(mu)
                    new_indices.append(gb_new)
                    new_of_pivot.append(gb_new)
                    f_cols[i][gb] = (1, {gb_new: 1})
                    for j in range(rank):
                        if imgs[j]:
                            e_cols[j][gb_new] = (den, imgs[j])
                pivot_set = set(pivots)
                for c_pos, (i, gb, _, den, _) in enumerate(group):
                    if c_pos in pivot_set:
                        continue
                    # candidate c is the sum, over the basis rows b holding
                    # c, of b[c] den_p / (b[p] den_c) times the new vector
                    # of the pivot p of b, kept over the least denominator
                    terms = [(b[c_pos] * group[p][3], b[p] * den, gb_new)
                             for b, p, gb_new in zip(basis, pivots, new_of_pivot)
                             if c_pos in b]
                    d = lcm(*(q for _, q, _ in terms))
                    num = {gb_new: x * (d // q) for x, q, gb_new in terms}
                    g = gcd(d, *num.values())
                    f_cols[i][gb] = (d // g, {r: x // g for r, x in num.items()})
            if len(new_indices) != size:
                raise InternalConsistencyError(
                    f"module construction for {lam} gave {len(new_indices)} "
                    f"vectors at level {level}, Dynkin polynomial says {size}"
                )
            prev = new_indices
        self.dimension = len(self.weights)
        self._e_cols = e_cols
        self._f_cols = f_cols

    def levels(self):
        """2 hot(mu) per basis vector, as integers."""
        return [self.rs.doubled_height(w) for w in self.weights]

    def floors(self):
        """(level - lowest level) / 2 per basis vector: the grade of the
        principal grading, 0 on the lowest weight."""
        levels = self.levels()
        low = min(levels)
        if any((lv - low) % 2 for lv in levels):
            raise InternalConsistencyError(
                f"levels of {self.lam} not on one parity class")
        return [(lv - low) // 2 for lv in levels]


def scaled_raising(module):
    """The simple raising operators times D, the common denominator of
    their entries: integer matrices with the same brackets up to scale."""
    cols = module._e_cols
    den = lcm(*(d for op in cols for d, _ in op.values()))
    return [_matrix(op, den) for op in cols]


def principal_nilpotent(module):
    """e = D times the sum of the simple raising operators: a regular
    nilpotent, as an integer matrix."""
    return la.combination((1, m) for m in scaled_raising(module))


def filtration_q_multiplicity(rs, lam, mu):
    """m_lam^mu(q) for dominant mu, read off the Brylinski-Kostant
    filtration F_k = ker e^{k+1} on the weight space V_lam(mu): the
    coefficient of q^k is dim F_k / F_{k-1} (Brylinski 1989 under a
    vanishing condition; Joseph, Letzter and Zelikson 2000 for every
    dominant mu).

    dim F_k is dim V_lam(mu) minus the rank of e^{k+1} on it.  Each step
    carries only the primitive basis of e^k V_lam(mu) forward, so the
    entries do not grow with k.  Since e^k V_lam(mu) lies above mu, the
    module is built only down to mu.
    """
    lam, mu = tuple(lam), tuple(mu)
    for w in (lam, mu):
        if not rs.is_dominant(w):
            raise DomainError(f"{w} is not dominant")
    gap = rs.root_lattice_coords(tuple(l - m for l, m in zip(lam, mu)))
    if gap is None or min(gap) < 0:
        return QPolynomial.zero()
    module = HighestWeightModule(rs, lam, depth=sum(gap))
    e_t = la.transpose(principal_nilpotent(module))
    vecs = {c: {c: 1} for c, w in enumerate(module.weights) if w == mu}
    ranks = [len(vecs)]  # the rank of e^k on V_lam(mu), k = 0, 1, ...
    while vecs:
        # vecs is a basis of e^k V_lam(mu), so their images span the next
        images = la.mat_mul(vecs, e_t).values()
        vecs = dict(enumerate(la.span(images).basis()))
        ranks.append(len(vecs))
    return QPolynomial([a - b for a, b in zip(ranks, ranks[1:])])


def jump_polynomial(rs, lam):
    """Jump polynomial of V_lam computed from the module itself: the
    Brylinski-Kostant filtration of the zero weight space.

    Defined for lam in the root lattice.
    """
    lam = tuple(lam)
    if not rs.in_root_lattice(lam):
        raise DomainError(f"jump polynomial needs {lam} in the root lattice")
    return filtration_q_multiplicity(rs, lam, (0,) * rs.rank)
