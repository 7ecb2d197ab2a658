"""Exact construction of irreducible highest-weight modules from the
Cartan matrix alone, their principal grading, and the q-multiplicities
m_lam^mu(q) read off a regular nilpotent element e on the module through
the Brylinski-Kostant filtration of each dominant weight space.  The
centralizer z(e) and its commutant are solved in ``endalg``.

This is the matrix-level oracle for the q-multiplicity identities: it
never touches the alternating Weyl sum or a Kostant partition table, so
agreement between the two is a genuine two-algorithm check.

The construction builds the module level by level.  Level-k vectors are
f_i-images of level-(k-1) basis vectors.  In an irreducible module a
vector of weight below the highest killed by every raising operator is
zero, so such a vector is determined by its e_j-images: each weight
space takes as basis the vectors whose images are the reduced echelon
basis rows of its candidates' images.  Everything is exact.  The raising
operators are integer matrices by construction; only a lowering column
carries a denominator.
"""

from __future__ import annotations

from math import gcd, lcm

from . import budget
from . import exactla as la
from .dynkin import dynkin_product
from .errors import DomainError, InternalConsistencyError, count_text
from .qpoly import QPolynomial
from .rootsystem import checked_weight


def _images(e_cols, f_col, b, i, wb):
    """(den, img): the images e_j f_i v_b = f_i e_j v_b + [i = j] wb[i] v_b
    of the candidate f_i v_b as the integer row img over its least
    denominator den, row r of block j in column r * rank + j; f_col is
    f_cols[i] and wb the weight of v_b."""
    rank = len(e_cols)
    cols = [(j, c, f_col[r2]) for j, e in enumerate(e_cols)
            for r2, c in e.get(b, {}).items() if r2 in f_col]
    den = lcm(*(d for _, _, (d, _) in cols))
    img = {b * rank + i: wb[i] * den}
    for j, c, (d, num) in cols:
        c *= den // d
        for r, x in num.items():
            key = r * rank + j
            img[key] = img.get(key, 0) + c * x
    g = gcd(den, *img.values())
    return den // g, {key: x // g for key, x in img.items() if x}


def _lowering(den, img, pivots):
    """The column (den', {row: int}) in lowest terms of the candidate with
    images img / den, given (pivot, leading entry, basis vector) of each
    echelon row of its weight space.  The rows are 0 in each other's
    pivot columns, so the coefficient on the basis vector of the row with
    pivot p is img[p] / (den lead)."""
    terms = [(img[p], lead, gb) for p, lead, gb in pivots if p in img]
    scale = lcm(*(lead for _, lead, _ in terms))
    num = {gb: x * (scale // lead) for x, lead, gb in terms}
    g = gcd(den * scale, *num.values())
    return den * scale // g, {gb: x // g for gb, x in num.items()}


_FIRST_PREFIX = 64


class HighestWeightModule:
    """V_lam with exact matrices for the simple raising and lowering
    operators; basis vectors carry definite weights.  Column b of
    ``_e_cols[j]`` is e_j v_b as ``{row: int}``, and column b of
    ``_f_cols[i]`` is f_i v_b as ``(den, {row: int})`` in lowest terms;
    zero columns are not stored.

    With ``depth``, only the levels at most ``depth`` simple roots below
    lam are built: the raising operators are then complete on them, the
    lowering operators are not.  Each level must hold as many vectors as
    the matching coefficient of the Dynkin polynomial, and their number
    is charged to the ``dim`` limit before anything is built.  Only the
    coefficients of the levels built are listed: a whole module is
    charged its Weyl dimension first, and a part of one its number of
    levels, each of which holds a vector.  A part is then listed in
    doubling prefixes from ``_FIRST_PREFIX`` levels, each charged its sum,
    so that a refusal costs at most twice the prefix that shows it.
    """

    def __init__(self, rs, lam, depth=None):
        lam = tuple(lam)
        # vectors per level, top down; a whole module ends on an empty level
        if depth is None or depth > rs.doubled_height(lam):
            budget.charge("dim", "module dimension", rs.weyl_dimension(lam))
            sizes = dynkin_product(rs, lam).coeffs + (0,)
        else:
            budget.charge("dim", "module dimension", depth + 1,
                          f"{count_text(depth + 1)} levels")
            terms = min(_FIRST_PREFIX, depth + 1)
            sizes = dynkin_product(rs, lam, terms).coeffs
            while terms <= depth:
                size = sum(sizes)
                budget.charge("dim", "module dimension", size,
                              f"{count_text(size)} in the first {terms} levels")
                terms = min(2 * terms, depth + 1)
                sizes = dynkin_product(rs, lam, terms).coeffs
            budget.charge("dim", "module dimension", sum(sizes))
        self.rs = rs
        self.lam = lam
        self.weights = [lam]
        rank = rs.rank
        cartan = rs.cartan_matrix
        e_cols = [{} for _ in range(rank)]
        f_cols = [{} for _ in range(rank)]

        prev = [0]
        for level, size in enumerate(sizes[1:], 1):
            groups = {}
            for b in prev:
                wb = self.weights[b]
                for i in range(rank):
                    den, img = _images(e_cols, f_cols[i], b, i, wb)
                    if img:
                        mu = tuple(wb[k] - cartan[i][k] for k in range(rank))
                        groups.setdefault(mu, []).append((i, b, den, img))
            new_indices = []
            for mu, group in sorted(groups.items()):
                # basis vector gb is the vector whose images are row
                pivots = []
                for row in la.span(img for *_, img in group).basis():
                    gb = len(self.weights)
                    self.weights.append(mu)
                    new_indices.append(gb)
                    p = min(row)
                    pivots.append((p, row[p], gb))
                    for key, x in row.items():
                        r, j = divmod(key, rank)
                        e_cols[j].setdefault(gb, {})[r] = x
                for i, b, den, img in group:
                    f_cols[i][b] = _lowering(den, img, pivots)
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


def raising_operators(module):
    """The simple raising operators, as integer matrices."""
    return [la.transpose(cols) for cols in module._e_cols]


def principal_nilpotent(module):
    """e = the sum of the simple raising operators: a regular nilpotent,
    as an integer matrix."""
    return la.combination((1, m) for m in raising_operators(module))


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
    lam, mu = (checked_weight(w, rs.rank) for w in (lam, mu))
    if (gap := rs.gap(lam, mu)) is None:
        return QPolynomial.zero()
    module = HighestWeightModule(rs, lam, depth=sum(gap))
    # the transpose of e, summed from the raising columns
    e_t = la.combination((1, cols) for cols in module._e_cols)
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
    lam = checked_weight(lam, rs.rank)
    if not rs.in_root_lattice(lam):
        raise DomainError(f"jump polynomial needs {lam} in the root lattice")
    return filtration_q_multiplicity(rs, lam, (0,) * rs.rank)
