"""Formal characters of irreducible highest-weight modules.

Multiplicities come from Freudenthal's recursion run on dominant weights
only and extended W-invariantly.  On top of that sit the weight-system
predicates (wmf / minuscule / small), tensor-square decomposition by
highest-weight stripping, floor profiles and principal-string data.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .errors import (
    DomainError,
    InternalConsistencyError,
    ResourceBudgetError,
)
from .qpoly import QPolynomial

DEFAULT_DIM_BUDGET = 10**6


class WeightCharacter:
    """Finite map weight -> positive multiplicity, W-invariant."""

    __slots__ = ("entries", "highest_weight", "root_system")

    def __init__(self, entries, highest_weight=None, root_system=None):
        self.entries = dict(entries)
        self.highest_weight = highest_weight
        self.root_system = root_system

    @property
    def dimension(self):
        return sum(self.entries.values())

    def dual(self):
        return WeightCharacter(
            {tuple(-x for x in mu): m for mu, m in self.entries.items()},
            root_system=self.root_system,
        )

    def product(self, other):
        out = {}
        for mu, a in self.entries.items():
            for nu, b in other.entries.items():
                key = tuple(x + y for x, y in zip(mu, nu))
                out[key] = out.get(key, 0) + a * b
        return WeightCharacter(out, root_system=self.root_system)

    def to_json(self):
        items = sorted(self.entries.items())
        return [[list(mu), m] for mu, m in items]


def _weight_system(rs, lam):
    """All weights of V_lam: BFS from lam subtracting simple roots, pruned
    to the convex hull of W*lam (dominant representative <= lam).

    The root coordinates of lam - mu (the "gap") are integers and are
    tracked incrementally, including through the dominance reduction, so
    the hull test needs no rational arithmetic.
    """
    lam = tuple(lam)
    rank = rs.rank
    cartan = rs.cartan_matrix
    seen = {lam}
    frontier = [(lam, (0,) * rank)]
    while frontier:
        new = []
        for mu, gap in frontier:
            for j in range(rank):
                row = cartan[j]
                child = tuple(m - row[k] for k, m in enumerate(mu))
                if child in seen:
                    continue
                cgap = list(gap)
                cgap[j] += 1
                # reduce child to dominance; each reflection at a negative
                # coordinate c_j shifts the gap by c_j in slot j
                red = list(child)
                rgap = list(cgap)
                while True:
                    neg = next((k for k, m in enumerate(red) if m < 0), None)
                    if neg is None:
                        break
                    c = red[neg]
                    rgap[neg] += c
                    rrow = cartan[neg]
                    for k in range(rank):
                        red[k] -= c * rrow[k]
                if all(x >= 0 for x in rgap):
                    seen.add(child)
                    new.append((child, tuple(cgap)))
        frontier = new
    return seen


_char_lock = threading.Lock()
_char_memo = {}


def dominant_multiplicities(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Map dominant mu -> m_lam^mu via Freudenthal's recursion.

    Memoized per (type, rank, lam); fills are idempotent so the memo is
    safe under concurrent use.
    """
    lam = tuple(lam)
    key = (rs.type_letter, rs.rank, lam)
    with _char_lock:
        cached = _char_memo.get(key)
    if cached is not None:
        return cached

    if not rs.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    dim = rs.weyl_dimension(lam)
    if dim > dim_budget:
        raise ResourceBudgetError("character dimension", dim, dim_budget)

    weights = _weight_system(rs, lam)
    dominants = sorted(
        (mu for mu in weights if rs.is_dominant(mu)),
        key=lambda mu: (-rs.height(mu), mu),
    )
    # (nu, alpha) = d_alpha * (nu, alpha^vee) with d_alpha = (alpha,alpha)/2,
    # so the orbit walk below stays in integer arithmetic per step.
    pos_roots = []
    for i, r in enumerate(rs.positive_roots):
        w = rs.root_to_weight_coords(r)
        cr = rs.positive_coroots[i]
        d_a = rs.inner(w, w) / 2
        pos_roots.append((w, cr, d_a))
    rho = (1,) * rs.rank
    lam_rho = tuple(l + 1 for l in lam)
    norm_top = rs.inner(lam_rho, lam_rho)

    mult = {lam: 1}
    for mu in dominants:
        if mu == lam:
            continue
        acc = Fraction(0)
        for alpha, coroot, d_a in pos_roots:
            pair_sum = 0
            k = 1
            while True:
                nu = tuple(m + k * a for m, a in zip(mu, alpha))
                nu_dom = rs.dominant_representative(nu)
                m_nu = mult.get(nu_dom)
                if m_nu is None:
                    break
                pair_sum += m_nu * sum(
                    n * c for n, c in zip(nu, coroot)
                )
                k += 1
            if pair_sum:
                acc += 2 * d_a * pair_sum
        mu_rho = tuple(m + 1 for m in mu)
        denom = norm_top - rs.inner(mu_rho, mu_rho)
        val = acc / denom
        if val.denominator != 1 or val <= 0:
            raise InternalConsistencyError(
                f"Freudenthal multiplicity {val} of {mu} in {lam}"
            )
        mult[mu] = int(val)

    total = sum(m * rs.orbit_size(mu) for mu, m in mult.items())
    if total != dim:
        raise InternalConsistencyError(
            f"character mass {total} != Weyl dimension {dim} for {lam}"
        )
    with _char_lock:
        _char_memo.setdefault(key, mult)
    return mult


def irreducible_character(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Full W-invariant character of V_lam."""
    lam = tuple(lam)
    dom = dominant_multiplicities(rs, lam, dim_budget)
    entries = {}
    for mu, m in dom.items():
        for w in rs.weyl_orbit(mu):
            entries[w] = m
    return WeightCharacter(entries, highest_weight=lam, root_system=rs)


def dominant_weights(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Dominant mu with m_lam^mu > 0, ordered by decreasing height."""
    dom = dominant_multiplicities(rs, lam, dim_budget)
    return sorted(dom, key=lambda mu: (-rs.height(mu), mu))


def is_wmf(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """True iff every weight multiplicity of V_lam equals 1."""
    dom = dominant_multiplicities(rs, lam, dim_budget)
    return all(m == 1 for m in dom.values())


def minuscule_by_pairing(rs, lam):
    """(lam, alpha^vee) <= 1 for all positive roots; cheap criterion."""
    return rs.is_dominant(lam) and all(
        rs.pairing(lam, i) <= 1 for i in range(len(rs.positive_roots))
    )


def is_minuscule(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Minuscule test; evaluates both the pairing criterion and the
    single-orbit criterion and insists they agree."""
    by_pairing = minuscule_by_pairing(rs, lam)
    lam = tuple(lam)
    single_orbit = dominant_weights(rs, lam, dim_budget) == [lam]
    if by_pairing != single_orbit:
        raise InternalConsistencyError(
            f"minuscule criteria disagree on {lam}: "
            f"pairing={by_pairing}, single-orbit={single_orbit}"
        )
    return by_pairing


def is_small(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """True iff no doubled root is a weight of V_lam (lam must lie in Q)."""
    lam = tuple(lam)
    if not rs.in_root_lattice(lam):
        raise DomainError(f"smallness is defined for weights in Q; {lam} is not")
    dom = dominant_multiplicities(rs, lam, dim_budget)
    for r in rs.positive_roots:
        doubled = tuple(2 * x for x in rs.root_to_weight_coords(r))
        if rs.dominant_representative(doubled) in dom:
            return False
    return True


def decompose_tensor_square(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """V_lam (x) V_lam^* as [(nu, c_nu), ...] by highest-weight stripping."""
    lam = tuple(lam)
    dim = rs.weyl_dimension(lam)
    if dim * dim > dim_budget:
        raise ResourceBudgetError("tensor square dimension", dim * dim, dim_budget)
    char = irreducible_character(rs, lam, dim_budget)
    remaining = char.product(char.dual()).entries
    out = []
    while remaining:
        nu = max(remaining, key=lambda mu: (rs.height(mu), mu))
        c = remaining[nu]
        if c < 0 or not rs.is_dominant(nu):
            raise InternalConsistencyError(
                f"stripping produced invalid leading term {nu} -> {c}"
            )
        if not rs.in_root_lattice(nu):
            raise InternalConsistencyError(
                f"tensor-square constituent {nu} outside the root lattice"
            )
        piece = irreducible_character(rs, nu, dim_budget)
        for mu, m in piece.entries.items():
            val = remaining.get(mu, 0) - c * m
            if val < 0:
                raise InternalConsistencyError(
                    f"negative multiplicity at {mu} while stripping {nu}"
                )
            if val:
                remaining[mu] = val
            else:
                remaining.pop(mu, None)
        out.append((nu, c))
    out.sort(key=lambda t: (-rs.height(t[0]), t[0]))
    return out


def floor_profile(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Weight-space dimensions by floor number: coefficient of q^n is the
    total multiplicity at lattice distance n above the lowest weight."""
    lam = tuple(lam)
    char = irreducible_character(rs, lam, dim_budget)
    lam_star = rs.dual_weight(lam)
    # floor(mu) = (mu + lam*, rho^vee); 2*(varpi_i, rho^vee) is an integer,
    # so doubled floors stay integral and the halving is checked once per
    # weight.
    two_k = [int(2 * k) for k in rs._rho_check]
    base = sum(l * t for l, t in zip(lam_star, two_k))
    coeffs = {}
    for mu, m in char.entries.items():
        doubled = base + sum(c * t for c, t in zip(mu, two_k))
        if doubled % 2:
            raise InternalConsistencyError(
                f"non-integer floor for weight {mu} of {lam}"
            )
        floor = doubled // 2
        coeffs[floor] = coeffs.get(floor, 0) + m
    top = max(coeffs)
    return QPolynomial([coeffs.get(i, 0) for i in range(top + 1)])


def string_decomposition(char):
    """Jump polynomial of a character: coefficient of q^i counts principal
    strings topping out at level i.

    Levels are (mu, rho^vee); every weight of the input must sit on the
    integer grid (characters of V_lam with lam in Q, or End-type characters).
    """
    rs = char.root_system
    if rs is None:
        raise ValueError("character has no root system attached")
    levels = {}
    for mu, m in char.entries.items():
        h = Fraction(rs.height(mu))
        if h.denominator != 1:
            raise DomainError(
                "string decomposition needs all weights in the root lattice; "
                f"weight {mu} sits at half-integral level {h}"
            )
        levels[int(h)] = levels.get(int(h), 0) + m
    top = max(levels)
    if any(levels.get(j, 0) != levels.get(-j, 0) for j in range(top + 1)):
        raise DomainError("level profile is not symmetric; not a character")
    tops = []
    for i in range(top + 1):
        t = levels.get(i, 0) - levels.get(i + 1, 0)
        if t < 0:
            raise DomainError(
                f"negative string count at level {i}; not a genuine character"
            )
        tops.append(t)
    return QPolynomial(tops)
