"""Formal characters of irreducible highest-weight modules.

Multiplicities come from Freudenthal's recursion run on dominant weights
only and extended W-invariantly.  On top of that sit the weight-system
predicates (wmf / minuscule / small), tensor-square decomposition by
the Brauer-Klimyk rule, floor profiles and principal-string data.
"""

from __future__ import annotations

from functools import cache

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


def dominant_multiplicities(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Map dominant mu -> m_lam^mu, in order of decreasing height.

    The dominant weights of V_lam are reached from lam by subtracting
    positive roots and keeping only dominant results (Stembridge, 1998);
    mu - alpha is dominant iff mu_j >= w_j wherever the weight coordinate
    w_j of alpha is positive, so only those tuples are built.  Each weight
    carries the simple-root coordinates ``gap`` of lam - mu.

    Freudenthal's recursion runs on them in integers, one root string per
    orbit of the stabilizer W_mu (Moody and Patera, Bull. AMS 7, 1982):
    the sum over alpha > 0 of S(alpha) = sum_k m(mu + k alpha)
    (mu + k alpha, alpha) is constant on each W_mu-orbit of roots, so twice
    it is sum_O c_O S(beta_O) over the weighted representatives of
    ``rs.stabilizer_root_orbits``.  With e_i the symmetrizer, (nu, alpha)
    for alpha = sum n_i alpha_i is proportional to sum n_i e_i nu_i, and
    (lam+rho)^2 - (mu+rho)^2 to sum gap_i e_i (lam_i + mu_i + 2), with the
    same factor.  The per-root tables are ``rs.freudenthal_tables``, built
    once per root system.  Dominance and the dimension budget are checked
    on every call, before the memo (``_freudenthal``, per (rs, lam)) is
    read, so that a memo hit meets the same budget as the first call.
    """
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    dim = rs.weyl_dimension(lam)
    if dim > dim_budget:
        raise ResourceBudgetError("character dimension", dim, dim_budget)
    return _freudenthal(rs, lam)


@cache
def _freudenthal(rs, lam):
    steps, strings = rs.freudenthal_tables
    gaps = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        new = []
        for mu in frontier:
            gap = gaps[mu]
            for r, w, raised in steps:
                for j, wj in raised:
                    if mu[j] < wj:
                        break
                else:
                    nu = tuple(m - a for m, a in zip(mu, w))
                    if nu not in gaps:
                        gaps[nu] = tuple(g + n for g, n in zip(gap, r))
                        new.append(nu)
        frontier = new

    sym = rs.symmetrizer
    rep = cache(rs.dominant_representative)  # for this call only
    mult = {lam: 1}
    for mu in sorted(gaps, key=lambda mu: (sum(gaps[mu]), mu)):
        if mu == lam:
            continue
        acc = 0
        for i, c in rs.stabilizer_root_orbits(mu):
            w, ne = strings[i]
            s = 0
            nu = tuple(m + a for m, a in zip(mu, w))
            while (m_nu := mult.get(rep(nu))):
                s += m_nu * sum(e * x for e, x in zip(ne, nu))
                nu = tuple(x + a for x, a in zip(nu, w))
            acc += c * s
        denom = sum(
            g * e * (l + m + 2)
            for g, e, l, m in zip(gaps[mu], sym, lam, mu)
        )
        val, rem = divmod(acc, denom)
        if rem or val <= 0:
            raise InternalConsistencyError(
                f"Freudenthal multiplicity {acc}/{denom} of {mu} in {lam}"
            )
        mult[mu] = val

    total = sum(m * rs.orbit_size(mu) for mu, m in mult.items())
    if total != (dim := rs.weyl_dimension(lam)):
        raise InternalConsistencyError(
            f"character mass {total} != Weyl dimension {dim} for {lam}"
        )
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
    return list(dominant_multiplicities(rs, lam, dim_budget))


def is_wmf(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """True iff every weight multiplicity of V_lam equals 1."""
    dom = dominant_multiplicities(rs, lam, dim_budget)
    return all(m == 1 for m in dom.values())


def minuscule_by_pairing(rs, lam):
    """(lam, alpha^vee) <= 1 for all positive roots; cheap criterion.
    Each pairing is <lam+rho, gamma^vee> minus the coroot height."""
    return rs.is_dominant(lam) and all(
        p - h <= 1 for p, h in zip(rs.rho_pairings(lam), rs.coroot_heights)
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


def is_small(rs, lam):
    """True iff no doubled root is a weight of V_lam (lam must lie in Q).

    A dominant mu is a weight iff lam - mu lies in Q+ (Humphreys, 21.3),
    and the dominant doubled roots are 2 alpha, alpha a dominant root."""
    lam = tuple(lam)
    coords = rs.root_lattice_coords(lam)
    if coords is None:
        raise DomainError(f"smallness is defined for weights in Q; {lam} is not")
    if not rs.is_dominant(lam):
        raise DomainError(f"{lam} is not dominant")
    return all(min(c - 2 * n for c, n in zip(coords, r)) < 0 for r, w in
               zip(rs.positive_roots, rs.positive_root_weights) if min(w) >= 0)


def decompose_tensor_square(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """V_lam (x) V_lam^* as [(nu, c_nu), ...] by the Brauer-Klimyk rule:
    the sum of m_lam(x) det(w) V_{w(lam + rho - x) - rho} over the weights
    x of V_lam, w taking lam + rho - x to the dominant chamber, where a
    point on a wall counts 0 (Humphreys, section 24).  One signed descent
    per weight; only the character of V_lam is computed, so
    ``dim_budget`` bounds the dimension of V_lam.
    """
    lam = tuple(lam)
    coeffs = {}
    for mu, m in dominant_multiplicities(rs, lam, dim_budget).items():
        for x in rs.weyl_orbit(mu):
            y, sign = rs.dominant_descent(
                [l + 1 - a for l, a in zip(lam, x)])  # rho = 1,...,1
            if 0 not in y:  # off every wall
                coeffs[y] = coeffs.get(y, 0) + sign * m
    out = [(tuple(t - 1 for t in y), c) for y, c in coeffs.items() if c]
    for nu, c in out:
        if c < 0 or not rs.in_root_lattice(nu):
            raise InternalConsistencyError(
                f"tensor-square term {c} V{nu} is negative or outside Q")
    dim = rs.weyl_dimension(lam)
    if (mass := sum(c * rs.weyl_dimension(nu) for nu, c in out)) != dim * dim:
        raise InternalConsistencyError(
            f"tensor-square mass {mass} != {dim * dim} for {lam}")
    out.sort(key=lambda t: (-rs.doubled_height(t[0]), t[0]))
    return out


def floor_profile(rs, lam, dim_budget=DEFAULT_DIM_BUDGET):
    """Weight-space dimensions by floor number: coefficient of q^n is the
    total multiplicity at lattice distance n above the lowest weight.

    Sums m_lam(mu) times the orbit-height histogram of each dominant mu,
    so no orbit point is visited twice across calls.
    """
    lam = tuple(lam)
    dom = dominant_multiplicities(rs, lam, dim_budget)
    # floor(x) = (x + lam*, rho^vee); doubled floors are integers and the
    # halving is checked once per orbit height.
    base = rs.doubled_height(rs.dual_weight(lam))
    coeffs = {}
    for mu, m in dom.items():
        for h, n in rs.orbit_heights(mu).items():
            doubled = base + h
            if doubled % 2:
                raise InternalConsistencyError(
                    f"non-integer floor for the orbit of {mu} in {lam}"
                )
            floor = doubled // 2
            coeffs[floor] = coeffs.get(floor, 0) + m * n
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
        doubled = rs.doubled_height(mu)
        if doubled % 2:
            raise DomainError(
                "string decomposition needs all weights in the root lattice; "
                f"weight {mu} sits at half-integral level {doubled}/2"
            )
        levels[doubled // 2] = levels.get(doubled // 2, 0) + m
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
