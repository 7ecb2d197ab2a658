"""q-analogues: the q-counting of positive-root decompositions, Lusztig
q-multiplicities by alternating Weyl sums, parabolic Poincare factors
t_lam(q), jump polynomials of End-type modules, and the graded series of
the g- and t-endomorphism algebras.
"""

from __future__ import annotations

from math import prod
from operator import add

from . import budget
from . import characters as ch
from .errors import (
    DomainError, InternalConsistencyError, UsageError, count_text)
from .qpoly import GradedSeries, QPolynomial, cyclo_product
from .rootsystem import checked_weight

# the routes of a jump polynomial: the closed q-power form on a wmf weight
# and the alternating sum elsewhere, the sum alone, the closed form alone
METHODS = ("auto", "weyl", "closed")


def _box_table(rs, top, width):
    """q-Kostant partition function on the box [0, top], row-major.

    P(nu) has coefficient of q^k equal to the number of ways to write nu
    (simple-root coordinates) as a sum of exactly k positive roots.  Each
    cell packs its polynomial into one int with ``width``-bit slots (width
    0 gives P(nu)(1)).  One in-place pass per positive root alpha_i fills
    P_i(nu) = P_{i+1}(nu) + q P_i(nu - alpha_i); ascending order makes
    P_i(nu - alpha_i) final when it is read.
    """
    dims = [t + 1 for t in top]
    strides = [prod(dims[k + 1:]) for k in range(len(dims))]
    table = [0] * prod(dims)
    table[0] = 1
    for alpha in rs.positive_roots:
        if any(a > t for a, t in zip(alpha, top)):
            continue
        offset = sum(a * s for a, s in zip(alpha, strides))
        cells = [0]
        for a, d, s in zip(alpha, dims, strides):
            cells = [c + j for c in cells for j in range(a * s, d * s, s)]
        for i in cells:
            table[i] += table[i - offset] << width
    return table, strides


def _kostant_cells(rs, top, points=0):
    """Function nu -> coefficient list of P_q(nu), for nu in [0, top].

    P(top)(1) bounds every coefficient in the box (adding simple roots
    embeds the partitions of nu into those of top), so slots of its bit
    length never carry.  ``points`` plus the cells of the box, then
    ``points`` plus the 64-bit words of the packed cells, must fit in the
    ``weyl`` limit; the first is charged before any table is allocated.
    """
    cells = prod(t + 1 for t in top)
    budget.charge("weyl", "Kostant partition table", points + cells,
                  f"{points} points + {count_text(cells)} cells")
    counts = _box_table(rs, top, 0)[0]
    width = counts[-1].bit_length()
    words = -(-width * (sum(top) + 1) // 64)
    budget.charge("weyl", "Kostant partition table",
                  points + len(counts) * words,
                  f"{points} points + {len(counts)} cells of {words} words")
    table, strides = _box_table(rs, top, width)
    mask = (1 << width) - 1

    def cell(nu):
        x = table[sum(n * s for n, s in zip(nu, strides))]
        return [(x >> (k * width)) & mask for k in range(sum(nu) + 1)]

    return cell


def kostant_partition_q(rs, nu):
    """P_q(nu) for nu in simple-root coordinates."""
    nu = checked_weight(nu, rs.rank, dominant=False)
    if any(x < 0 for x in nu):
        return QPolynomial.zero()
    return QPolynomial(_kostant_cells(rs, nu)(nu))


def lusztig_q_multiplicity(rs, lam, mu):
    """Alternating Weyl sum of P_q over w(lam+rho) - mu - rho.

    Only the Weyl alternation set contributes; it is walked pruned, and
    its terms are read from one Kostant table over the box [0, lam - mu].
    The ``weyl`` limit bounds walk points plus table cells, and walk
    points plus the 64-bit words of the packed table.  Asserts the classical
    properties: nonnegative coefficients, support iff mu is a weight of
    V_lam, degree (lam-mu, rho^vee).
    """
    lam, mu = (checked_weight(w, rs.rank) for w in (lam, mu))
    acc = QPolynomial.zero()
    if (gap := rs.gap(lam, mu)) is not None:
        points = rs.alternation_walk(tuple(l + 1 for l in lam), gap)
        cell = _kostant_cells(rs, gap, len(points))
        coeffs = [0] * (sum(gap) + 1)
        for nu, sign in points:
            for k, c in enumerate(cell(nu)):
                coeffs[k] += sign * c
        acc = QPolynomial(coeffs)
    if any(c < 0 for c in acc.coeffs):
        raise InternalConsistencyError(
            f"negative coefficient in q-multiplicity for {lam}, {mu}")
    if not acc.is_zero() and acc.degree != sum(gap):
        raise InternalConsistencyError(
            f"q-multiplicity degree {acc.degree} != height {sum(gap)}")
    return acc


def t_poly(rs, lam):
    """Length generating polynomial of the stabilizer W_lam:
    prod_i (1 - q^{d_i(W_lam)}) / (1 - q)."""
    degs = rs.parabolic_degrees(checked_weight(lam, rs.rank))
    return cyclo_product(degs, [1] * rs.rank)


def parabolic_quotient(rs, lam):
    """t_0/t_lam, the length generating polynomial of the minimal coset
    representatives of W/W_lam: prod_i (1 - q^{d_i}) / (1 - q^{d_i(W_lam)})
    over the degrees of W and of W_lam, with no division of polynomials."""
    return cyclo_product(rs.degrees, rs.parabolic_degrees(lam))


def kostant_t0_factorization(rs):
    """t_0 as the height-shift product over the positive roots."""
    return cyclo_product(
        [h + 1 for h in rs.root_heights], list(rs.root_heights)
    )


def generalized_exponents(rs, lam):
    """Sorted exponent multiset of the zero-weight q-multiplicity."""
    lam = checked_weight(lam, rs.rank)
    if not rs.in_root_lattice(lam):
        raise DomainError(
            f"{lam} is outside the root lattice; no covariants exist")
    m0 = lusztig_q_multiplicity(rs, lam, (0,) * rs.rank)
    return m0.exponents_with_multiplicity()


def _q_mult_fn(rs, lam, method):
    """Choose between the alternating sum and the wmf q-power shortcut."""
    if method not in METHODS:
        raise UsageError(f"method {method!r} is not one of "
                         f"{', '.join(METHODS)}")
    wmf = ch.is_wmf(rs, lam)
    if method == "weyl" or (method == "auto" and not wmf):
        return lambda nu: lusztig_q_multiplicity(rs, lam, nu)
    if not wmf:
        raise DomainError(
            f"the closed form needs a weight-multiplicity-free highest "
            f"weight; {lam} is not"
        )

    def power(nu):  # q^(lam - nu, rho^vee), the sum of the gap
        if (gap := rs.gap(lam, nu)) is None:
            raise InternalConsistencyError(f"{nu} is not below {lam}")
        return QPolynomial.monomial(sum(gap))

    return power


def _sum(polys):
    """The sum of QPolynomials, added into one coefficient list."""
    out = []
    for p in polys:
        c = p.coeffs
        out.extend([0] * (len(c) - len(out)))
        out[:len(c)] = map(add, out, c)
    return QPolynomial(out)


def jump_tensor(rs, lam, mu, method="auto"):
    """Jump polynomial of V_lam (x) V_mu^*: the t_0/t_nu-weighted sum of
    products of q-multiplicities over the shared dominant weights.  For
    mu = lam each q-multiplicity is evaluated once and squared."""
    lam, mu = (checked_weight(w, rs.rank) for w in (lam, mu))
    f_lam = _q_mult_fn(rs, lam, method)
    if mu == lam:
        f_mu = mu_support = None
    else:
        f_mu = _q_mult_fn(rs, mu, method)
        mu_support = set(ch.dominant_weights(rs, mu))

    def term(nu):
        m = f_lam(nu)
        ratio = parabolic_quotient(rs, nu)
        return m * (m if f_mu is None else f_mu(nu)) * ratio

    return _sum(term(nu) for nu in ch.dominant_weights(rs, lam)
                if mu_support is None or nu in mu_support)


def f_lambda(rs, lam, method="auto"):
    """Jump polynomial of End V_lam, ``jump_tensor(rs, lam, lam, method)``.

    Under "auto" a wmf weight takes the closed q-power form, and the
    alternating-sum route is run as well and must agree; "weyl" runs the
    sum alone and "closed" the closed form alone, which raises DomainError
    off wmf.  Degree and value-at-1 laws are asserted.
    """
    lam = checked_weight(lam, rs.rank)
    result = jump_tensor(rs, lam, lam, method=method)
    if method == "auto" and ch.is_wmf(rs, lam):
        if jump_tensor(rs, lam, lam, method="weyl") != result:
            raise InternalConsistencyError(
                f"closed form and Weyl sum disagree for {lam}"
            )
    if any(lam):
        expected_deg = rs.doubled_height(lam)
        if result.degree != expected_deg:
            raise InternalConsistencyError(
                f"deg F = {result.degree}, expected {expected_deg} for {lam}"
            )
    dom = ch.dominant_multiplicities(rs, lam)
    expected_mass = sum(m * m * rs.orbit_size(mu) for mu, m in dom.items())
    if result(1) != expected_mass:
        raise InternalConsistencyError(
            f"F(1) = {result(1)}, expected {expected_mass} for {lam}"
        )
    return result


def poincare_cg(rs, lam, method="auto"):
    """Graded series of the algebra of invariant matrix-valued polynomial
    maps on the Lie algebra (numerator = jump polynomial of End V_lam)."""
    return GradedSeries(jump_tensor(rs, lam, lam, method=method), rs.degrees)


def poincare_ct(rs, lam):
    """Graded series of the Cartan counterpart: numerator is the plain sum
    of t_0/t_nu over the dominant weights of V_lam."""
    return GradedSeries(_sum(parabolic_quotient(rs, nu)
                             for nu in ch.dominant_weights(rs, lam)),
                        rs.degrees)
