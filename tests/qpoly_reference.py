"""Reference routes for the polynomial tests: coefficientwise sums,
schoolbook products, graded-series equality by ring-operation
cross-multiplication, schoolbook long division in Z[q] and the
trial-division cyclotomic factoriser that the text display is checked
against.  All are independent of the list passes of ``spindle.qpoly``.
"""

from functools import cache

from spindle.errors import ExactDivisionError
from spindle.qpoly import QPolynomial, poly_str


def add(a, b):
    """a + b, one ``coefficient`` lookup per side and exponent."""
    n = max(len(a.coeffs), len(b.coeffs))
    return QPolynomial([a.coefficient(i) + b.coefficient(i) for i in range(n)])


def sub(a, b):
    """a - b, one ``coefficient`` lookup per side and exponent."""
    n = max(len(a.coeffs), len(b.coeffs))
    return QPolynomial([a.coefficient(i) - b.coefficient(i) for i in range(n)])


def mul(a, b):
    """a * b by the schoolbook double loop over every pair of exponents."""
    if not a.coeffs or not b.coeffs:
        return QPolynomial.zero()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return QPolynomial(out)


def one_minus(d):
    """1 - q^d as a dense polynomial."""
    return QPolynomial([1] + [0] * (d - 1) + [-1])


def series_equal(s1, s2):
    """Each numerator times the other's denominator by generic products
    with the dense 1 - q^d, no exponent cancelled."""
    lhs = s1.numerator
    for d in s2.denominator_exponents:
        lhs = lhs * one_minus(d)
    rhs = s2.numerator
    for d in s1.denominator_exponents:
        rhs = rhs * one_minus(d)
    return lhs == rhs


def long_divide(num, den):
    """Exact quotient num / den in Z[q]; raises ExactDivisionError otherwise."""
    if den.is_zero():
        raise ExactDivisionError("division by zero polynomial")
    if num.is_zero():
        return QPolynomial.zero()
    rem = list(num.coeffs)
    db = den.degree
    lead = den.coeffs[db]
    dq = num.degree - db
    if dq < 0:
        raise ExactDivisionError("degree of the divisor is too large")
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        t, r = divmod(rem[k + db], lead)
        if r:
            raise ExactDivisionError("leading coefficient does not divide")
        quot[k] = t
        for j, b in enumerate(den.coeffs):
            rem[k + j] -= t * b
    if any(rem):
        raise ExactDivisionError("nonzero remainder")
    return QPolynomial(quot)


@cache
def cyclotomic(d):
    """Phi_d: q^d - 1 divided by Phi_e for every proper divisor e of d."""
    num = QPolynomial.monomial(d) - 1
    for e in range(1, d):
        if d % e == 0:
            num = long_divide(num, cyclotomic(e))
    return num


def cyclotomic_multiset(p):
    """{d: m_d} with p = prod Phi_d^{m_d}, d <= deg p, by trial division
    with d descending; None if p is not such a product."""
    if p.is_zero() or p.coefficient(0) != 1:
        return None
    out = {}
    for d in range(p.degree, 0, -1):
        phi = cyclotomic(d)
        while phi.degree <= p.degree:
            try:
                p = long_divide(p, phi)
            except ExactDivisionError:
                break
            out[d] = out.get(d, 0) + 1
    return out if p == QPolynomial.one() else None


def factored_blocks(p):
    """Geometric blocks [(k, step), ...] from the trial-division multiset,
    by the greedy of the display: the largest d left takes the block of
    smallest step whose cyclotomic support is all present."""
    ms = cyclotomic_multiset(p)
    if ms is None:
        return None
    blocks = []
    while ms:
        d = max(ms)
        for s in [x for x in range(1, d) if d % x == 0]:
            need = [e for e in range(1, d + 1) if d % e == 0 and s % e != 0]
            if all(ms.get(e, 0) >= 1 for e in need):
                break
        else:
            return None
        for e in need:
            ms[e] -= 1
            if ms[e] == 0:
                del ms[e]
        blocks.append((d // s, s))
    blocks.sort(key=lambda ks: ((ks[0] - 1) * ks[1], ks[1]))
    return blocks


def factored_str(p):
    """Display string from the reference blocks, as the text format does."""
    blocks = factored_blocks(p)
    if blocks is None or len(blocks) <= 1:
        return poly_str(p)
    return "".join(
        "(" + poly_str(QPolynomial.geometric(k, s)) + ")" for k, s in blocks
    )
