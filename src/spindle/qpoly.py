"""Exact univariate polynomials in q over arbitrary-precision integers,
plus graded series num / prod(1 - q^{d_i}).

Coefficients are stored densely, index = exponent, with no trailing zeros;
the zero polynomial has an empty coefficient tuple.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import ExactDivisionError


def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class QPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim(list(coeffs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return QPolynomial(())

    @staticmethod
    def one():
        return QPolynomial((1,))

    @staticmethod
    def monomial(exp, coeff=1):
        if coeff == 0:
            return QPolynomial(())
        c = [0] * (exp + 1)
        c[exp] = coeff
        return QPolynomial(c)

    @staticmethod
    def geometric(k, step=1):
        """1 + q^step + ... + q^{(k-1)*step}  (the q-integer [k] when step=1)."""
        c = [0] * ((k - 1) * step + 1) if k > 0 else []
        for i in range(k):
            c[i * step] = 1
        return QPolynomial(c)

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, exp):
        if 0 <= exp < len(self.coeffs):
            return self.coeffs[exp]
        return 0

    def exponents_with_multiplicity(self):
        """Sorted list of exponents, each repeated coefficient-many times.

        Only meaningful for polynomials with nonnegative coefficients.
        """
        out = []
        for e, c in enumerate(self.coeffs):
            if c < 0:
                raise ValueError("negative coefficient has no exponent multiset")
            out.extend([e] * c)
        return out

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return QPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def exact_divide(self, other):
        """Exact quotient in Z[q]; raises ExactDivisionError otherwise."""
        other = _coerce(other)
        if other.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        if self.is_zero():
            return QPolynomial(())
        rem = list(self.coeffs)
        db = other.degree
        lead = other.coeffs[db]
        dq = self.degree - db
        if dq < 0:
            raise ExactDivisionError(f"{self} not divisible by {other}")
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + db]
            if c % lead != 0:
                raise ExactDivisionError(f"{self} not divisible by {other}")
            t = c // lead
            quot[k] = t
            if t:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= t * b
        if any(rem):
            raise ExactDivisionError(f"{self} not divisible by {other}")
        return QPolynomial(quot)

    def shift(self, exp):
        """Multiply by q^exp."""
        if self.is_zero():
            return self
        return QPolynomial([0] * exp + list(self.coeffs))

    def __pow__(self, n):
        acc = QPolynomial.one()
        for _ in range(n):
            acc = acc * self
        return acc

    # -- structure tests -------------------------------------------------

    def is_symmetric(self):
        """a_i == a_{m-i} for all i, m = degree (zero counts as symmetric)."""
        c = self.coeffs
        return all(c[i] == c[len(c) - 1 - i] for i in range(len(c) // 2))

    def is_unimodal(self):
        """Coefficients weakly rise, then weakly fall (plateaus allowed)."""
        c = self.coeffs
        i = 1
        while i < len(c) and c[i - 1] <= c[i]:
            i += 1
        while i < len(c) and c[i - 1] >= c[i]:
            i += 1
        return i >= len(c)

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = _coerce(other)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPolynomial({list(self.coeffs)})"

    def __str__(self):
        return poly_str(self)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {"variable": "q", "coefficients": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj):
        return QPolynomial([int(c) for c in obj["coefficients"]])


def _coerce(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, int):
        return QPolynomial((x,))
    raise TypeError(f"cannot coerce {x!r} to QPolynomial")


def poly_str(p):
    """Canonical expanded string, ascending exponents: '1 + 2*q^2 - q^3'."""
    if p.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if e == 0:
            term = str(abs(c))
        else:
            qpow = "q" if e == 1 else f"q^{e}"
            term = qpow if abs(c) == 1 else f"{abs(c)}*{qpow}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def cyclo_product(numer_exps, denom_exps):
    """Expand prod_i (1 - q^{a_i}) / prod_j (1 - q^{b_j}) exactly, for
    positive exponents.

    Common exponents are cancelled as sorted multisets first.  The rest is
    one pass per factor over one coefficient list c: times (1 - q^a) is
    c[i] -= c[i-a] with i descending, and over (1 - q^b) is c[i] += c[i-b]
    with i ascending, exact when the top b coefficients then vanish.  Each
    denominator is divided out right after a numerator it divides, which
    keeps intermediates small.  Raises ExactDivisionError when the quotient
    is not a polynomial.
    """
    numer = sorted(numer_exps)
    denom = sorted(denom_exps)
    if min(numer + denom, default=1) < 1:
        raise ValueError("cyclo_product needs positive exponents")
    i = j = 0
    keep_n, keep_d = [], []
    while i < len(numer) and j < len(denom):
        if numer[i] == denom[j]:
            i += 1
            j += 1
        elif numer[i] < denom[j]:
            keep_n.append(numer[i])
            i += 1
        else:
            keep_d.append(denom[j])
            j += 1
    keep_n.extend(numer[i:])
    keep_d.extend(denom[j:])

    c = [1]
    for a in keep_n:
        c.extend([0] * a)
        for i in range(len(c) - 1, a - 1, -1):
            c[i] -= c[i - a]
        for k, b in enumerate(keep_d):
            if a % b == 0:
                _divide_cyclo(c, keep_d.pop(k))
                break
    for b in keep_d:
        _divide_cyclo(c, b)
    return QPolynomial(c)


def _divide_cyclo(c, b):
    """c /= (1 - q^b) in place; raises ExactDivisionError if inexact."""
    for i in range(b, len(c)):
        c[i] += c[i - b]
    top = max(len(c) - b, 0)
    if any(c[top:]):
        raise ExactDivisionError(f"quotient not divisible by 1 - q^{b}")
    del c[top:]


def gaussian_binomial(m, n):
    """The q-binomial [m+n over n]: cyclo_product over m+1..m+n / 1..n."""
    if m < 0 or n < 0:
        raise ValueError("gaussian_binomial needs m, n >= 0")
    return cyclo_product(range(m + 1, m + n + 1), range(1, n + 1))


class GradedSeries:
    """Rational form numerator / prod_i (1 - q^{d_i})."""

    __slots__ = ("numerator", "denominator_exponents")

    def __init__(self, numerator, denominator_exponents):
        self.numerator = numerator
        self.denominator_exponents = tuple(sorted(denominator_exponents))

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return series_equal(self, other)

    def __hash__(self):
        raise TypeError("GradedSeries is unhashable (equality is semantic)")

    def __repr__(self):
        return (
            f"GradedSeries({self.numerator!r}, {list(self.denominator_exponents)})"
        )

    def to_json(self):
        obj = self.numerator.to_json()
        obj["denominator_exponents"] = list(self.denominator_exponents)
        return obj

    @staticmethod
    def from_json(obj):
        return GradedSeries(
            QPolynomial.from_json(obj), obj["denominator_exponents"]
        )


def series_equal(s1, s2):
    """Cross-multiplied equality of the two rational functions."""
    lhs = s1.numerator
    for d in s2.denominator_exponents:
        lhs = lhs * (QPolynomial.one() - QPolynomial.monomial(d))
    rhs = s2.numerator
    for d in s1.denominator_exponents:
        rhs = rhs * (QPolynomial.one() - QPolynomial.monomial(d))
    return lhs == rhs


# ---------------------------------------------------------------------------
# Human-readable factored output.
#
# Every polynomial that is a product of geometric blocks
# 1 + q^s + ... + q^{(k-1)s} factors into cyclotomics; we recover the blocks
# greedily from the cyclotomic multiset and fall back to the expanded form.
# ---------------------------------------------------------------------------


def cyclotomic(d):
    """The cyclotomic polynomial Phi_d, memoized."""
    return _cyclotomic(d)


@cache
def _cyclotomic(d):
    """(q^d - 1) divided by Phi_e for every proper divisor e of d."""
    num = QPolynomial.monomial(d) - 1
    for e in range(1, d):
        if d % e == 0:
            num = num.exact_divide(_cyclotomic(e))
    return num


def _cyclotomic_multiset(p):
    """Return {d: multiplicity} with p = prod Phi_d^{m_d}, or None."""
    if p.is_zero() or p.coefficient(0) != 1:
        return None
    out = {}
    for d in range(p.degree, 0, -1):
        phi = cyclotomic(d)
        while phi.degree <= p.degree:
            try:
                p = p.exact_divide(phi)
            except ExactDivisionError:
                break
            out[d] = out.get(d, 0) + 1
    if p != QPolynomial.one():
        return None
    return out


def factored_blocks(p):
    """Factor p into geometric blocks [(k, step), ...] meaning
    1 + q^step + ... + q^{(k-1)step}, or return None if p is not such a
    product.  Blocks are sorted by (step*(k-1), step).
    """
    if p == QPolynomial.one():
        return []
    ms = _cyclotomic_multiset(p)
    if ms is None:
        return None
    blocks = []
    while ms:
        d = max(ms)
        # A geometric block of length k and step s with sk = d*t ... we only
        # try blocks whose cyclotomic support is exactly the divisors of s*k
        # not dividing s, scanning s ascending so the longest block wins.
        chosen = None
        for s in sorted(x for x in range(1, d) if d % x == 0):
            k = d // s
            need = [e for e in _divisors(s * k) if s % e != 0]
            if all(ms.get(e, 0) >= 1 for e in need):
                chosen = (k, s, need)
                break
        if chosen is None:
            return None
        k, s, need = chosen
        for e in need:
            ms[e] -= 1
            if ms[e] == 0:
                del ms[e]
        blocks.append((k, s))
    blocks.sort(key=lambda ks: ((ks[0] - 1) * ks[1], ks[1]))
    return blocks


def _divisors(n):
    out = []
    for i in range(1, int(math.isqrt(n)) + 1):
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
    return sorted(out)


def factored_str(p):
    """Factored display when p is a product of geometric blocks, else the
    expanded canonical string.  A single block prints expanded.
    """
    blocks = factored_blocks(p)
    if blocks is None or len(blocks) <= 1:
        return poly_str(p)
    parts = [
        "(" + poly_str(QPolynomial.geometric(k, s)) + ")" for k, s in blocks
    ]
    return "".join(parts)
