"""Exact univariate polynomials in q over arbitrary-precision integers,
plus graded series num / prod(1 - q^{d_i}).

Coefficients are stored densely, index = exponent, with no trailing zeros;
the zero polynomial has an empty coefficient tuple.  Products and quotients
by 1 - q^a are one stride pass over one coefficient list.
"""

from __future__ import annotations

import math
from itertools import zip_longest

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
        return QPolynomial([a + b for a, b in zip_longest(
            self.coeffs, _coerce(other).coeffs, fillvalue=0)])

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return QPolynomial([a - b for a, b in zip_longest(
            self.coeffs, _coerce(other).coeffs, fillvalue=0)])

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        x, y = self.coeffs, _coerce(other).coeffs
        if not x or not y:
            return QPolynomial(())
        if y.count(0) == len(y) - 1:
            x, y = y, x
        if x.count(0) == len(x) - 1:
            # x = c q^k: y scaled by c and shifted by k in one pass
            c = x[-1]
            return QPolynomial([0] * (len(x) - 1) + [c * b for b in y])
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            if a == 0:
                continue
            for j, b in enumerate(y):
                if b:
                    out[i + j] += a * b
        return QPolynomial(out)

    __rmul__ = __mul__

    def shift(self, exp):
        """Multiply by q^exp."""
        if self.is_zero():
            return self
        return QPolynomial([0] * exp + list(self.coeffs))

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
    keep_n, keep_d = _cancel_common(numer_exps, denom_exps)
    c = [1]
    for a in keep_n:
        c.extend([0] * a)
        _times_one_minus(c, a)
        for k, b in enumerate(keep_d):
            if a % b == 0:
                _divide_cyclo(c, keep_d.pop(k))
                break
    for b in keep_d:
        _divide_cyclo(c, b)
    return QPolynomial(c)


def cyclo_series(numer_exps, denom_exps, terms):
    """The first ``terms`` coefficients of prod_i (1 - q^{a_i}) /
    prod_j (1 - q^{b_j}) as a power series, for positive exponents: the
    passes of ``cyclo_product`` on a list truncated to ``terms``, so a
    factor of exponent ``terms`` or more costs nothing."""
    keep_n, keep_d = _cancel_common(numer_exps, denom_exps)
    c = [1] + [0] * (terms - 1)
    for b in keep_d:
        _over_one_minus(c, b)
    for a in keep_n:
        _times_one_minus(c, a)
    return c


def _cancel_common(a, b):
    """The sorted exponent multisets a and b, less their common part;
    raises ValueError on an exponent below 1, for which 1 - q^e is no
    cyclotomic factor."""
    a, b = sorted(a), sorted(b)
    if min(a + b, default=1) < 1:
        raise ValueError("(1 - q^e) factors need positive exponents e")
    i = j = 0
    keep_a, keep_b = [], []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] < b[j]:
            keep_a.append(a[i])
            i += 1
        else:
            keep_b.append(b[j])
            j += 1
    keep_a.extend(a[i:])
    keep_b.extend(b[j:])
    return keep_a, keep_b


def _divide_cyclo(c, b):
    """c /= (1 - q^b) in place; raises ExactDivisionError if inexact."""
    _over_one_minus(c, b)
    top = max(len(c) - b, 0)
    if any(c[top:]):
        raise ExactDivisionError(f"quotient not divisible by 1 - q^{b}")
    del c[top:]


def _times_one_minus(c, a):
    """c *= (1 - q^a) in place, truncated to len(c) coefficients."""
    for i in range(len(c) - 1, a - 1, -1):
        c[i] -= c[i - a]


def _over_one_minus(c, b):
    """c /= (1 - q^b) in place as a power series, truncated to len(c)."""
    for i in range(b, len(c)):
        c[i] += c[i - b]


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


def series_equal(s1, s2):
    """Cross-multiplied equality of the two rational functions, after the
    denominator exponents they share are cancelled; raises ValueError on
    an exponent below 1."""
    d1, d2 = _cancel_common(s1.denominator_exponents,
                            s2.denominator_exponents)
    return _times_cyclo(s1.numerator, d2) == _times_cyclo(s2.numerator, d1)


def _times_cyclo(p, exps):
    """The coefficients of p * prod_e (1 - q^e), for positive e.  Each
    factor raises the degree of a nonzero product by e and negates its
    leading coefficient, so no trailing zero appears."""
    c = list(p.coeffs)
    if c:
        for e in exps:
            c.extend([0] * e)
            _times_one_minus(c, e)
    return c


# ---------------------------------------------------------------------------
# Human-readable factored output.
#
# Every polynomial that is a product of geometric blocks
# 1 + q^s + ... + q^{(k-1)s} factors into cyclotomics; we recover the blocks
# greedily from the cyclotomic multiset and fall back to the expanded form.
# ---------------------------------------------------------------------------


def _cyclotomic_multiset(p):
    """Return {d: m_d} with p = prod Phi_d^{m_d} over d <= deg p, or None.

    p is peeled as the power series prod_n (1 - q^n)^{c_n}, n <= D = deg p:
    c_n is minus the coefficient of q^n left after the smaller n, and
    |c_n| stride passes take it out.  A product of Phi_d, d <= D, has
    sum |c_n| <= 2D (tau(d) <= 2 phi(d)), so more passes reject p, and no
    input costs over O(D^2).  1 - q^n = -prod_{d | n} Phi_d gives
    m_d = sum_{d | n} c_n; p is the product iff every m_d >= 0, the degrees
    add up (sum n c_n = D) and p is monic (the sign (-1)^{m_1} is +).
    """
    c = list(p.coeffs)
    if not c or c[0] != 1 or c[-1] != 1:
        return None
    bound = 2 * p.degree
    exps = {}
    for n in range(1, len(c)):
        cn = -c[n]
        if cn == 0:
            continue
        bound -= abs(cn)
        if bound < 0:
            return None
        exps[n] = cn
        step = _over_one_minus if cn > 0 else _times_one_minus
        for _ in range(abs(cn)):
            step(c, n)
    if sum(n * cn for n, cn in exps.items()) != p.degree:
        return None
    out = {}
    for n, cn in exps.items():
        for d in _divisors(n):
            out[d] = out.get(d, 0) + cn
    if any(m < 0 for m in out.values()):
        return None
    return {d: m for d, m in out.items() if m}


def factored_blocks(p):
    """Factor p into geometric blocks [(k, step), ...] meaning
    1 + q^step + ... + q^{(k-1)step}, or return None if p is not such a
    product.  Blocks are sorted by (step*(k-1), step).
    """
    ms = _cyclotomic_multiset(p)
    if ms is None:
        return None
    blocks = []
    while ms:
        d = max(ms)
        # The block of length k and step s, sk = d, is the product of the
        # Phi_e over the divisors e of d not dividing s; steps are tried
        # ascending, so the longest block wins.
        divs = _divisors(d)
        for s in divs[:-1]:
            need = [e for e in divs if s % e]
            if all(e in ms for e in need):
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
