"""Exact linear algebra over the integers, fraction-free.

Every number here is an ``int``.  One elimination kernel: ``RowSpace``,
an incremental reduced row echelon basis of sparse primitive integer rows
``{column: int}``, each positive in its pivot column (its leftmost
nonzero column) and 0 in every other pivot column.  A row is reduced by
r <- a*r - r[p]*b against the basis row b of pivot p, a = b[p] (Bareiss's
integer-preserving elimination).  ``rank`` and ``nullspace`` (one
primitive integer vector per free column, positive there and 0 in the
other free columns) read a ``RowSpace``, so they do not depend on the row
order.

A matrix is sparse: ``{row: {col: value}}``, with no stored zeros and
no empty rows, so equal matrices are equal dicts.  A vector is
``{index: value}`` in the same way.  Rows handed to the kernel may be
dense sequences or sparse dicts of integers; ``nullspace`` returns dense
lists.
"""

from __future__ import annotations

from math import gcd, lcm


def _subtract(r, f, b):
    """r -= f * b on sparse rows, dropping the entries that become 0."""
    for c, x in b.items():
        v = r.get(c, 0) - f * x
        if v:
            r[c] = v
        else:
            del r[c]


def _eliminate(r, b, p):
    """Clear column p of r by r <- a*r - f*b, a/f = b[p]/r[p] reduced."""
    g = gcd(b[p], r[p])
    a, f = b[p] // g, r[p] // g
    if a != 1:
        for c in r:
            r[c] *= a
    _subtract(r, f, b)


def _primitive(r):
    """r divided by the gcd of its entries, with a positive leading entry."""
    g = gcd(*r.values()) if r[min(r)] > 0 else -gcd(*r.values())
    return {c: x // g for c, x in r.items()}


class RowSpace:
    """Subspace of Q^n, kept as its reduced echelon integer basis."""

    def __init__(self):
        self._rows = {}  # pivot column -> basis row

    def __len__(self):
        return len(self._rows)

    def _reduce(self, row):
        """A multiple of the remainder of row after clearing every pivot."""
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        r = {c: x for c, x in entries if x}
        # Clearing one pivot column writes only to non-pivot columns.
        for p in self._rows.keys() & r.keys():
            _eliminate(r, self._rows[p], p)
        return r

    def __contains__(self, row):
        return not self._reduce(row)

    def add(self, row):
        """Extend the basis by row; True iff row was not in the span."""
        r = self._reduce(row)
        if not r:
            return False
        r = _primitive(r)
        p = min(r)
        for q, b in self._rows.items():
            if p in b:
                _eliminate(b, r, p)
                self._rows[q] = _primitive(b)
        self._rows[p] = r
        return True

    def basis(self):
        """The primitive basis rows, in pivot order."""
        return [self._rows[p] for p in sorted(self._rows)]


def span(rows):
    """The RowSpace spanned by rows."""
    space = RowSpace()
    for row in rows:
        space.add(row)
    return space


def scaled_inverse(rows):
    """(N, N * M^-1) for an invertible integer M, N the least common
    denominator of M^-1: row p of the basis of [M | I] is primitive, with
    d_p in column p and d_p times row p of M^-1 on the right."""
    n = len(rows)
    basis = span([list(r) + [int(i == j) for j in range(n)]
                  for i, r in enumerate(rows)])._rows
    den = lcm(*(basis[p][p] for p in range(n)))
    return den, tuple(tuple(basis[p].get(n + j, 0) * (den // basis[p][p])
                            for j in range(n)) for p in range(n))


def rank(rows):
    return len(span(rows))


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0}, one vector per free column.

    Each basis vector is a primitive integer vector with a positive entry
    in its free column and a 0 in every other free column, giving a
    deterministic, duplicate-free basis.
    """
    reduced = span(rows)._rows
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        pcs = [pc for pc, row in reduced.items() if fc in row]
        den = lcm(*(reduced[pc][pc] for pc in pcs))
        v = [0] * ncols
        v[fc] = den
        for pc in pcs:
            v[pc] = -reduced[pc][fc] * den // reduced[pc][pc]
        g = gcd(*v)
        basis.append([x // g for x in v])
    return basis


def graded_commutant(ops, levels):
    """Solve [T, op] = 0 for every op in ops, one grade at a time.

    The unknowns of grade g are the entries T[u][v] with
    levels[u] - levels[v] = g, listed in ``pairs``.  Yields
    (g, pairs, basis) for each grade in increasing order, where basis is a
    nullspace basis of coefficient vectors over ``pairs``.
    """
    by_level = {}
    for v, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(v)
    cols = [transpose(op) for op in ops]
    for g in sorted({a - b for a in by_level for b in by_level}):
        pairs = [
            (u, v) for u, lv in enumerate(levels)
            for v in by_level.get(lv - g, ())
        ]
        rows = {}
        for k, (op, op_cols) in enumerate(zip(ops, cols)):
            for t, (u, v) in enumerate(pairs):
                # (T op)[u][q] gets op[v][q]; (op T)[p][v] gets op[p][u]
                for q, x in op.get(v, {}).items():
                    row = rows.setdefault((k, u, q), {})
                    row[t] = row.get(t, 0) + x
                for p, x in op_cols.get(u, {}).items():
                    row = rows.setdefault((k, p, v), {})
                    row[t] = row.get(t, 0) - x
        yield g, pairs, nullspace(rows.values(), len(pairs))


def coefficient_rows(mats):
    """Rows of the system sum_k x_k mats[k] = 0 in the unknowns x_k: one
    sparse row {k: mats[k][p][q]} per entry (p, q) nonzero in some mats[k]."""
    rows = {}
    for k, m in enumerate(mats):
        for p, row in m.items():
            for q, x in row.items():
                rows.setdefault((p, q), {})[k] = x
    return list(rows.values())


def transpose(a):
    out = {}
    for i, row in a.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def combination(terms):
    """The sparse matrix sum of c * m over the (c, m) in terms."""
    out = {}
    for c, m in terms:
        for i, row in m.items():
            _subtract(out.setdefault(i, {}), -c, row)
    return {i: row for i, row in out.items() if row}


def _row_product(row, b):
    """The vector row @ b, possibly holding zeros."""
    out = {}
    for t, x in row.items():
        for j, y in b.get(t, {}).items():
            out[j] = out.get(j, 0) + x * y
    return out


def _nonzero(row):
    return {j: x for j, x in row.items() if x}


def mat_mul(a, b):
    out = {}
    for i, row in a.items():
        r = _nonzero(_row_product(row, b))
        if r:
            out[i] = r
    return out


def mat_vec(a, v):
    out = {}
    for i, row in a.items():
        x = sum(y * v[c] for c, y in row.items() if c in v)
        if x:
            out[i] = x
    return out


def bracket(a, b):
    """The commutator ab - ba."""
    out = {}
    for i in sorted(a.keys() | b.keys()):
        r = _row_product(a.get(i, {}), b)
        for j, y in _row_product(b.get(i, {}), a).items():
            r[j] = r.get(j, 0) - y
        r = _nonzero(r)
        if r:
            out[i] = r
    return out


def flatten(a, ncols):
    """Row-major vector of a matrix with ncols columns."""
    return {i * ncols + j: x for i, row in a.items() for j, x in row.items()}
