"""Exact rational linear algebra over fractions.Fraction.

One elimination kernel: ``RowSpace``, an incremental reduced row echelon
basis.  Its rows are sparse ``{column: Fraction}`` dicts; each has a 1 in
its pivot column, which is its leftmost nonzero column, and a 0 in every
other pivot column.  ``rref``, ``rank`` and ``nullspace`` read a
``RowSpace`` built from their rows; their results do not depend on the
order of the rows, because the reduced echelon form of a row space is
unique.  ``graded_commutant`` solves the graded commutant equations of
both matrix oracles through ``nullspace``.

Matrices are dense lists of lists.  Rows handed to the kernel may be
dense sequences or sparse dicts.  Everything downstream needs exact ranks
and nullspaces, never numerics.
"""

from __future__ import annotations

from fractions import Fraction


def _subtract(r, f, b):
    """r -= f * b on sparse rows, dropping the entries that become 0."""
    for c, x in b.items():
        v = r.get(c, 0) - f * x
        if v:
            r[c] = v
        else:
            del r[c]


class RowSpace:
    """Subspace of Q^ncols, kept as its reduced row echelon basis."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}  # pivot column -> basis row

    def __len__(self):
        return len(self._rows)

    def _reduce(self, row):
        """The remainder of row after clearing every pivot column."""
        entries = row.items() if isinstance(row, dict) else enumerate(row)
        r = {c: Fraction(x) for c, x in entries if x}
        # Clearing one pivot column writes only to non-pivot columns.
        for p in self._rows.keys() & r.keys():
            _subtract(r, r[p], self._rows[p])
        return r

    def __contains__(self, row):
        return not self._reduce(row)

    def add(self, row):
        """Extend the basis by row; True iff row was not in the span."""
        r = self._reduce(row)
        if not r:
            return False
        p = min(r)
        inv = 1 / r[p]
        r = {c: x * inv for c, x in r.items()}
        for b in self._rows.values():
            if p in b:
                _subtract(b, b[p], r)
        self._rows[p] = r
        return True


def span(rows, ncols):
    """The RowSpace spanned by rows."""
    space = RowSpace(ncols)
    for row in rows:
        space.add(row)
    return space


def rref(rows, ncols=None):
    """Reduced row echelon form; returns (nonzero_rows, pivot_columns)."""
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    basis = span(rows, ncols)._rows
    pivots = sorted(basis)
    red = [[Fraction(0)] * ncols for _ in pivots]
    for row, p in zip(red, pivots):
        for c, x in basis[p].items():
            row[c] = x
    return red, pivots


def rank(rows, ncols=None):
    return len(rref(rows, ncols)[1])


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0}, one vector per free column.

    Each basis vector has a 1 in its free column, giving a deterministic,
    duplicate-free basis.
    """
    reduced = span(rows, ncols)._rows
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in reduced.items():
            v[pc] = -row.get(fc, Fraction(0))
        basis.append(v)
    return basis


def graded_commutant(ops, levels):
    """Solve [T, op] = 0 for every op in ops, one grade at a time.

    The unknowns of grade g are the entries T[u][v] with
    levels[u] - levels[v] = g, listed in ``pairs``.  Yields
    (g, pairs, basis) for each grade in increasing order, where basis is a
    nullspace basis of coefficient vectors over ``pairs``.
    """
    n = len(levels)
    for g in sorted({a - b for a in levels for b in levels}):
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if levels[u] - levels[v] == g
        ]
        rows = {}
        for k, op in enumerate(ops):
            for t, (u, v) in enumerate(pairs):
                # (T op)[u][q] gets op[v][q]; (op T)[p][v] gets op[p][u]
                for q in range(n):
                    if op[v][q]:
                        row = rows.setdefault((k, u, q), {})
                        row[t] = row.get(t, 0) + op[v][q]
                for p in range(n):
                    if op[p][u]:
                        row = rows.setdefault((k, p, v), {})
                        row[t] = row.get(t, 0) - op[p][u]
        yield g, pairs, nullspace(rows.values(), len(pairs))


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    if bt[j]:
                        row[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def bracket(a, b):
    """The commutator ab - ba."""
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def flatten(a):
    return [x for row in a for x in row]
