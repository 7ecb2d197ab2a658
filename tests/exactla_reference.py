"""Reference route for the graded-commutant tests: the op-major solve,
one coefficient row per (op, matrix entry) built operator by operator,
independent of ``spindle.exactla.graded_kernel``.
"""

from spindle.exactla import nullspace, transpose


def graded_commutant(ops, levels):
    """Homogeneous basis [(T, g)] of the T with [T, op] = 0 for every op
    in ops.  The unknowns of grade g are the entries T[u][v] with
    levels[u] - levels[v] = g; each grade's rows are listed op by op."""
    by_level = {}
    for v, lv in enumerate(levels):
        by_level.setdefault(lv, []).append(v)
    cols = [transpose(op) for op in ops]
    basis = []
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
        for vec in nullspace(rows.values(), len(pairs)):
            m = {}
            for (u, v), x in zip(pairs, vec):
                if x:
                    m.setdefault(u, {})[v] = x
            basis.append((m, g))
    return basis
