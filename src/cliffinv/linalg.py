"""Exact linear algebra over any of the package's fields.

Elements only need +, -, *, /, unary -, and truthiness for a zero test,
so the same routines serve Fractions, prime fields, quadratic fields and
rational function fields.  Matrices are lists of lists, row major.
A linear map, an operator on a monomial basis or an algebra morphism,
is a column map {col: {row: coeff}}, with zero coefficients and empty
columns dropped, so that equal maps are equal dicts; `combine` and
`compose` act on these, and `kernel` solves one through
`nullspace_sparse`, so a signed permutation needs no elimination.
"""

from __future__ import annotations


def identity(n, field):
    one, zero = field.one(), field.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def matmul(a, b, field):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    zero = field.zero()
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if not c:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j]:
                    oi[j] = oi[j] + c * bt[j]
    return out


def matvec(a, v, field):
    zero = field.zero()
    out = []
    for row in a:
        acc = zero
        for c, x in zip(row, v):
            if c and x:
                acc = acc + c * x
        out.append(acc)
    return out


def _eliminate(rows, ncols, field):
    """In-place Gaussian elimination over the field.

    Returns (pivots, rank) where pivots maps pivot column -> row index.
    Rows are reduced (pivot entries one, cleared above and below).
    """
    one = field.one()
    pivots = {}
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != one:
            inv = one / piv
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    return pivots, r


def rank(a, field):
    if not a:
        return 0
    rows = [list(r) for r in a]
    _, rk = _eliminate(rows, len(a[0]), field)
    return rk


def det(a, field):
    n = len(a)
    if n == 0:
        return field.one()
    m = [list(r) for r in a]
    sign = field.one()
    acc = field.one()
    for c in range(n):
        pr = None
        for i in range(c, n):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            return field.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        acc = acc * piv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / piv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return acc * sign


def inverse(a, field):
    n = len(a)
    rows = [list(r) + row_id for r, row_id in zip(a, identity(n, field))]
    pivots, rk = _eliminate(rows, n, field)
    if rk != n:
        raise ZeroDivisionError("matrix not invertible")
    return [rows[pivots[c]][n:] for c in range(n)]


def solve(a, b, field):
    """One solution x of a x = b, or None if inconsistent."""
    n = len(a)
    m = len(a[0]) if a else 0
    rows = [list(r) + [bv] for r, bv in zip(a, b)]
    pivots, _ = _eliminate(rows, m, field)
    for row in rows:
        if row[-1] and not any(row[:-1]):
            return None
    x = [field.zero()] * m
    for c, r in pivots.items():
        x[c] = rows[r][-1]
    return x


def nullspace(a, ncols, field):
    """Basis of the right kernel of a (list of length-ncols vectors)."""
    rows = [list(r) for r in a]
    pivots, _ = _eliminate(rows, ncols, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    one = field.one()
    zero = field.zero()
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for c, r in pivots.items():
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis


def nullspace_sparse(rows, ncols, field):
    """Right kernel from rows given as {col: coeff} dicts.

    Propagates singleton rows first, which makes the near-diagonal
    commutator systems from structure algebras cheap, then falls back to
    ordinary elimination on whatever is left.
    """
    forced_zero = set()
    work = [dict(r) for r in rows if r]
    changed = True
    while changed:
        changed = False
        rest = []
        for r in work:
            live = {c: v for c, v in r.items() if c not in forced_zero and v}
            if not live:
                continue
            if len(live) == 1:
                forced_zero.add(next(iter(live)))
                changed = True
            else:
                rest.append(live)
        work = rest
    keep = [c for c in range(ncols) if c not in forced_zero]
    if not keep:
        return []
    pos = {c: j for j, c in enumerate(keep)}
    dense = []
    zero = field.zero()
    for r in work:
        row = [zero] * len(keep)
        for c, v in r.items():
            row[pos[c]] = v
        dense.append(row)
    small = nullspace(dense, len(keep), field) if dense else [
        [field.one() if j == i else zero for j in range(len(keep))] for i in range(len(keep))
    ]
    out = []
    for v in small:
        full = [zero] * ncols
        for j, c in enumerate(keep):
            full[c] = v[j]
        out.append(full)
    return out


def kernel(op, ncols, field):
    """Basis of the kernel of the column map op on columns 0..ncols-1.

    The rows of op, {row: {col: coeff}}, go to `nullspace_sparse`.
    """
    rows = {}
    for col, terms in op.items():
        for row, v in terms.items():
            rows.setdefault(row, {})[col] = v
    return nullspace_sparse(rows.values(), ncols, field)


def independent(ops, field):
    """Are the column maps linearly independent?  Each is read as the
    vector of its entries, keyed (row, col)."""
    entries = {i: {(row, col): v for col, terms in op.items() for row, v in terms.items()}
               for i, op in enumerate(ops)}
    return not kernel(entries, len(ops), field)


def _pruned(op):
    """The column map op without zero coefficients and empty columns."""
    out = {}
    for col, terms in op.items():
        terms = {row: v for row, v in terms.items() if v}
        if terms:
            out[col] = terms
    return out


def combine(coeffs, ops):
    """sum c * op over the pairs, for column maps."""
    out = {}
    for c, op in zip(coeffs, ops):
        if not c:
            continue
        for col, terms in op.items():
            acc = out.setdefault(col, {})
            for row, v in terms.items():
                acc[row] = acc[row] + c * v if row in acc else c * v
    return _pruned(out)


def compose(a, b):
    """The column map of a after b: each term of a column of b is
    replaced by the matching column of a."""
    out = {}
    for col, terms in b.items():
        acc = out[col] = {}
        for k, v in terms.items():
            for row, w in a.get(k, {}).items():
                acc[row] = acc[row] + w * v if row in acc else w * v
    return _pruned(out)


def column_space_basis(vectors, field):
    """Subset of the given vectors forming a basis of their span."""
    chosen = []
    rows = []
    pivots = {}
    ncols = len(vectors[0]) if vectors else 0
    for v in vectors:
        row = list(v)
        for c, r in pivots.items():
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, rows[r])]
        pc = next((c for c in range(ncols) if row[c]), None)
        if pc is None:
            continue
        inv = field.one() / row[pc]
        row = [x * inv for x in row]
        pivots[pc] = len(rows)
        rows.append(row)
        chosen.append(v)
    return chosen
