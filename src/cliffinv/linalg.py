"""Exact linear algebra over any of the package's fields.

Elements only need +, -, *, /, unary -, and truthiness for a zero test,
so the same routines serve Fractions, prime fields, quadratic fields and
rational function fields.  Matrices are lists of lists, row major.
There is one elimination, `_echelon`, a row reduction on sparse rows
{col: coeff} without zeros; `rank`, `det`, `solve`, the kernels and
`column_space_basis` read their answers off its pivot rows, and dense
rows become sparse rows on entry.  A linear map, an operator on a
monomial basis or an algebra morphism, is a column map
{col: {row: coeff}}, with zero coefficients and empty columns dropped,
so that equal maps are equal dicts; `combine` and `compose` act on
these, and `kernel` reduces the rows of one.
"""

from __future__ import annotations


def identity(n, field):
    one, zero = field.one(), field.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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


def _clear(row, c, prow):
    """Subtract from the sparse row the multiple of prow, the pivot row of
    column c, that clears column c.  The entry at c is dropped, not
    computed, so a singleton pivot row costs no field operation."""
    v = row.pop(c)
    if len(prow) == 1:
        return
    f = v / prow[c]
    for k, w in prow.items():
        if k == c:
            continue
        x = row[k] - f * w if k in row else -(f * w)
        if x:
            row[k] = x
        else:
            del row[k]


def _echelon(rows):
    """The one row reduction: {pivot column: pivot row}, in the order the
    rows produced them.

    Rows are {col: coeff} dicts without zeros.  Each is cleared at the
    pivot columns found so far; a nonzero rest becomes the pivot row of
    its least column and is cleared from the earlier pivot rows.  Pivot
    rows are unscaled and zero at every other pivot column, and the pivot
    columns are the least columns of an echelon basis of the row space.
    """
    piv = {}
    for r in rows:
        row = dict(r)
        for c in row.keys() & piv.keys():
            _clear(row, c, piv[c])
        if row:
            c = min(row)
            for p in piv.values():
                if c in p:
                    _clear(p, c, row)
            piv[c] = row
    return piv


def _sparse(a):
    """Dense rows as {col: coeff} rows without zeros."""
    return ({c: x for c, x in enumerate(r) if x} for r in a)


def rank(a):
    return len(_echelon(_sparse(a)))


def det(a, field):
    """Product of the pivots, signed by the inversions of their columns."""
    piv = _echelon(_sparse(a))
    if len(piv) < len(a):
        return field.zero()
    cols = list(piv)
    acc = field.one()
    for c in cols:
        acc = acc * piv[c][c]
    inversions = sum(d < c for i, c in enumerate(cols) for d in cols[i + 1 :])
    return -acc if inversions % 2 else acc


def solve(a, b, field):
    """One solution x of a x = b, or None if inconsistent."""
    m = len(a[0]) if a else 0
    piv = _echelon(_sparse(list(r) + [bv] for r, bv in zip(a, b)))
    if m in piv:
        return None
    x = [field.zero()] * m
    for c, row in piv.items():
        if m in row:
            x[c] = row[m] / row[c]
    return x


def nullspace(a, ncols, field):
    """Basis of the right kernel of a (list of length-ncols vectors)."""
    return nullspace_sparse(_sparse(a), ncols, field)


def nullspace_sparse(rows, ncols, field):
    """Right kernel from rows given as {col: coeff} dicts without zeros:
    one vector per free column, one there and zero at the other free
    columns."""
    piv = _echelon(rows)
    zero = field.zero()
    kern = {f: {f: field.one()} for f in range(ncols) if f not in piv}
    for c, row in piv.items():
        for f, x in row.items():
            if f != c:
                kern[f][c] = -(x / row[c])
    return [[v.get(j, zero) for j in range(ncols)] for v in kern.values()]


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


def column_space_basis(vectors):
    """The vectors outside the span of those before them, a basis of the
    span: the pivot columns of the matrix whose columns are the vectors."""
    return [vectors[c] for c in sorted(_echelon(_sparse(zip(*vectors))))]
