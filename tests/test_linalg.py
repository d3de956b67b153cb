import random

from cliffinv import linalg
from cliffinv.scalars import GF, QQ, QuadElement, QuadraticNumberField


def _dense(op, nrows, ncols, field):
    out = [[field.zero()] * ncols for _ in range(nrows)]
    for col, terms in op.items():
        for row, v in terms.items():
            out[row][col] = v
    return out


def _random_map(rng, nrows, ncols, field):
    """A seeded column map, some of its columns empty."""
    op = {}
    for col in range(ncols):
        if rng.random() < 0.25:
            continue
        rows = rng.sample(range(nrows), rng.randint(1, nrows))
        terms = {row: field.from_int(rng.randint(-2, 2)) for row in rows}
        terms = {row: v for row, v in terms.items() if v}
        if terms:
            op[col] = terms
    return op


def test_kernel_matches_dense_nullspace():
    rng = random.Random(41)
    for field in (QQ, GF(7)):
        for _ in range(60):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            op = _random_map(rng, nrows, ncols, field)
            assert linalg.kernel(op, ncols, field) == _ref_nullspace(_dense(op, nrows, ncols, field), ncols, field)
        # the zero map: every vector
        assert linalg.kernel({}, 3, field) == linalg.nullspace([], 3, field)
        assert len(linalg.kernel({}, 3, field)) == 3
        # a signed permutation, resolved by singleton rows alone
        perm = {j: {(j * 3) % 7: field.from_int(rng.choice((-1, 1)))} for j in range(7)}
        assert linalg.kernel(perm, 7, field) == []


def test_independent_reads_entries():
    one = QQ.one()
    a = {0: {1: one}, 1: {0: one}}
    b = {0: {0: one}}
    assert linalg.independent([a, b], QQ)
    assert not linalg.independent([a, b, linalg.combine([one, -one], [a, b])], QQ)
    assert not linalg.independent([a, {}], QQ)


def _greedy_column_space_basis(vectors, field):
    """Reference: keep each vector that stays nonzero after reduction
    against the rows kept so far."""
    chosen, rows, pivots = [], [], {}
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
        pivots[pc] = len(rows)
        rows.append([x * inv for x in row])
        chosen.append(v)
    return chosen


def test_column_space_basis_matches_the_greedy_reference():
    rng = random.Random(97)
    for field in (QQ, GF(3), GF(11)):
        for _ in range(80):
            dim, span = rng.randint(1, 7), rng.randint(1, 5)
            gens = [[field.from_int(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(span)]
            # each vector a seeded combination of the generators, so most sets are dependent
            vectors = []
            for _ in range(rng.randint(1, 9)):
                coeffs = [field.from_int(rng.randint(-2, 2)) for _ in gens]
                vectors.append([sum((c * g[i] for c, g in zip(coeffs, gens)), field.zero()) for i in range(dim)])
            got = linalg.column_space_basis(vectors)
            assert list(map(id, got)) == list(map(id, _greedy_column_space_basis(vectors, field)))
            assert len(got) == linalg.rank(vectors) <= min(span, dim)
    assert linalg.column_space_basis([]) == []


# Dense Gauss-Jordan elimination and forward-elimination determinant, the
# references for the one sparse row reduction of linalg.


def _ref_eliminate(rows, ncols, field):
    """In place: pivot entries one, cleared above and below.  Returns
    {pivot column: row index}."""
    one = field.one()
    pivots, r = {}, 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    return pivots


def _ref_rank(a, field):
    return len(_ref_eliminate([list(r) for r in a], len(a[0]), field)) if a else 0


def _ref_solve(a, b, field):
    m = len(a[0]) if a else 0
    rows = [list(r) + [bv] for r, bv in zip(a, b)]
    pivots = _ref_eliminate(rows, m, field)
    if any(row[-1] and not any(row[:-1]) for row in rows):
        return None
    x = [field.zero()] * m
    for c, r in pivots.items():
        x[c] = rows[r][-1]
    return x


def _ref_nullspace(a, ncols, field):
    rows = [list(r) for r in a]
    pivots = _ref_eliminate(rows, ncols, field)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for c, r in pivots.items():
            v[c] = -rows[r][fc]
        basis.append(v)
    return basis


def _ref_det(a, field):
    n = len(a)
    m = [list(r) for r in a]
    sign = acc = field.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return field.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        acc = acc * m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return acc * sign


QSQRT5 = QuadraticNumberField(-5)
FIELDS = (QQ, GF(3), GF(7), QSQRT5)


def _entry(rng, field):
    if rng.random() < 0.4:
        return field.zero()
    if field is QSQRT5:
        return QuadElement(rng.randint(-3, 3), rng.randint(-1, 1), -5)
    return field.from_int(rng.randint(-3, 3))


def _system(rng, field, nrows, ncols):
    """Seeded rows, with zero rows, repeated singleton rows and rows that
    combine earlier ones."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [field.zero()] * ncols
        elif kind < 0.3:
            row = [field.zero()] * ncols
            row[rng.randrange(ncols)] = _entry(rng, field) or field.one()
            rows.append(list(row))  # the singleton row comes twice
        elif kind < 0.45 and rows:
            s, t = rng.choice(rows), rng.choice(rows)
            c = _entry(rng, field)
            row = [x + c * y for x, y in zip(s, t)]
        else:
            row = [_entry(rng, field) for _ in range(ncols)]
        rows.append(row)
    rng.shuffle(rows)
    return rows[:nrows]


def _same(got, want):
    """Exact equality, down to the printed form (and so the type) of
    each entry."""
    assert got == want and repr(got) == repr(want)


def test_one_reduction_matches_the_dense_references_exactly():
    rng = random.Random(2718)
    for field in FIELDS:
        for _ in range(120):
            nrows, ncols = rng.randint(0, 7), rng.randint(1, 7)
            a = _system(rng, field, nrows, ncols)
            _same(linalg.rank(a), _ref_rank(a, field))
            want = _ref_nullspace(a, ncols, field)
            _same(linalg.nullspace(a, ncols, field), want)
            sparse = [{c: x for c, x in enumerate(row) if x} for row in a]
            _same(linalg.nullspace_sparse(sparse, ncols, field), want)
            # a consistent right-hand side, then a seeded one (often inconsistent)
            x = [_entry(rng, field) for _ in range(ncols)]
            for b in (linalg.matvec(a, x, field), [_entry(rng, field) for _ in a]):
                _same(linalg.solve(a, b, field), _ref_solve(a, b, field))
            if a:
                vectors = [list(col) for col in zip(*a)]
                assert linalg.column_space_basis(vectors) == [
                    vectors[c] for c in _ref_eliminate([list(r) for r in a], ncols, field)
                ]


def test_det_matches_the_forward_elimination_exactly():
    rng = random.Random(1414)
    for field in FIELDS:
        _same(linalg.det([], field), _ref_det([], field))
        for _ in range(80):
            n = rng.randint(1, 6)
            a = _system(rng, field, n, n)
            if rng.random() < 0.5:
                a = [[_entry(rng, field) for _ in range(n)] for _ in range(n)]
            d = linalg.det(a, field)
            _same(d, _ref_det(a, field))
            # a row permutation changes the sign by its parity
            perm = list(range(n))
            rng.shuffle(perm)
            parity = sum(perm[j] < perm[i] for i in range(n) for j in range(i + 1, n)) % 2
            permuted = [a[i] for i in perm]
            _same(linalg.det(permuted, field), _ref_det(permuted, field))
            assert linalg.det(permuted, field) == (-d if parity else d)
            if n > 1:  # a repeated row
                singular = a[:-1] + [a[0]]
                _same(linalg.det(singular, field), field.zero())
