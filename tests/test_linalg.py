import random

from cliffinv import linalg
from cliffinv.scalars import GF, QQ


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
            got = linalg.kernel(op, ncols, field)
            want = linalg.nullspace(_dense(op, nrows, ncols, field), ncols, field)
            # the same subspace: equal dimension, and together no larger
            if want:
                assert len(got) == len(want) == linalg.rank(got, field) == linalg.rank(got + want, field)
            else:
                assert got == []
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
            got = linalg.column_space_basis(vectors, field)
            assert list(map(id, got)) == list(map(id, _greedy_column_space_basis(vectors, field)))
            assert len(got) == linalg.rank(vectors, field) <= min(span, dim)
    assert linalg.column_space_basis([], QQ) == []
