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
