"""Seeded random regular forms for the tests."""

from cliffinv import linalg
from cliffinv.forms import DiagonalForm, QuadraticForm


def random_regular_diagonal(rng, field, rank: int) -> DiagonalForm:
    return DiagonalForm(tuple(field.random_nonzero(rng) for _ in range(rank)), field)


def random_regular_gram(rng, field, rank: int) -> QuadraticForm:
    """A random regular form, produced as a congruence of a diagonal one."""
    diag = random_regular_diagonal(rng, field, rank)
    n = rank
    while True:
        p = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.det(p, field):
            break
    g = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = field.zero()
            for k in range(n):
                if p[k][i] and p[k][j]:
                    acc = acc + p[k][i] * diag.entries[k] * p[k][j]
            g[i][j] = acc
    return QuadraticForm(tuple(tuple(r) for r in g), field)
