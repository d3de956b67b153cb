"""Seeded random field elements and regular forms, the ideal-valued forms
of arith, and dense matrix references, for the tests."""

from fractions import Fraction

from cliffinv import linalg
from cliffinv.dedekind import FracIdeal, QuadOrder, hyperbolic_ideal_form
from cliffinv.forms import DiagonalForm, QuadraticForm
from cliffinv.polys import Poly
from cliffinv.scalars import PrimeField, QuadElement, QuadraticNumberField, RationalFunctionField


def random_nonzero(field, rng, lo=-9, hi=9):
    """A nonzero element: an integer in lo..hi over Q, that plus b sqrt(d)
    with b in -2..2 over Q(sqrt(d)), a residue over F_p, and over F(t) a
    polynomial of degree <= 2 with coefficients in -5..5."""
    if isinstance(field, PrimeField):
        return field.from_int(rng.randint(1, field.p - 1))
    while True:
        if isinstance(field, RationalFunctionField):
            deg = rng.randint(0, 2)
            p = Poly([field.base.from_int(rng.randint(-5, 5)) for _ in range(deg + 1)], field.base)
            if not p.is_zero():
                return field.from_poly(p)
        elif isinstance(field, QuadraticNumberField):
            x = QuadElement(rng.randint(lo, hi), rng.randint(-2, 2), field.d)
            if x:
                return x
        else:
            n = rng.randint(lo, hi)
            if n:
                return Fraction(n)


def random_regular_diagonal(rng, field, rank: int) -> DiagonalForm:
    return DiagonalForm(tuple(random_nonzero(field, rng) for _ in range(rank)), field)


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


def arith_ideals(order: QuadOrder):
    """O, p2, p2^-1 and p3 of Z[sqrt(-5)], the coefficient ideals of arith."""
    k = order.field
    p2 = FracIdeal.from_generators(order, [k.from_int(2), order.element(1, 1)])
    p3 = FracIdeal.from_generators(order, [k.from_int(3), order.element(-1, 1)])
    return order.one_ideal(), p2, p2.inverse(), p3


def arith_forms():
    """The 32 rank-4 hyperbolic forms of arith: 16 coefficient pairs, value O or p2."""
    o = QuadOrder(-5)
    ideals = arith_ideals(o)
    return [hyperbolic_ideal_form(o, [a, b], v) for a in ideals for b in ideals for v in ideals[:2]]


def matmul(a, b, field):
    """The dense product a b of row-major matrices."""
    return [
        [sum((x * y for x, y in zip(row, col) if x and y), field.zero()) for col in zip(*b)]
        for row in a
    ]


def inverse(a, field):
    """The inverse of an invertible square matrix, one solved column at a time."""
    cols = [linalg.solve(a, e, field) for e in linalg.identity(len(a), field)]
    return [list(row) for row in zip(*cols)]


def left_mult_matrix(alg, x):
    """The matrix of y -> x y on the basis of a StructureAlgebra."""
    cols = [alg.mul(x, alg.basis_vec(j)) for j in range(alg.dim)]
    return [list(row) for row in zip(*cols)]
