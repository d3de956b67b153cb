"""2-torsion Brauer classes of Q as finite even sets of ramified places."""

from __future__ import annotations

import math
from fractions import Fraction

from .algebras import StructureAlgebra, find_quaternion_basis
from .errors import CliffinvError, SearchExhausted
from .scalars import (
    INFINITY,
    Place,
    hilbert_symbol,
    is_prime,
    legendre,
    squarefree_mul,
    support_places,
)


class BrauerClass2:
    """A finite even set of places; the group law is symmetric difference."""

    __slots__ = ("places",)

    def __init__(self, places):
        ps = frozenset(places)
        if len(ps) % 2:
            raise ValueError("ramification sets have even cardinality")
        object.__setattr__(self, "places", ps)

    @classmethod
    def trivial(cls) -> "BrauerClass2":
        return cls(frozenset())

    @classmethod
    def from_strs(cls, names) -> "BrauerClass2":
        return cls(frozenset(Place.parse(s) for s in names))

    def sorted_places(self):
        return sorted(self.places, key=lambda v: v.sort_key())

    def __add__(self, other: "BrauerClass2") -> "BrauerClass2":
        return BrauerClass2(self.places ^ other.places)

    def __eq__(self, other):
        return isinstance(other, BrauerClass2) and self.places == other.places

    def __hash__(self):
        return hash(self.places)

    def __len__(self):
        return len(self.places)

    def is_trivial(self) -> bool:
        return not self.places

    def __repr__(self):
        return "BrauerClass2({" + ", ".join(str(v) for v in self.sorted_places()) + "})"

    def to_json(self):
        return {"ramified": [str(v) for v in self.sorted_places()]}


def class_of_quaternion(a, b) -> BrauerClass2:
    """Places where (a, b) ramifies, i.e. where the Hilbert symbol is -1."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("nonzero parameters required")
    ram = [v for v in support_places(a, b) if hilbert_symbol(a, b, v) == -1]
    return BrauerClass2(ram)


def index(c: BrauerClass2) -> int:
    """1 for the trivial class, else 2 (period equals index over Q)."""
    return 1 if c.is_trivial() else 2


def quaternion_from_class(c: BrauerClass2, cap: int = 10**4):
    """A quaternion pair (a, b) ramified exactly at the places of c.

    With P the odd primes of c and s = -1 if inf is in c, else 1:
    a = s * prod(P), doubled when 2 is in c and a = 1 mod 8, so that a is
    a square at no place of c; b = s * m, m a product of primes l <= cap
    among 2 and the odd l outside c with (a|l) = 1, chosen by elimination
    over F_2 on the symbols (l|p), p in P, so that (b|p) = -1 on P.  Then
    (a, b) is right at inf, on P, at each odd l ((a|l) = 1) and at the
    other odd primes (units); the product formula settles the place 2,
    as c has even size (Serre, A Course in Arithmetic, III.2.2, Thm 4).
    Raises SearchExhausted when the primes up to cap do not suffice.
    """
    sign = -1 if INFINITY in c.places else 1
    odd = [v.p for v in c.sorted_places() if not v.is_infinite and v.p != 2]
    a = sign * math.prod(odd)
    if Place.finite(2) in c.places and a % 8 == 1:
        a *= 2

    def vector(x):  # bit i is set where (x|p_i) = -1
        return sum(1 << i for i, p in enumerate(odd) if legendre(x, p) == -1)

    basis = {}  # leading bit -> (vector, squarefree product of its primes)

    def reduce(vec, m):
        for lead in sorted(basis, reverse=True):
            if vec >> lead & 1:
                vec, m = vec ^ basis[lead][0], squarefree_mul(m, basis[lead][1])
        return vec, m

    # (b|p) = -1 asks for (m|p) = -(s|p)
    rest, m = vector(sign) ^ ((1 << len(odd)) - 1), 1
    for l in range(2, cap + 1):
        if not rest:
            break
        if l in odd or not is_prime(l) or (l > 2 and legendre(a, l) != 1):
            continue
        vec, ml = reduce(vector(l), l)
        if vec:
            basis[vec.bit_length() - 1] = (vec, ml)
            rest, m = reduce(rest, m)
    if rest:
        raise SearchExhausted(f"quaternion pair for {c!r}", cap)
    a, b = Fraction(a), Fraction(sign * m)
    if class_of_quaternion(a, b) != c:
        raise CliffinvError(f"constructed pair ({a}, {b}) misses {c!r}")
    return a, b


def class_of_algebra(a: StructureAlgebra) -> BrauerClass2:
    """Brauer class of a four-dimensional central simple algebra over Q."""
    alpha, beta, _ = find_quaternion_basis(a)
    return class_of_quaternion(alpha, beta)
