"""Exact scalar arithmetic: Q, F_p, Q(sqrt(d)), and rational function fields.

Every value is exact (arbitrary precision integers underneath); there is
no floating point anywhere in the package.  Field objects bundle the
element constructors with the decision procedures the rest of the
package needs: squareness tests, canonical square roots, square-class
normal forms, and serialisation.

Integer factorisation is trial division up to a bound (default 10**6)
that stops as soon as deterministic Miller-Rabin certifies the cofactor
prime.  A cofactor with no factor up to the bound is kept when it is a
certified prime or the square of one.  Any other raises
FactorBoundExceeded rather than stalling, and so does every such
cofactor of _MR_EXACT_BELOW (about 3.3 * 10**24) or more, where
Miller-Rabin certifies nothing and sympy is never asked.  A square class
over Q is carried as (s, P), s signed squarefree and P its primes, as
Q*/Q*^2 = {+-1} x (+)_p Z/2.  The last 128 factorisations are memoised
by (|n|, bound): the same integers recur across forms, in the quaternion
parameters class_of_quaternion factors, and in the d of each order.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import FactorBoundExceeded, UnsupportedBase
from .polys import Poly

DEFAULT_FACTOR_BOUND = 10**6


def factor_integer(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorisation of |n|, as {prime: exponent}.

    Trial division up to bound, stopping early once is_prime certifies
    the cofactor.  A cofactor with no factor up to bound is kept when it
    is a certified prime or the square of one; any other raises
    FactorBoundExceeded.  Certification is deterministic
    Miller-Rabin, so a cofactor of _MR_EXACT_BELOW or more is never
    certified and raises unless trial division brings it below.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    return dict(_trial_division(abs(n), bound))


# Trial division asks is_prime about its cofactor only from q =
# _CERTIFY_FROM on: below that, trial division is cheaper than a
# Miller-Rabin test, and a cofactor under _CERTIFY_FROM**2 is done by then.
_CERTIFY_FROM = 100


def _certified_prime(n: int) -> bool:
    """is_prime(n), by Miller-Rabin alone: False from _MR_EXACT_BELOW on."""
    return n < _MR_EXACT_BELOW and is_prime(n)


@lru_cache(maxsize=128)
def _trial_division(n: int, bound: int) -> dict[int, int]:
    """Factorisation of n > 0; the cached dict is copied, never handed out."""
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    untested = True  # is_prime has not seen this cofactor
    while q * q <= n and q <= bound:
        if untested and q >= _CERTIFY_FROM:
            if _certified_prime(n):
                out[n] = 1
                return out
            untested = False
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
                untested = True
        q += 6
    if n > 1:
        # n has no prime factor up to bound: at most bound**2, it is prime
        if n <= bound * bound or (untested and _certified_prime(n)):
            out[n] = 1
        else:
            r = math.isqrt(n)
            if r * r != n or not _certified_prime(r):
                raise FactorBoundExceeded(n, bound)
            out[r] = 2
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster 2015); bases 2..37 alone already fail at 318665857834031151167461
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below _MR_EXACT_BELOW, sympy's isprime above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    if n >= _MR_EXACT_BELOW:
        from sympy import isprime

        return bool(isprime(n))
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def squarefree_part(n: int) -> int:
    """The signed squarefree integer representing n modulo nonzero squares."""
    return rational_class(n)[0]


def rational_class(x) -> tuple[int, frozenset]:
    """(s, P) for the nonzero rational x: s the signed squarefree integer in
    its square class, P its primes; a denominator of 1 is not factored."""
    x = Fraction(x)
    if not x:
        raise ValueError("0 has no square class")
    primes = {p for p, e in factor_integer(x.numerator).items() if e % 2}
    if x.denominator != 1:
        primes ^= {p for p, e in factor_integer(x.denominator).items() if e % 2}
    return (-1 if x < 0 else 1) * math.prod(primes), frozenset(primes)


def class_mul(*classes, sign: int = 1) -> tuple[int, frozenset]:
    """sign times the product of classes (s, P): a symmetric difference of sets."""
    primes = frozenset()
    for s, ps in classes:
        sign, primes = -sign if s < 0 else sign, primes ^ ps
    return sign * math.prod(primes), primes


def squarefree_mul(*xs: int) -> int:
    """Signed squarefree part of a product of signed squarefree integers, by gcds."""
    out = 1
    for x in xs:
        g = math.gcd(out, x)
        out = (out // g) * (x // g)
    return out


def isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt(x: Fraction) -> Fraction | None:
    """The nonnegative exact square root of x in Q, or None."""
    if x < 0:
        return None
    rn = isqrt_exact(x.numerator)
    rd = isqrt_exact(x.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod_p(a: int, p: int) -> int | None:
    """Canonical square root of a mod an odd prime p (Tonelli-Shanks).

    Returns the root in [0, p/2], or None for a nonresidue.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, (t * t) % p
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = (r * b) % p
        c = (b * b) % p
        t = (t * c) % p
        m = i
    return min(r, p - r)


# ---------------------------------------------------------------------------
# Places of Q


class Place:
    """A place of Q: a finite prime (2 allowed) or the real place."""

    __slots__ = ("p",)

    def __init__(self, p: int | None):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def sort_key(self):
        return (1, 0) if self.p is None else (0, self.p)

    def __eq__(self, other):
        return isinstance(other, Place) and self.p == other.p

    def __hash__(self):
        return hash(("place", self.p))

    def __repr__(self):
        return f"Place({self.p})"

    def __str__(self):
        # interned: the Brauer keys a caller keeps share one string per place
        return "inf" if self.p is None else sys.intern(str(self.p))

    @classmethod
    def parse(cls, s: str) -> "Place":
        s = s.strip()
        if s in ("inf", "oo", "infinity"):
            return cls.infinity()
        return cls.finite(int(s))


INFINITY = Place.infinity()


def local_class(x, v: Place):
    """A key for the class of the nonzero rational x in Q_v*/Q_v*^2.

    It is read off n = numerator * denominator, an integer in the class
    of x: the sign of n at the real place, else (v_p(n) mod 2, u mod 8)
    at 2 and (v_p(n) mod 2, u^((p-1)/2) mod p) at odd p, u the unit part.
    """
    n = x.numerator * x.denominator
    if not n:
        raise ValueError("0 has no square class")
    p = v.p
    if p is None:
        return -1 if n < 0 else 1
    e = 0
    while n % p == 0:
        n //= p
        e ^= 1
    return e, n % 8 if p == 2 else pow(n, (p - 1) // 2, p)


def local_class_mul(k, l, v: Place):
    """The key at v of the product of the classes with keys k and l."""
    p = v.p
    if p is None:
        return k * l
    return k[0] ^ l[0], k[1] * l[1] % (8 if p == 2 else p)


def hilbert_pairing(k, l, v: Place) -> int:
    """(a, b)_v from the keys k of a and l of b, by the formulas of hilbert_symbol."""
    p = v.p
    if p is None:
        return -1 if k < 0 and l < 0 else 1
    (alpha, u), (beta, w) = k, l
    if p == 2:
        exp = (u - 1) // 2 * ((w - 1) // 2) + alpha * (w * w - 1) // 8 + beta * (u * u - 1) // 8
    else:  # u, w are Euler's criterion: 1 on squares
        exp = alpha * beta * (p - 1) // 2 + beta * (u != 1) + alpha * (w != 1)
    return -1 if exp % 2 else 1


def hilbert_symbol(a, b, v: Place) -> int:
    """Hilbert symbol (a, b)_v for nonzero rationals.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the
    completion at v.  At the real place this is a sign check; at an odd
    prime p with a = p^alpha u, b = p^beta w it is
    (-1)^(alpha beta (p-1)/2) (u|p)^beta (w|p)^alpha; at 2 the exponent
    is eps(u) eps(w) + alpha omega(w) + beta omega(u) with
    eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 taken mod 2.
    """
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    return hilbert_pairing(local_class(a, v), local_class(b, v), v)


def support_places(*values) -> list[Place]:
    """2, infinity and the primes dividing some nonzero rational value to an odd
    power: at any other p every Hilbert symbol and Hasse invariant of them is 1."""
    return places_of(map(rational_class, values))


def places_of(classes) -> list[Place]:
    """2, infinity and the primes of the classes (s, P), the only other places
    where a form with entries in these classes may differ from a split one."""
    return [Place.finite(p) for p in sorted({2}.union(*(ps for _, ps in classes)))] + [INFINITY]


def product_formula_check(a, b) -> bool:
    """Product of (a,b)_v over all v dividing 2ab and infinity; must be +1."""
    if a == 0 or b == 0:
        raise ValueError("nonzero arguments required")
    prod = 1
    for v in support_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1


# ---------------------------------------------------------------------------
# Field tower


_ZERO, _ONE = Fraction(0), Fraction(1)


class RationalField:
    """Q with Fraction elements."""

    char = 0
    name = "Q"
    trivial_rep = 1  # payload of a square class: the signed squarefree integer

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n):
        return Fraction(n)

    def is_square(self, x) -> bool:
        return rational_sqrt(Fraction(x)) is not None

    def sqrt(self, x):
        return rational_sqrt(Fraction(x))

    def square_class(self, a) -> "SquareClass":
        return SquareClass(self, rational_class(a)[0])

    rep_mul = staticmethod(squarefree_mul)
    rep_value = from_int
    from_sympy = from_int  # Fraction reads sympy's Rational as a numbers.Rational

    def sympy_poly(self, coeffs):
        import sympy

        return sympy.Poly([sympy.Rational(c) for c in coeffs], sympy.Symbol("x"), domain="QQ")

    def elt_to_str(self, x) -> str:
        # interned, as for PrimeField: str(0) is a fresh string on each call
        x = Fraction(x)
        return sys.intern(str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}")

    def elt_from_str(self, s: str):
        return Fraction(s)

    def to_json(self):
        return {"field": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("field-Q")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return FpElement(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return FpElement(pow(pow(self.v, -1, self.p), -e, self.p), self.p)
        return FpElement(pow(self.v, e, self.p), self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v} mod {self.p}"


class PrimeField:
    """F_p for an odd prime p (2 stays invertible everywhere)."""

    trivial_rep = 1  # payload of a square class: 1 or the least positive nonresidue

    def __init__(self, p: int):
        if p == 2 or not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        self.p = p
        self.char = p
        self.name = f"F{p}"

    def zero(self):
        return FpElement(0, self.p)

    def one(self):
        return FpElement(1, self.p)

    def from_int(self, n):
        return FpElement(n, self.p)

    def is_square(self, x: FpElement) -> bool:
        return x.v == 0 or legendre(x.v, self.p) == 1

    def sqrt(self, x: FpElement):
        r = sqrt_mod_p(x.v, self.p)
        return None if r is None else FpElement(r, self.p)

    def nonresidue(self) -> FpElement:
        n = 2
        while legendre(n, self.p) != -1:
            n += 1
        return FpElement(n, self.p)

    def square_class(self, a: FpElement) -> "SquareClass":
        if not a:
            raise ValueError("0 has no square class")
        return SquareClass(self, 1 if legendre(a.v, self.p) == 1 else self.nonresidue().v)

    def rep_mul(self, r: int, s: int) -> int:
        return 1 if r == s else self.nonresidue().v

    rep_value = from_int

    def sympy_poly(self, coeffs):
        import sympy

        return sympy.Poly([c.v for c in coeffs], sympy.Symbol("x"), modulus=self.p)

    def from_sympy(self, c) -> FpElement:
        return FpElement(int(c), self.p)

    def elt_to_str(self, x: FpElement) -> str:
        # interned: answers that keep many residue strings share one per value
        return sys.intern(f"{x.v} mod {self.p}")

    def elt_from_str(self, s: str):
        """Parse "v mod p" or a bare integer v, the residue of v."""
        v, sep, p = s.partition(" mod ")
        if sep and int(p) != self.p:
            raise ValueError(f"modulus mismatch: {s} in F_{self.p}")
        return FpElement(int(v), self.p)

    def to_json(self):
        return {"field": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("field-Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


class QuadElement:
    """a + b*sqrt(d) with rational a, b and squarefree d.

    The components are `Fraction`s.  Fractions are immutable, so one
    passed in is kept, not copied, and elements share their components.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)
        self.d = d

    def _lift(self, other):
        if isinstance(other, QuadElement):
            if other.d != self.d:
                raise ValueError("mixed radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(other, _ZERO, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else QuadElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else QuadElement(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        # a rational factor scales both components: two products
        if not o.b:
            return QuadElement(self.a * o.a, self.b * o.a, self.d)
        if not self.b:
            return QuadElement(self.a * o.a, self.a * o.b, self.d)
        return QuadElement(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return QuadElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        c = self * o.conjugate()
        return QuadElement(c.a / n, c.b / n, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return QuadElement(-self.a, -self.b, self.d)

    def __pow__(self, e: int):
        if e < 0:
            base = QuadElement(1, 0, self.d) / self
            e = -e
        else:
            base = self
        acc = QuadElement(1, 0, self.d)
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadElement(other, 0, self.d)
        if isinstance(other, QuadElement):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        # a rational element equals its rational part, so hashes as it
        return hash(self.a) if not self.b else hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"{self.a}+{self.b}*sqrt({self.d})"


class QuadraticNumberField:
    """Q(sqrt(d)) for squarefree d not 0 or 1."""

    def __init__(self, d: int):
        if d in (0, 1) or squarefree_part(d) != d:
            raise ValueError(f"d must be squarefree and not 0 or 1, got {d}")
        self.d = d
        self.char = 0
        self.name = f"Q(sqrt({d}))"

    def zero(self):
        return QuadElement(_ZERO, _ZERO, self.d)

    def one(self):
        return QuadElement(_ONE, _ZERO, self.d)

    def from_int(self, n):
        return QuadElement(n, 0, self.d)

    def gen(self):
        return QuadElement(0, 1, self.d)

    def sqrt(self, x: QuadElement):
        """Exact square root, or None; root with positive leading part."""
        if not x:
            return self.zero()
        if x.b == 0:
            r = rational_sqrt(x.a)
            if r is not None:
                return self._canon(QuadElement(r, 0, self.d))
            r = rational_sqrt(x.a / self.d)
            if r is not None:
                return self._canon(QuadElement(0, r, self.d))
            return None
        s = rational_sqrt(x.norm())
        if s is None:
            return None
        for t in (x.a + s, x.a - s):
            half = t / 2
            x1 = rational_sqrt(half)
            if x1 is not None and x1 != 0:
                y1 = x.b / (2 * x1)
                cand = QuadElement(x1, y1, self.d)
                if cand * cand == x:
                    return self._canon(cand)
        return None

    @staticmethod
    def _canon(x: QuadElement) -> QuadElement:
        if x.a < 0 or (x.a == 0 and x.b < 0):
            return -x
        return x

    def is_square(self, x: QuadElement) -> bool:
        return self.sqrt(x) is not None

    def square_class(self, a):
        raise UnsupportedBase(
            "no canonical square-class form over quadratic fields; compare with is_square"
        )

    def elt_to_str(self, x: QuadElement) -> str:
        return f"{QQ.elt_to_str(x.a)}+{QQ.elt_to_str(x.b)}*sqrt({self.d})"

    def elt_from_str(self, s: str):
        body, _, rad = s.partition("*sqrt(")
        if not rad:
            return QuadElement(Fraction(s), 0, self.d)
        d = int(rad.rstrip(")"))
        if d != self.d:
            raise ValueError("radicand mismatch")
        a, _, b = body.rpartition("+")
        return QuadElement(Fraction(a), Fraction(b), self.d)

    def to_json(self):
        return {"field": "Qsqrt", "d": self.d}

    def __eq__(self, other):
        return isinstance(other, QuadraticNumberField) and self.d == other.d

    def __hash__(self):
        return hash(("field-quad", self.d))

    def __repr__(self):
        return self.name


class RatFunc:
    """num/den with polynomial num, den over Q or F_p, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        else:
            den = Poly.const(den.field.one(), den.field)
        lead = den.leading()
        if lead != den.field.one():
            num = num.scale(den.field.one() / lead)
            den = den.monic()
        self.num = num
        self.den = den

    @property
    def base(self):
        return self.den.field

    def _lift(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other, Poly.const(other.field.one(), other.field))
        if isinstance(other, int):
            f = self.base
            return RatFunc(Poly.const(f.from_int(other), f), Poly.const(f.one(), f))
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __pow__(self, e: int):
        if e < 0:
            return (self._lift(1) / self) ** (-e)
        acc = self._lift(1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Poly)):
            other = self._lift(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"


class RationalFunctionField:
    """F(t) over F = Q or F_p, elements RatFunc."""

    def __init__(self, base):
        if not isinstance(base, (RationalField, PrimeField)):
            raise UnsupportedBase("function fields are over Q or F_p only")
        self.base = base
        self.char = base.char
        self.name = f"{base.name}(t)"
        self.trivial_rep = (base.trivial_rep, Poly.const(base.one(), base))

    def zero(self):
        return RatFunc(Poly((), self.base), Poly.const(self.base.one(), self.base))

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        return RatFunc(
            Poly.const(self.base.from_int(n), self.base),
            Poly.const(self.base.one(), self.base),
        )

    def t(self):
        return RatFunc(Poly.x(self.base), Poly.const(self.base.one(), self.base))

    def from_poly(self, p: Poly):
        return RatFunc(p, Poly.const(self.base.one(), self.base))

    def is_square(self, x: RatFunc) -> bool:
        # num and den are coprime and den monic: x is a square iff both are
        return not x or self.sqrt(x) is not None

    def square_class(self, a: RatFunc) -> "SquareClass":
        if not a:
            raise ValueError("0 has no square class")
        const, factors = factor_poly(a.num * a.den)
        _, g = self.trivial_rep
        for f, e in factors:
            if e % 2:
                g = g * f
        return SquareClass(self, (self.base.square_class(const).rep, g))

    def rep_mul(self, r, s):
        (c1, g1), (c2, g2) = r, s
        h = g1.gcd(g2)
        g = ((g1 * g2) // (h * h)).monic() if h.degree > 0 else (g1 * g2).monic()
        return self.base.rep_mul(c1, c2), g

    def rep_value(self, r) -> RatFunc:
        c, g = r
        return self.from_int(c) * self.from_poly(g)

    def sqrt(self, x: RatFunc):
        gn = poly_sqrt(x.num)
        gd = poly_sqrt(x.den)
        if gn is None or gd is None:
            return None
        return RatFunc(gn, gd)

    def elt_to_str(self, x: RatFunc) -> str:
        return f"{_poly_to_str(x.num, self.base)} / {_poly_to_str(x.den, self.base)}"

    def elt_from_str(self, s: str):
        num_s, _, den_s = s.partition(" / ")
        return RatFunc(_poly_from_str(num_s, self.base), _poly_from_str(den_s, self.base))

    def to_json(self):
        d = {"field": "Qt"} if self.base.char == 0 else {"field": "Fpt", "p": self.base.p}
        return d

    def __eq__(self, other):
        return isinstance(other, RationalFunctionField) and self.base == other.base

    def __hash__(self):
        return hash(("field-ratfunc", self.base))

    def __repr__(self):
        return self.name


def _poly_to_str(p: Poly, base) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c:
            terms.append(f"{base.elt_to_str(c)}*t^{i}")
    return " + ".join(terms)


def _poly_from_str(s: str, base) -> Poly:
    s = s.strip()
    if s == "0":
        return Poly((), base)
    coeffs = {}
    for term in s.split(" + "):
        c, _, d = term.partition("*t^")
        coeffs[int(d)] = base.elt_from_str(c)
    out = [base.zero()] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c
    return Poly(out, base)


def poly_sqrt(f: Poly) -> Poly | None:
    """Exact polynomial square root with canonical leading coefficient."""
    if f.is_zero():
        return f
    field = f.field
    if f.degree % 2:
        return None
    lead_rt = field.sqrt(f.leading())
    if lead_rt is None or not lead_rt:
        return None
    m = f.degree // 2
    zero = field.zero()
    g = [zero] * (m + 1)
    g[m] = lead_rt
    two_gm = field.from_int(2) * lead_rt
    for idx in range(m - 1, -1, -1):
        k = idx + m
        acc = f.coeffs[k] if k <= f.degree else zero
        for i in range(idx + 1, m):
            j = k - i
            if idx < j < m:
                acc = acc - g[i] * g[j]
        g[idx] = acc / two_gm
    cand = Poly(g, field)
    return cand if cand * cand == f else None


# ---------------------------------------------------------------------------
# Polynomial factorisation (sympy does the heavy lifting)


def factor_poly(p: Poly):
    """Factor p into (constant, [(monic irreducible Poly, exponent), ...])."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    base = p.field
    if not hasattr(base, "sympy_poly"):
        raise UnsupportedBase("factorisation over Q or F_p coefficients only")
    const, factors = base.sympy_poly(p.coeffs[::-1]).factor_list()
    const = base.from_sympy(const)
    out = []
    for f, e in factors:
        fp = Poly([base.from_sympy(c) for c in reversed(f.all_coeffs())], base)
        lead = fp.leading()
        if lead != base.one():
            const = const * lead**e
            fp = fp.monic()
        out.append((fp, e))
    return const, out


def poly_is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    _, factors = factor_poly(p)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Square classes


class SquareClass:
    """Canonical representative of a nonzero scalar modulo squares.

    Over Q the payload is a signed squarefree integer; over F_p it is 1
    or the least positive nonresidue; over F(t) it is a pair (content
    class payload, monic squarefree Poly).  The field builds payloads
    (square_class), multiplies them (rep_mul) and evaluates them (rep_value).
    """

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        self.field = field
        self.rep = rep

    @property
    def is_trivial(self) -> bool:
        return self.rep == self.field.trivial_rep

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if self.field != other.field:
            raise ValueError("square classes over different fields")
        return SquareClass(self.field, self.field.rep_mul(self.rep, other.rep))

    def __eq__(self, other):
        return (
            isinstance(other, SquareClass)
            and self.field == other.field
            and self.rep == other.rep
        )

    def __hash__(self):
        return hash((self.field, self.rep))

    def value(self):
        """A scalar in the field representing this class."""
        return self.field.rep_value(self.rep)

    def __repr__(self):
        if isinstance(self.rep, tuple):
            c, g = self.rep
            return f"SquareClass({c} * {g!r})"
        return f"SquareClass({self.rep})"


def square_class(a) -> SquareClass:
    """Canonical square class of a nonzero scalar, from the field of a.

    Quadratic number fields have no canonical representative here; use
    the field's is_square for square-class comparisons instead.
    """
    return field_of(a).square_class(a)


def field_of(a):
    """The field a scalar belongs to, read off its type: Q for int and
    Fraction, F_p, Q(sqrt d) or F(t) from the modulus, d or base that
    the element carries."""
    if isinstance(a, (int, Fraction)):
        return QQ
    if isinstance(a, FpElement):
        return GF(a.p)
    if isinstance(a, QuadElement):
        return QuadraticNumberField(a.d)
    if isinstance(a, RatFunc):
        return RationalFunctionField(a.base)
    raise TypeError(f"not a scalar: {a!r}")


def field_from_json(d) -> object:
    kind = d["field"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return GF(d["p"])
    if kind == "Qsqrt":
        return QuadraticNumberField(d["d"])
    if kind == "Qt":
        return RationalFunctionField(QQ)
    if kind == "Fpt":
        return RationalFunctionField(GF(d["p"]))
    raise ValueError(f"unknown field tag {kind!r}")
