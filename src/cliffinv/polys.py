"""Dense univariate polynomials over an exact field.

Coefficients are stored low degree first with no trailing zeros, so the
zero polynomial is the empty tuple.  The element type is whatever the
owning field uses (Fraction, prime-field elements, ...); all arithmetic
goes through the element operators.  Irreducible factorisation is not
done here; callers that need it go through sympy (see scalars).
"""

from __future__ import annotations

from . import linalg


class Poly:
    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    @classmethod
    def const(cls, c, field):
        return cls((c,), field)

    @classmethod
    def x(cls, field):
        return cls((field.zero(), field.one()), field)

    @classmethod
    def from_int_coeffs(cls, ints, field):
        return cls((field.from_int(n) for n in ints), field)

    @property
    def degree(self):
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash((self.coeffs, self.field))

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs), self.field)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.field)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return Poly((), self.field)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out, self.field)

    def scale(self, c):
        return Poly(tuple(c * a for a in self.coeffs), self.field)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        dd = other.degree
        dlead = other.coeffs[-1]
        rem = list(self.coeffs)
        q = [field.zero()] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd:
            if rem[-1]:
                c = rem[-1] / dlead
                q[len(rem) - 1 - dd] = c
                for i in range(dd + 1):
                    rem[len(rem) - 1 - dd + i] = rem[len(rem) - 1 - dd + i] - c * other.coeffs[i]
            rem.pop()
        return Poly(q, field), Poly(rem, field)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self):
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == self.field.one():
            return self
        return Poly(tuple(c / lead for c in self.coeffs), self.field)

    def derivative(self):
        f = self.field
        return Poly(tuple(f.from_int(i) * c for i, c in enumerate(self.coeffs) if i > 0), f)

    def evaluate(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"({c})*t")
            else:
                terms.append(f"({c})*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def valuation_unit(a: Poly, pi: Poly):
    """Valuation e and unit part u of a at the irreducible pi: a = pi^e * u."""
    if a.is_zero():
        raise ZeroDivisionError("zero has no valuation")
    e = 0
    u = a
    while True:
        q, r = u.divmod(pi)
        if r.is_zero():
            u = q
            e += 1
        else:
            return e, u


def xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic or zero."""
    field = a.field
    one = Poly.const(field.one(), field)
    zero = Poly((), field)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = field.one() / lead
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


class QuotientField:
    """The residue field F[t]/(pi) for an irreducible pi over F.

    Elements are Poly representatives of degree < deg(pi).  Supports just
    enough field structure for residue forms, trace transfers and norms.
    """

    def __init__(self, base, modulus: Poly):
        if modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        self.base = base
        self.modulus = modulus.monic()
        self.char = base.char
        self.degree = self.modulus.degree

    def __eq__(self, other):
        return (
            isinstance(other, QuotientField)
            and self.base == other.base
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash(("quot", self.base, self.modulus))

    def __repr__(self):
        return f"QuotientField({self.base!r}, {self.modulus!r})"

    def reduce(self, p: Poly) -> Poly:
        return p % self.modulus

    def zero(self) -> Poly:
        return Poly((), self.base)

    def one(self) -> Poly:
        return Poly.const(self.base.one(), self.base)

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, a):
        g, s, _ = xgcd(a, self.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("element not invertible in quotient")
        return (s.scale(self.base.one() / g.leading())) % self.modulus

    def mult_matrix(self, a: Poly):
        """Matrix of multiplication by a on the basis 1, t, ..., t^(d-1)."""
        d = self.degree
        cols = []
        p = self.reduce(a)
        t = Poly.x(self.base)
        for _ in range(d):
            cs = list(p.coeffs) + [self.base.zero()] * (d - len(p.coeffs))
            cols.append(cs)
            p = (p * t) % self.modulus
        # cols[j][i] = coefficient of t^i in a*t^j
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def norm(self, a: Poly):
        return linalg.det(self.mult_matrix(a), self.base)

    def trace(self, a: Poly):
        m = self.mult_matrix(a)
        tr = self.base.zero()
        for i in range(self.degree):
            tr = tr + m[i][i]
        return tr
