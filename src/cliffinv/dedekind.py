"""Ideal-valued quadratic forms over maximal quadratic orders.

This is the layer where value lines are genuinely nontrivial: forms
take values in a fractional ideal, bases are pseudo-bases with
coefficient ideals, and the class group modulo squares indexes the
total Witt container.  Everything is exact integer/HNF arithmetic.

Integrality of a form means q lands in the value ideal on the pseudo
lattice: the values g_ii a_i^2 on the diagonal and the polar values
2 g_ij a_i a_j off it lie in L, and regularity is the pseudo
determinant identity det(2G) (prod a_i)^2 = L^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algebras import StructureAlgebra, find_quaternion_basis
from .clifford import RingMap, _mask_label, _masks_by_parity, _mul_masks_gram, tables_commute
from .errors import CliffinvError, ClosureViolation, SearchExhausted
from .forms import DiagonalForm, QuadraticForm, diagonalize
from .polys import Poly
from .scalars import (
    GF,
    QQ,
    QuadElement,
    QuadraticNumberField,
    factor_integer,
    is_prime,
    legendre,
    squarefree_part,
)


class QuadOrder:
    """The maximal order of Q(sqrt(d)), generated by omega over Z."""

    def __init__(self, d: int):
        if d in (0, 1) or squarefree_part(d) != d:
            raise ValueError("d must be squarefree, not 0 or 1")
        self.d = d
        self.field = QuadraticNumberField(d)
        if d % 4 == 1:
            self.omega = QuadElement(Fraction(1, 2), Fraction(1, 2), d)
            self.omega_trace = 1
            self.omega_norm = (1 - d) // 4
            self.disc = d
        else:
            self.omega = QuadElement(0, 1, d)
            self.omega_trace = 0
            self.omega_norm = -d
            self.disc = 4 * d

    def element(self, u, v) -> QuadElement:
        """u + v*omega with rational u, v."""
        return QuadElement(u, 0, self.d) + QuadElement(v, 0, self.d) * self.omega

    def coords(self, x: QuadElement):
        """Write x = u + v*omega; returns (u, v) as Fractions."""
        if self.d % 4 == 1:
            v = 2 * x.b
            u = x.a - x.b
        else:
            v = x.b
            u = x.a
        return Fraction(u), Fraction(v)

    def one_ideal(self) -> "FracIdeal":
        return FracIdeal(self, 1, 1, 0, 1)

    def __eq__(self, other):
        return isinstance(other, QuadOrder) and self.d == other.d

    def __hash__(self):
        return hash(("order", self.d))

    def __repr__(self):
        return f"QuadOrder({self.d})"


def _hnf_from_rows(rows):
    """HNF (a, (b, c)) of the Z-span of 2-vectors; rows are (u, v) ints."""
    rows = [(int(u), int(v)) for u, v in rows if u or v]
    if not rows:
        raise ValueError("zero lattice")
    # eliminate the second coordinate onto a single generator
    b, c = 0, 0
    firsts = []
    for u, v in rows:
        if v == 0:
            firsts.append(u)
            continue
        if c == 0:
            b, c = u, v
            continue
        g, s, t = _xgcd(c, v)
        # new generator with second coord g; leftover goes to the firsts
        nb = s * b + t * u
        firsts.append((v // g) * b - (c // g) * u)
        b, c = nb, g
    if c == 0:
        raise ValueError("lattice has rank < 2; not a fractional ideal")
    a = 0
    for u in firsts:
        a = math.gcd(a, abs(u))
    if a == 0:
        raise ValueError("lattice has rank < 2; not a fractional ideal")
    if c < 0:
        b, c = -b, -c
    b %= a
    return a, b, c


def _xgcd(x, y):
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class FracIdeal:
    """(1/den) (Z a + Z (b + c omega)), HNF-normalised, nonzero."""

    __slots__ = ("order", "den", "a", "b", "c")

    def __init__(self, order: QuadOrder, den: int, a: int, b: int, c: int):
        if den <= 0 or a <= 0 or c <= 0:
            raise ValueError("normalisation broken")
        g = math.gcd(math.gcd(a, math.gcd(b, c)), den)
        self.order = order
        self.den = den // g
        self.a = a // g
        self.b = (b // g) % (a // g)
        self.c = c // g

    @classmethod
    def from_generators(cls, order: QuadOrder, gens) -> "FracIdeal":
        """O-module generated by the elements (gens plus omega*gens)."""
        rows = []
        dens = []
        coords = []
        for g in gens:
            for h in (g, g * order.omega):
                u, v = order.coords(h)
                coords.append((u, v))
                dens.append(u.denominator)
                dens.append(v.denominator)
        den = 1
        for q in dens:
            den = den * q // math.gcd(den, q)
        for u, v in coords:
            rows.append((int(u * den), int(v * den)))
        a, b, c = _hnf_from_rows(rows)
        if a % c or b % c:
            raise CliffinvError("lattice is not an ideal of the order")
        return cls(order, den, a, b, c)

    @classmethod
    def principal(cls, order: QuadOrder, x: QuadElement) -> "FracIdeal":
        if not x:
            raise ValueError("zero generator")
        return cls.from_generators(order, [x])

    def generators(self):
        o = self.order
        return (
            o.element(Fraction(self.a, self.den), 0),
            o.element(Fraction(self.b, self.den), Fraction(self.c, self.den)),
        )

    def norm(self) -> Fraction:
        return Fraction(self.a * self.c, self.den * self.den)

    def conjugate(self) -> "FracIdeal":
        g1, g2 = self.generators()
        return FracIdeal.from_generators(self.order, [g1.conjugate(), g2.conjugate()])

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        if self.order != other.order:
            raise ValueError("mixed orders")
        g1, g2 = self.generators()
        h1, h2 = other.generators()
        return FracIdeal.from_generators(
            self.order, [g1 * h1, g1 * h2, g2 * h1, g2 * h2]
        )

    def inverse(self) -> "FracIdeal":
        n = self.norm()
        conj = self.conjugate()
        g1, g2 = conj.generators()
        scale = QuadElement(1 / n, 0, self.order.d)
        inv = FracIdeal.from_generators(self.order, [g1 * scale, g2 * scale])
        if inv * self != self.order.one_ideal():
            raise CliffinvError("ideal inverse failed; order not maximal?")
        return inv

    def __pow__(self, e: int) -> "FracIdeal":
        if e == 0:
            return self.order.one_ideal()
        base = self if e > 0 else self.inverse()
        out = self.order.one_ideal()
        for _ in range(abs(e)):
            out = out * base
        return out

    def scale(self, x: QuadElement) -> "FracIdeal":
        return self * FracIdeal.principal(self.order, x)

    def contains(self, x: QuadElement) -> bool:
        if not x:
            return True
        u, v = self.order.coords(x)
        u, v = u * self.den, v * self.den
        if u.denominator != 1 or v.denominator != 1:
            return False
        y, rem = divmod(int(v), self.c)
        if rem:
            return False
        return (int(u) - y * self.b) % self.a == 0

    def contains_ideal(self, other: "FracIdeal") -> bool:
        g1, g2 = other.generators()
        return self.contains(g1) and self.contains(g2)

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        return (
            isinstance(other, FracIdeal)
            and self.order == other.order
            and (self.den, self.a, self.b, self.c) == (other.den, other.a, other.b, other.c)
        )

    def __hash__(self):
        return hash((self.order.d, self.den, self.a, self.b, self.c))

    def label(self) -> str:
        if self == self.order.one_ideal():
            return "O"
        body = f"{self.a},{self.b}+{self.c}w" if self.b else f"{self.a},{self.c}w"
        return f"({body})" if self.den == 1 else f"({body})/{self.den}"

    def __repr__(self):
        return f"FracIdeal[{self.label()} over Z[w], d={self.order.d}]"


def _unit_bound(order: QuadOrder) -> int:
    """Coefficient bound absorbing one fundamental-unit adjustment."""
    if order.d < 0:
        return 1
    x, y = _pell_fundamental(order.d)
    return abs(x) + abs(y) + 1


@lru_cache(maxsize=None)
def _pell_fundamental(d: int):
    """Smallest (x, y), y > 0, with x^2 - d y^2 = +-1 (continued fractions)."""
    a0 = math.isqrt(d)
    m, dd, a = 0, 1, a0
    num1, num = 1, a0
    den1, den = 0, 1
    for _ in range(10**6):
        if num * num - d * den * den in (1, -1):
            return num, den
        m = dd * a - m
        dd = (d - m * m) // dd
        a = (a0 + m) // dd
        num1, num = num, a * num + num1
        den1, den = den, a * den + den1
    raise SearchExhausted("fundamental unit", 10**6)


def principal_generator(ideal: FracIdeal):
    """A generator if the ideal is principal, else None.

    Imaginary orders enumerate the definite norm form exactly; real
    orders search a box widened by the fundamental unit, which decides
    principality for the desk-scale discriminants.
    """
    order = ideal.order
    target = ideal.norm()
    a, b, c, den = ideal.a, ideal.b, ideal.c, ideal.den
    if order.d < 0:
        # the definite norm bounds v: N(u + v w) >= |d| v^2 (w = sqrt d)
        # or |d| v^2 / 4 (w a half integer)
        coef = abs(order.d) if order.d % 4 != 1 else Fraction(abs(order.d), 4)
        vmax = math.isqrt(int(Fraction(target * den * den) / coef)) + 1
        for k in range(-vmax // c - 1, vmax // c + 2):
            v = k * c
            # m a + k b = u; N = u^2 + t u v - n-ish; solve |u| range by quadratic
            for m in _u_range(order, target * den * den, v):
                u = m
                if (u - k * b) % a:
                    continue
                x = order.element(Fraction(u, den), Fraction(v, den))
                if abs(x.norm()) == target and ideal.contains(x):
                    return x
        return None
    bound = _unit_bound(order) * (math.isqrt(int(target * den * den)) + 1) + 2
    for k in range(-bound // c - 1, bound // c + 2):
        v = k * c
        for m in range(-bound, bound + 1):
            u = m * a + k * b
            x = order.element(Fraction(u, den), Fraction(v, den))
            if x and abs(x.norm()) == target and ideal.contains(x):
                return x
    return None


def _u_range(order: QuadOrder, target, v):
    """Integer u with |N(u + v omega)| = target, from the definite form."""
    if order.d % 4 != 1:
        # N = u^2 - d v^2
        val = target + order.d * v * v
        if val < 0:
            return []
        r = math.isqrt(int(val))
        return [r, -r] if r * r == val else []
    # N = u^2 + u v + v^2 (1-d)/4
    val = 4 * target - (-(order.d)) * v * v if order.d < 0 else None
    if val is None or val < 0:
        return []
    r = math.isqrt(int(val))
    if r * r != val:
        return []
    out = []
    for s in (r, -r):
        num = s - v
        if num % 2 == 0:
            out.append(num // 2)
    return out


def is_principal(ideal: FracIdeal) -> bool:
    return principal_generator(ideal) is not None


def same_ideal_class(i1: FracIdeal, i2: FracIdeal) -> bool:
    return is_principal(i1 * i2.inverse())


def prime_ideals_above(order: QuadOrder, p: int):
    """Prime ideals over p via roots of the minimal polynomial of omega."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t, n = order.omega_trace, order.omega_norm
    roots = [r for r in range(p) if (r * r - t * r + n) % p == 0]
    if not roots:
        return []  # inert; the ideal (p) stays prime
    out = []
    for r in roots:
        gen = order.omega - order.field.from_int(r)
        out.append(FracIdeal.from_generators(order, [order.field.from_int(p), gen]))
    return out


def minkowski_prime_bound(order: QuadOrder) -> int:
    """Primes up to this bound generate the class group."""
    d = abs(order.disc)
    if order.d < 0:
        # (2/pi) sqrt(d); use pi^2 > 9.8696 for a safe overestimate
        bound = 2
        while 98696 * bound * bound <= 40000 * d:
            bound += 1
        return bound
    return math.isqrt(d) // 2 + 1


def class_group_mod_squares(order: QuadOrder, max_classes: int = 64):
    """Representatives of Cl/2, deterministic smallest-norm-first.

    The class group is enumerated by closing the Minkowski primes under
    multiplication with exact principality tests, then squares are
    quotiented out.
    """
    bound = minkowski_prime_bound(order)
    prime_gens = []
    p = 2
    while p <= bound:
        prime_gens.extend(prime_ideals_above(order, p))
        p += 1
        while not is_prime(p):
            p += 1
    one = order.one_ideal()
    reps = [one]

    def find_class(ideal):
        for i, r in enumerate(reps):
            if same_ideal_class(ideal, r):
                return i
        return None

    frontier = [one]
    while frontier:
        current = frontier.pop()
        for pg in prime_gens:
            cand = current * pg
            if find_class(cand) is None:
                if len(reps) >= max_classes:
                    raise SearchExhausted("class group enumeration", max_classes)
                reps.append(cand)
                frontier.append(cand)
    squares = set()
    for i, r in enumerate(reps):
        j = find_class(r * r)
        squares.add(j)
    # quotient classes: greedily pick coset representatives, smallest norm
    order_key = sorted(range(len(reps)), key=lambda i: (reps[i].norm(), reps[i].label()))
    chosen = []
    covered = set()
    for i in order_key:
        if i in covered:
            continue
        chosen.append(reps[i])
        for j in range(len(reps)):
            if j in covered:
                continue
            # same coset iff reps[i] * reps[j] is a square class
            prod = reps[i] * reps[j]
            k = find_class(prod)
            if k in squares:
                covered.add(j)
    return chosen


# ---------------------------------------------------------------------------
# Ideal-valued forms


@dataclass
class IdealValuedForm:
    coeff_ideals: tuple
    gram: tuple  # half-polarised, entries in Q(sqrt d)
    value: FracIdeal

    def __post_init__(self):
        order = self.value.order
        n = len(self.coeff_ideals)
        if len(self.gram) != n:
            raise ValueError("Gram size mismatch")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram must be symmetric")
        two = order.field.from_int(2)
        for i in range(n):
            for j in range(i, n):
                g = self.gram[i][j]
                if not g:
                    continue
                val = g if i == j else two * g
                lhs = (self.coeff_ideals[i] * self.coeff_ideals[j]).scale(val)
                if not self.value.contains_ideal(lhs):
                    raise CliffinvError(f"form value at ({i},{j}) escapes the value ideal")
        det2 = linalg.det(
            [[two * x for x in row] for row in self.gram], order.field
        )
        if not det2:
            raise CliffinvError("form is not regular")
        prod = order.one_ideal()
        for a in self.coeff_ideals:
            prod = prod * a
        lhs = (prod * prod).scale(det2)
        if lhs != self.value**n:
            raise CliffinvError("pseudo-determinant identity fails; form not regular")

    @property
    def rank(self) -> int:
        return len(self.coeff_ideals)

    @property
    def order(self) -> QuadOrder:
        return self.value.order

    def generic_form(self) -> QuadraticForm:
        return QuadraticForm(self.gram, self.order.field)


def ideal_orthogonal_sum(q1: IdealValuedForm, q2: IdealValuedForm) -> IdealValuedForm:
    """Block sum; the value ideals must agree on the nose."""
    if q1.value != q2.value:
        raise ValueError("orthogonal sum needs a common value ideal")
    k = q1.order.field
    z = k.zero()
    n, m = q1.rank, q2.rank
    gram = []
    for i in range(n):
        gram.append(tuple(q1.gram[i]) + (z,) * m)
    for i in range(m):
        gram.append((z,) * n + tuple(q2.gram[i]))
    return IdealValuedForm(
        q1.coeff_ideals + q2.coeff_ideals, tuple(gram), q1.value
    )


def hyperbolic_ideal_form(order: QuadOrder, coefficient_ideals, value: FracIdeal) -> IdealValuedForm:
    """Pairing t + v -> t(v) on Hom(P, L) + P for a pseudo-lattice P."""
    r = len(coefficient_ideals)
    if r < 1:
        raise ValueError("rank must be >= 1")
    k = order.field
    z = k.zero()
    half = k.one() / k.from_int(2)
    n = 2 * r
    gram = [[z] * n for _ in range(n)]
    for i in range(r):
        gram[i][r + i] = half
        gram[r + i][i] = half
    coeffs = tuple(value * a.inverse() for a in coefficient_ideals) + tuple(coefficient_ideals)
    return IdealValuedForm(coeffs, tuple(tuple(row) for row in gram), value)


def twist_by_alignment(q: IdealValuedForm, n_ideal: FracIdeal, phi: QuadElement) -> IdealValuedForm:
    """Transport along the alignment (N, phi): coefficients pick up N,
    the Gram scales by phi, and the value becomes N^2 L (phi)."""
    if not phi:
        raise ValueError("alignment scale must be nonzero")
    new_value = (n_ideal * n_ideal * q.value).scale(phi)
    gram = tuple(tuple(phi * x for x in row) for row in q.gram)
    coeffs = tuple(a * n_ideal for a in q.coeff_ideals)
    return IdealValuedForm(coeffs, gram, new_value)


def ideal_sqrt_alignment(target: FracIdeal, current: FracIdeal, factor_cap: int = 10**5):
    """(N, phi) with N^2 current (phi) = target, or None.

    Splits the quotient ideal into primes, halves even valuations into
    N, and asks the leftover to be principal.
    """
    order = target.order
    j = target * current.inverse()
    num = j.norm()
    support = set(factor_integer(num.numerator, factor_cap)) | set(
        factor_integer(num.denominator, factor_cap)
    )
    n_ideal = order.one_ideal()
    for p in sorted(support):
        for pid in prime_ideals_above(order, p):
            e = _ideal_valuation(j, pid)
            half = e // 2 if e >= 0 else -((-e + 1) // 2)  # floor(e/2)
            if half:
                n_ideal = n_ideal * pid**half
    rem = j * (n_ideal * n_ideal).inverse()
    gen = principal_generator(rem)
    if gen is None:
        return None
    return n_ideal, gen


def _ideal_valuation(ideal: FracIdeal, prime: FracIdeal) -> int:
    e = 0
    pinv = prime.inverse()
    cur = ideal
    # make integral first
    while not cur.is_integral():
        cur = cur * prime
        e -= 1
    while True:
        nxt = cur * pinv
        if nxt.is_integral():
            cur = nxt
            e += 1
        else:
            return e


def normalize_to_representative(q: IdealValuedForm, reps):
    """Twist q so its value ideal is the listed representative."""
    for rep in reps:
        al = ideal_sqrt_alignment(rep, q.value)
        if al is not None:
            n_ideal, phi = al
            out = twist_by_alignment(q, n_ideal, phi)
            if out.value != rep:
                raise CliffinvError("alignment did not land on the representative")
            return rep, out
    raise CliffinvError("value ideal matches no representative; label bug")


@dataclass
class DedekindWittElement:
    """Total container: class-group-mod-squares label -> normalised form."""

    order: QuadOrder
    components: dict

    def e0(self) -> int:
        return sum(q.rank for q in self.components.values()) % 2


def total_witt_element(order: QuadOrder, assignments: dict) -> DedekindWittElement:
    reps = class_group_mod_squares(order)
    by_label = {}
    for _, q in assignments.items():
        rep, normal = normalize_to_representative(q, reps)
        label = rep.label()
        if label in by_label:
            raise CliffinvError("two components on one label; sum them first")
        by_label[label] = normal
    return DedekindWittElement(order, by_label)


# ---------------------------------------------------------------------------
# Even Clifford orders


@dataclass
class EvenCliffordOrder:
    algebra: StructureAlgebra  # generic fibre in the pseudo-basis
    coeff_ideals: list  # one ideal per even-subset basis element
    masks: tuple


def even_clifford_order(q: IdealValuedForm) -> EvenCliffordOrder:
    """Generic-fibre even Clifford algebra with its coefficient ideals.

    The pseudo-basis monomials keep the original indices, and the table
    comes from the Gram matrix by the monomial rules of
    `clifford._mul_masks_gram`.  Coefficient ideals are
    prod(a_i, i in S) L^(-|S|/2).  Products of pseudo generators are
    checked to land inside the asserted coefficients.
    """
    if q.rank > 6:
        raise ValueError("rank capped at 6 for Clifford orders")
    order = q.order
    k = order.field
    n = q.rank
    masks = _masks_by_parity(n, 0)
    index = {m: i for i, m in enumerate(masks)}
    table = [
        [[(index[u], c) for u, c in _mul_masks_gram(s, t, q.gram, k).items()] for t in masks]
        for s in masks
    ]
    ideals = []
    for m in masks:
        ideal = order.one_ideal()
        for i in range(n):
            if m >> i & 1:
                ideal = ideal * q.coeff_ideals[i]
        ideals.append(ideal * (q.value.inverse() ** (m.bit_count() // 2)))
    dim = len(masks)
    labels = tuple(_mask_label(m) for m in masks)
    alg = StructureAlgebra(k, labels, table, [k.one()] + [k.zero()] * (dim - 1))
    # closure: coefficient of e_U in e_S e_T times a_S a_T inside a_U
    for i in range(dim):
        for j in range(dim):
            for u, cuv in alg.table[i][j]:
                lhs = (ideals[i] * ideals[j]).scale(cuv)
                if not ideals[u].contains_ideal(lhs):
                    raise ClosureViolation(
                        f"product {labels[i]} * {labels[j]} escapes at {labels[u]}"
                    )
    return EvenCliffordOrder(alg, ideals, masks)


# ---------------------------------------------------------------------------
# Reductions and best-effort generic checks


def split_reduction(order: QuadOrder, p: int) -> RingMap:
    """Q(sqrt d) -> F_p at a split odd prime (canonical least root)."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    if order.disc % p == 0:
        raise ValueError(f"{p} ramifies")
    if legendre(order.d % p, p) != 1:
        raise ValueError(f"{p} is inert; residue field is not prime")
    root = min(r for r in range(p) if (r * r - order.d) % p == 0)
    target = GF(p)

    def fn(x: QuadElement):
        for frac in (x.a, x.b):
            if frac.denominator % p == 0:
                raise CliffinvError(f"denominator not invertible mod {p}")
        return target.from_int(x.a.numerator) / target.from_int(x.a.denominator) + (
            target.from_int(x.b.numerator) / target.from_int(x.b.denominator)
        ) * target.from_int(root)

    return RingMap(order.field, target, fn)


def reduction_commutes(q: IdealValuedForm, p: int) -> bool:
    """Even Clifford construction commutes with reduction mod a good split p."""
    order = q.order
    rm = split_reduction(order, p)
    diag, _ = diagonalize(q.generic_form())
    return tables_commute(diag, rm)


def order_reduction_semisimple(co: EvenCliffordOrder, p: int) -> bool:
    """Nondegenerate regular trace form mod p certifies semisimplicity.

    Requires p to be good: split, odd, coprime to the coefficient
    ideals, with p-integral structure constants.
    """
    order0 = co.coeff_ideals[0].order
    rm = split_reduction(order0, p)
    for ideal in co.coeff_ideals:
        n = ideal.norm()
        if n.numerator % p == 0 or n.denominator % p == 0:
            raise ValueError(f"{p} meets a coefficient ideal; not a good prime")
    alg = co.algebra
    dim = alg.dim
    target = GF(p)
    # reduction can kill a coefficient; the constructor drops the zeros
    table = [[[(k, rm.apply(c)) for k, c in row] for row in plane] for plane in alg.table]
    red = StructureAlgebra(target, alg.labels, table, [rm.apply(u) for u in alg.unit])
    if not red.validate_unit():
        return False
    # trace form of the regular representation: tr(L_i L_j)
    lmats = [red.left_mult_matrix(red.basis_vec(i)) for i in range(dim)]
    gram = []
    for li in lmats:
        row = []
        for lj in lmats:
            tr = target.zero()
            for s in range(dim):
                for t in range(dim):
                    if li[s][t] and lj[t][s]:
                        tr = tr + li[s][t] * lj[t][s]
            row.append(tr)
        gram.append(row)
    return bool(linalg.det(gram, target))


def bounded_isotropy_search(entries, field):
    """Best-effort isotropic vector over Q(sqrt d): box enumeration only.

    Returns a witness vector or None; None means "not found", not a
    proof of anisotropy.
    """
    from itertools import product as iproduct

    n = len(entries)
    small = [QuadElement(x, y, field.d) for x in range(-2, 3) for y in range(-2, 3)]
    small = [s for s in small if s]
    box = [field.zero()] + small
    for vec in iproduct(range(len(box)), repeat=n):
        if not any(vec):
            continue
        val = field.zero()
        for idx, a in zip(vec, entries):
            x = box[idx]
            if x:
                val = val + a * x * x
        if not val:
            return [box[idx] for idx in vec]
    return None


def generic_component_status(alg: StructureAlgebra):
    """Best-effort split detection for a dim-4 generic-fibre component.

    Returns ("split", witness) when the norm form of an extracted
    quaternion basis has a small isotropic vector, else ("unknown", None).
    """
    field = alg.field
    alpha, beta, _ = find_quaternion_basis(alg)
    entries = (field.one(), -alpha, -beta, alpha * beta)
    vec = bounded_isotropy_search(entries, field)
    if vec is not None:
        return "split", vec
    return "unknown", None
