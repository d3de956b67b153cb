"""Ideal-valued quadratic forms over maximal quadratic orders.

This is the layer where value lines are genuinely nontrivial.  A form is
its generic fibre plus ideals (Bichsel and Knus, Quadratic forms with
values in line bundles, 1994): a forms.QuadraticForm over K = Q(sqrt d),
one coefficient ideal per vector of a pseudo-basis, and a value ideal
L.  Gram matrices are built, summed and scaled by the forms layer alone;
this module adds the ideals.  The class group modulo squares indexes
the total Witt container.  Ideals are integer HNF lattices in the basis
(1, omega), omega^2 = t omega - n, and all ideal arithmetic is on
integer coordinates.  Principality comes from the binary quadratic
forms of disc(O) = t^2 - 4n, reduced for D < 0 and cycled for D > 0
(Cohen, A Course in Computational Algebraic Number Theory, Ch. 5).
Cl/Cl^2 is labelled by the genus characters (N I, D)_p, p | D, and a
class of trivial label is a square, with a root read off a rational
point of a conic (Gauss, Disquisitiones arts. 229-287; Cox, Primes of
the Form x^2 + ny^2, 2-3).

Integrality of a form means q lands in the value ideal on the pseudo
lattice: the values g_ii a_i^2 on the diagonal and the polar values
2 g_ij a_i a_j off it lie in L, and regularity is the pseudo
determinant identity det(2G) (prod a_i)^2 = L^n.  A containment I c in J
is tested on c times the two HNF generators of I, with no HNF of I c.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from . import linalg
from .algebras import StructureAlgebra, trace_form
from .clifford import RingMap, _mask_label, _masks_by_parity, _mul_masks_gram, tables_commute
from .errors import CliffinvError, ClosureViolation
from .forms import DiagonalForm, QuadraticForm, diagonalize, hyperbolic, isotropic_vector, orthogonal_sum, twist
from .invariants import TotalWittElement
from .records import record
from .scalars import (
    GF,
    QQ,
    Place,
    QuadElement,
    QuadraticNumberField,
    factor_integer,
    hilbert_symbol,
    is_prime,
    sqrt_mod_p,
)


class QuadOrder:
    """The maximal order of Q(sqrt(d)), generated by omega over Z, with
    its genus: `genus_places`, the places p | D = disc(O) ascending, and
    `minus_label`, the label of -1 (0 for D < 0)."""

    def __init__(self, d: int):
        self.field = QuadraticNumberField(d)  # checks that d is squarefree, not 0 or 1
        self.d = d
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
        self.genus_places = [Place(p) for p in sorted(factor_integer(self.disc))]
        self.minus_label = _characters(-1, self.disc, self.genus_places) if self.disc > 0 else 0

    def element(self, u, v) -> QuadElement:
        """u + v*omega with rational u, v."""
        if self.omega_trace:
            v = Fraction(v) / 2
            return QuadElement(u + v, v, self.d)
        return QuadElement(u, v, self.d)

    def coords(self, x: QuadElement):
        """Integers (u, v, e), e > 0, with x = (u + v*omega)/e."""
        if self.omega_trace:
            u, v = x.a - x.b, 2 * x.b
        else:
            u, v = x.a, x.b
        e = math.lcm(u.denominator, v.denominator)
        return int(u * e), int(v * e), e

    def _mul(self, x, y):
        """Product of integer coordinate pairs (u, v) = u + v*omega."""
        (u1, v1), (u2, v2) = x, y
        w = v1 * v2
        return u1 * u2 - self.omega_norm * w, u1 * v2 + u2 * v1 + self.omega_trace * w

    def _conj(self, x):
        u, v = x
        return u + self.omega_trace * v, -v

    def one_ideal(self) -> "FracIdeal":
        return FracIdeal(self, 1, 1, 0, 1)

    def __eq__(self, other):
        return isinstance(other, QuadOrder) and self.d == other.d

    def __hash__(self):
        return hash(("order", self.d))

    def __repr__(self):
        return f"QuadOrder({self.d})"


def _hnf_from_rows(rows):
    """HNF (a, b, c) of the Z-span of integer rows (u, v): the basis (a, 0), (b, c)."""
    a, b, c = 0, 0, 0
    for u, v in rows:
        if v:
            # fold the row into the one generator (b, c) with nonzero v
            g, s, t = _xgcd(c, v)
            a = math.gcd(a, (v // g) * b - (c // g) * u)
            b, c = s * b + t * u, g
        else:
            a = math.gcd(a, u)
    if not (a and c):
        raise ValueError("lattice has rank < 2; not a fractional ideal")
    return a, b % a, c


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
        coords = [order.coords(g) for g in gens]
        den = math.lcm(*(e for _, _, e in coords))
        rows = []
        for u, v, e in coords:
            x = (u * (den // e), v * (den // e))
            rows += [x, order._mul(x, (0, 1))]
        a, b, c = _hnf_from_rows(rows)
        if a % c or b % c:
            raise CliffinvError("lattice is not an ideal of the order")
        return cls(order, den, a, b, c)

    def _basis(self):
        """Integer coordinates of the basis a, b + c*omega (over den)."""
        return (self.a, 0), (self.b, self.c)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.c, self.den * self.den)

    def conjugate(self) -> "FracIdeal":
        rows = [self.order._conj(g) for g in self._basis()]
        return FracIdeal(self.order, self.den, *_hnf_from_rows(rows))

    def __mul__(self, other: "FracIdeal") -> "FracIdeal":
        if self.order != other.order:
            raise ValueError("mixed orders")
        mul = self.order._mul
        rows = [mul(g, h) for g in self._basis() for h in other._basis()]
        return FracIdeal(self.order, self.den * other.den, *_hnf_from_rows(rows))

    def inverse(self) -> "FracIdeal":
        # conj(I) / N(I) = (den / ac) conj(Z a + Z (b + c omega))
        rows = [(self.den * u, self.den * v) for u, v in map(self.order._conj, self._basis())]
        inv = FracIdeal(self.order, self.a * self.c, *_hnf_from_rows(rows))
        if inv * self != self.order.one_ideal():
            raise CliffinvError("ideal inverse failed; order not maximal?")
        return inv

    def __pow__(self, e: int) -> "FracIdeal":
        base = self if e >= 0 else self.inverse()
        out = self.order.one_ideal()
        for _ in range(abs(e)):
            out = out * base
        return out

    def scale(self, x: QuadElement) -> "FracIdeal":
        if not x:
            raise ValueError("zero generator")
        u, v, e = self.order.coords(x)
        rows = [self.order._mul(g, (u, v)) for g in self._basis()]
        return FracIdeal(self.order, self.den * e, *_hnf_from_rows(rows))

    def _contains(self, u: int, v: int, e: int) -> bool:
        """Is (u + v*omega)/e in the ideal?"""
        u, v = u * self.den, v * self.den
        if u % e or v % e:
            return False
        y, rem = divmod(v // e, self.c)
        return not rem and (u // e - y * self.b) % self.a == 0

    def contains(self, x: QuadElement) -> bool:
        return not x or self._contains(*self.order.coords(x))

    def contains_ideal(self, other: "FracIdeal", x: QuadElement) -> bool:
        """Is other times x inside?  Tested on x times the Z-basis of other."""
        u, v, e = self.order.coords(x)
        mul = self.order._mul
        return all(self._contains(*mul(g, (u, v)), other.den * e) for g in other._basis())

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
        return sys.intern(f"({body})" if self.den == 1 else f"({body})/{self.den}")

    def __repr__(self):
        return f"FracIdeal[{self.label()} over Z[w], d={self.order.d}]"


# ---------------------------------------------------------------------------
# Binary quadratic forms of disc(O)
#
# A form (a, b, c) travels with a basis (alpha, beta) of the primitive
# ideal J it came from, (alpha, beta) being integer coordinate pairs,
# such that (a, b, c) = (N(alpha), Tr(alpha conj(beta)), N(beta)) / N(J).
# Every step below changes the basis by an element of SL2(Z).


def _primitive_form(ideal: FracIdeal):
    """Form and basis of J, where ideal = (c/den) J and J = Z A + Z (B + omega)."""
    t, n = ideal.order.omega_trace, ideal.order.omega_norm
    a, b = ideal.a // ideal.c, ideal.b // ideal.c
    return (a, 2 * b + t, (b * b + t * b + n) // a), ((a, 0), (b, 1))


def _reduce_definite(form, basis):
    """The reduced form |b| <= a <= c (b >= 0 if |b| = a or a = c), D < 0."""
    (a, b, c), (alpha, beta) = form, basis
    while True:
        s = (a - b) // (2 * a)  # translate b into (-a, a]
        b, c = b + 2 * a * s, (a * s + b) * s + c
        beta = (beta[0] + s * alpha[0], beta[1] + s * alpha[1])
        if a < c or (a == c and b >= 0):
            return (a, b, c), (alpha, beta)
        a, b, c = c, -b, a
        alpha, beta = beta, (-alpha[0], -alpha[1])


def _is_reduced(form, root: int) -> bool:
    """|sqrt D - 2|a|| < b < sqrt D, with root = isqrt(D) and D > 0 not a square."""
    a, b, _ = form
    return b <= root and 2 * abs(a) - b <= root < b + 2 * abs(a)


def _rho(form, disc: int, root: int, basis):
    """One step (a, b, c) -> (c, r, (r^2 - D)/4c), r = -b mod 2c (Cohen 5.6.4), D > 0.

    The basis goes to (beta, s beta - alpha), s = (r + b)/2c.
    """
    a, b, c = form
    m = 2 * abs(c)
    if abs(c) > root:
        r = -b % m
        r -= m if r > abs(c) else 0
    else:
        r = root - (root + b) % m
    (alpha, beta), s = basis, (r + b) // (2 * c)
    basis = (beta, (s * beta[0] - alpha[0], s * beta[1] - alpha[1]))
    return (c, r, (r * r - disc) // (4 * c)), basis


def _reduce(order: QuadOrder, form, basis):
    """A reduced form equivalent to form; for D > 0, some form of its cycle."""
    if order.disc < 0:
        return _reduce_definite(form, basis)
    root = math.isqrt(order.disc)
    while not _is_reduced(form, root):
        form, basis = _rho(form, order.disc, root, basis)
    return form, basis


def _cycle(order: QuadOrder, form, basis):
    """The cycle of a reduced form of disc D > 0, with the basis along it."""
    root = math.isqrt(order.disc)
    start = form
    while True:
        yield form, basis
        form, basis = _rho(form, order.disc, root, basis)
        if form == start:
            return


def _units(order: QuadOrder):
    """The roots of unity of an imaginary order as coordinate pairs."""
    count = {-1: 4, -3: 6}.get(order.d, 2)  # omega = i, e^(i pi/3)
    zeta = (0, 1) if count > 2 else (-1, 0)
    out = [(1, 0)]
    while len(out) < count:
        out.append(order._mul(out[-1], zeta))
    return out


def principal_generator(ideal: FracIdeal):
    """A generator if the ideal is principal, else None.

    With ideal = (c/den) J and J primitive, the form of J is brought to
    a reduced form, and its first basis vector alpha has
    N(alpha) = a N(J); so J = (alpha) exactly when a = +-1.  For D < 0
    J is principal iff the reduced form is the principal form, and the
    generator returned is the associate of alpha with the least
    omega-coordinate, then the largest rational coordinate.  For D > 0
    J is principal iff the cycle of reduced forms meets a = 1 or
    a = -1 (the class group is the wide one, so a generator may have
    negative norm), and the generator is alpha at the first such form.
    """
    order = ideal.order
    form, basis = _reduce(order, *_primitive_form(ideal))
    if order.disc < 0:
        if form[0] != 1:
            return None
        gen = min((order._mul(basis[0], z) for z in _units(order)), key=lambda x: (x[1], -x[0]))
    else:
        gen = next((b[0] for f, b in _cycle(order, form, basis) if abs(f[0]) == 1), None)
        if gen is None:
            return None
    s = Fraction(ideal.c, ideal.den)
    return order.element(gen[0] * s, gen[1] * s)


def prime_ideals_above(order: QuadOrder, p: int):
    """Prime ideals (p, omega - r) over p, r a root of the minimal polynomial of omega."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t, n = order.omega_trace, order.omega_norm
    if p == 2:
        roots = {r for r in (0, 1) if (r * r - t * r + n) % 2 == 0}
    else:  # r = (t +- sqrt D)/2; no root: p is inert and the ideal (p) stays prime
        s = sqrt_mod_p(order.disc, p)
        roots = set() if s is None else {(t + s) * (p + 1) // 2 % p, (t - s) * (p + 1) // 2 % p}
    return [FracIdeal(order, 1, p, -r, 1) for r in sorted(roots)]


def _characters(x, disc: int, places) -> int:
    """Bitmask of the places v at which the Hilbert symbol (x, disc)_v is -1."""
    return sum(1 << i for i, v in enumerate(places) if hilbert_symbol(x, disc, v) == -1)


def genus_label(ideal: FracIdeal) -> int:
    """The coset of the ideal in Cl(O)/Cl(O)^2: the bitmask of its genus
    characters (N I, D)_p at the order's `genus_places`.  For D > 0 the
    class group is the wide one, and (sqrt D) has the order's
    `minus_label`, the label of -1, whose lowest bit is cleared."""
    order = ideal.order
    label, minus = _characters(ideal.norm(), order.disc, order.genus_places), order.minus_label
    return label ^ minus if label & minus & -minus else label


def class_group_mod_squares(order: QuadOrder):
    """Representatives of Cl(O)/Cl(O)^2, sorted by (norm, label).

    There are 2^(r-1) cosets, r the number of primes of D, and half as
    many when D > 0 and -1 has a nontrivial label.  The representative of
    a coset is the least (norm, label) primitive ideal Z a + Z (b + omega)
    with its genus label; every class holds one of norm below sqrt|D|.
    """
    count = 1 << (len(order.genus_places) - 1 - bool(order.minus_label))
    t, n = order.omega_trace, order.omega_norm
    reps = {}
    for a in range(1, math.isqrt(abs(order.disc)) + 1):
        ideals = [FracIdeal(order, 1, a, b, 1) for b in range(a) if (b * b + t * b + n) % a == 0]
        if ideals:
            reps.setdefault(genus_label(ideals[0]), min(ideals, key=FracIdeal.label))
        if len(reps) == count:
            return list(reps.values())
    raise CliffinvError(f"only {len(reps)} of {count} genus labels below sqrt|D|")


def _class_sqrt(ideal: FracIdeal) -> FracIdeal:
    """J with J^2 narrowly equivalent to an ideal of trivial genus label.

    With (A, B, C) the form of its primitive part, a zero of
    X^2 - D y^2 - 4A z^2 gives A x^2 + B xy + C y^2 = z^2, X = 2Ax + By.
    Completed to SL2(Z), coprime (x, y) take the form to (z^2, B', C'),
    the square of (z, B', z C') as gcd(z, B') = 1 for fundamental D.
    """
    (a, b, c), _ = _primitive_form(ideal)
    conic = DiagonalForm(tuple(QQ.from_int(e) for e in (1, -ideal.order.disc, -4 * a)), QQ)
    big_x, y, _ = isotropic_vector(conic)
    ratio = (big_x - b * y) / (2 * a * y) if y else Fraction(1)  # x/y, or (x, y) = (1, 0)
    x, y = ratio.numerator, (ratio.denominator if y else 0)
    z = math.isqrt(value := a * x * x + b * x * y + c * y * y)
    if z * z != value:
        raise CliffinvError("conic point does not represent a square")
    _, v, u = _xgcd(x, y)  # v x + u y = 1, so [[x, -u], [y, v]] is in SL2(Z)
    big_b = -2 * a * x * u + b * (x * v - u * y) + 2 * c * y * v
    return FracIdeal(ideal.order, 1, z, (big_b - ideal.order.omega_trace) // 2, 1)


# ---------------------------------------------------------------------------
# Ideal-valued forms


@record
class IdealValuedForm:
    coeff_ideals: tuple
    form: QuadraticForm  # the generic fibre over K = Q(sqrt d)
    value: FracIdeal

    def __post_init__(self):
        order = self.value.order
        n = len(self.coeff_ideals)
        if self.form.rank != n:
            raise ValueError("Gram size mismatch")
        gram = self.form.gram
        two = order.field.from_int(2)
        for i in range(n):
            for j in range(i, n):
                g = gram[i][j]
                if not g:
                    continue
                val = g if i == j else two * g
                if not self.value.contains_ideal(self.coeff_ideals[i] * self.coeff_ideals[j], val):
                    raise CliffinvError(f"form value at ({i},{j}) escapes the value ideal")
        det2 = self.form.det() * 2**n
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
        return self.form.rank

    @property
    def order(self) -> QuadOrder:
        return self.value.order


def ideal_orthogonal_sum(q1: IdealValuedForm, q2: IdealValuedForm) -> IdealValuedForm:
    """Block sum; the value ideals must agree on the nose."""
    if q1.value != q2.value:
        raise ValueError("orthogonal sum needs a common value ideal")
    return IdealValuedForm(q1.coeff_ideals + q2.coeff_ideals, orthogonal_sum(q1.form, q2.form), q1.value)


def hyperbolic_ideal_form(order: QuadOrder, coefficient_ideals, value: FracIdeal) -> IdealValuedForm:
    """Pairing t + v -> t(v) on Hom(P, L) + P for a pseudo-lattice P."""
    form = hyperbolic(len(coefficient_ideals), order.field)
    coeffs = tuple(value * a.inverse() for a in coefficient_ideals) + tuple(coefficient_ideals)
    return IdealValuedForm(coeffs, form, value)


def twist_by_alignment(q: IdealValuedForm, n_ideal: FracIdeal, phi: QuadElement) -> IdealValuedForm:
    """Transport along the alignment (N, phi): coefficients pick up N,
    the Gram scales by phi, and the value becomes N^2 L (phi)."""
    form = twist(q.form, phi)
    new_value = (n_ideal * n_ideal * q.value).scale(phi)
    coeffs = tuple(a * n_ideal for a in q.coeff_ideals)
    return IdealValuedForm(coeffs, form, new_value)


def ideal_sqrt_alignment(target: FracIdeal, current: FracIdeal):
    """(N, phi) with N^2 current (phi) = target, or None.

    j = target current^-1 must have genus label 0, or for D > 0 the label
    of -1, when j (sqrt d) has label 0; then N is a root of that class."""
    order = target.order
    j = target * current.inverse()
    label = _characters(j.norm(), order.disc, order.genus_places)
    if label not in (0, order.minus_label):
        return None
    n_ideal = _class_sqrt(j.scale(QuadElement(0, 1, order.d)) if label else j)
    gen = principal_generator(j * (n_ideal * n_ideal).inverse())
    if gen is None:
        raise CliffinvError("j N^-2 is not principal; genus label bug")
    return n_ideal, gen


def normalize_to_representative(q: IdealValuedForm, reps):
    """Twist q so its value ideal is the listed representative of its genus label."""
    label = genus_label(q.value)
    rep = next((r for r in reps if genus_label(r) == label), None)
    if rep is None:
        raise CliffinvError("value ideal matches no representative; label bug")
    out = twist_by_alignment(q, *ideal_sqrt_alignment(rep, q.value))
    if out.value != rep:
        raise CliffinvError("alignment did not land on the representative")
    return rep, out


def total_witt_element(order: QuadOrder, forms) -> TotalWittElement:
    """The total Witt element of a sequence of ideal-valued forms, labelled
    by Cl/2 through their value ideals, each normalised to its representative."""
    reps = class_group_mod_squares(order)
    by_label = {}
    for q in forms:
        rep, normal = normalize_to_representative(q, reps)
        label = rep.label()
        if label in by_label:
            raise CliffinvError("two components on one label; sum them first")
        by_label[label] = normal
    return TotalWittElement(by_label)


# ---------------------------------------------------------------------------
# Even Clifford orders


@record
class EvenCliffordOrder:
    algebra: StructureAlgebra  # generic fibre in the pseudo-basis
    coeff_ideals: list  # one ideal per even-subset basis element


def even_clifford_order(q: IdealValuedForm) -> EvenCliffordOrder:
    """Generic-fibre even Clifford algebra with its coefficient ideals.

    The pseudo-basis monomials keep the original indices, and the table
    comes from the Gram matrix by the monomial rules of
    `clifford._mul_masks_gram`.  Coefficient ideals are
    prod(a_i, i in S) L^(-|S|/2).  Closure: each coefficient c of e_U in
    e_S e_T is tested as c g in a_U on the two HNF generators g of a_S a_T,
    which is formed once per pair {S, T}.
    """
    if q.rank > 6:
        raise ValueError("rank capped at 6 for Clifford orders")
    order = q.order
    k = order.field
    n = q.rank
    masks = _masks_by_parity(n, 0)
    index = {m: i for i, m in enumerate(masks)}
    table = [
        [[(index[u], c) for u, c in _mul_masks_gram(s, t, q.form.gram, k).items()] for t in masks]
        for s in masks
    ]
    linv = q.value.inverse()
    powers = [order.one_ideal()]  # L^(-h), h = 0 .. n/2
    for _ in range(n // 2):
        powers.append(powers[-1] * linv)
    ideals = []
    for m in masks:
        ideal = order.one_ideal()
        for i in range(n):
            if m >> i & 1:
                ideal = ideal * q.coeff_ideals[i]
        ideals.append(ideal * powers[m.bit_count() // 2])
    dim = len(masks)
    labels = tuple(_mask_label(m) for m in masks)
    alg = StructureAlgebra(k, labels, table, [k.one()] + [k.zero()] * (dim - 1))
    # closure: coefficient of e_U in e_S e_T times a_S a_T inside a_U
    products = {}  # a_S a_T, once per unordered pair
    for i in range(dim):
        for j in range(dim):
            if alg.table[i][j] and (key := (min(i, j), max(i, j))) not in products:
                products[key] = ideals[i] * ideals[j]
            for u, cuv in alg.table[i][j]:
                if not ideals[u].contains_ideal(products[key], cuv):
                    raise ClosureViolation(
                        f"product {labels[i]} * {labels[j]} escapes at {labels[u]}"
                    )
    return EvenCliffordOrder(alg, ideals)


# ---------------------------------------------------------------------------
# Reductions


def split_reduction(order: QuadOrder, p: int) -> RingMap:
    """Q(sqrt d) -> F_p at a split odd prime (canonical least root)."""
    if p == 2 or not is_prime(p):
        raise ValueError("need an odd prime")
    if order.disc % p == 0:
        raise ValueError(f"{p} ramifies")
    root = sqrt_mod_p(order.d, p)
    if root is None:
        raise ValueError(f"{p} is inert; residue field is not prime")
    target = GF(p)

    def fn(x: QuadElement):
        a, b = x.a, x.b
        if a.denominator % p == 0 or b.denominator % p == 0:
            raise CliffinvError(f"denominator not invertible mod {p}")
        v = a.numerator * pow(a.denominator, -1, p) + b.numerator * pow(b.denominator, -1, p) * root
        return target.from_int(v)

    return RingMap(target, fn)


def reduction_commutes(q: IdealValuedForm, p: int) -> bool:
    """Even Clifford construction commutes with reduction mod a good split p."""
    order = q.order
    rm = split_reduction(order, p)
    diag, _ = diagonalize(q.form)
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
    target = GF(p)
    # reduction can kill a coefficient; the constructor drops the zeros
    table = [[[(k, rm.apply(c)) for k, c in row] for row in plane] for plane in alg.table]
    red = StructureAlgebra(target, alg.labels, table, [rm.apply(u) for u in alg.unit])
    if not red.validate_unit():
        return False
    return bool(linalg.det(trace_form(red), target))
