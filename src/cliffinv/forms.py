"""Quadratic forms over a field: diagonalisation, isotropy, Witt theory.

Convention: the stored Gram matrix G is the matrix of the half-polarised
symmetric bilinear form, so q(x) = x^T G x, the polar form is
b_q(x, y) = 2 x^T G y, diagonal entries are the values q(e_i), and the
rank-one form <a> has Gram [a].

Isotropy and Witt reduction work on the diagonal entries over both
bases, Q and F_p: a Gram matrix is diagonalised once on entry and not
rebuilt afterwards.  The local tests over Q (isotropy, Hasse invariant,
isometry) multiply and pair the scalars.local_class keys of the entries,
never the entries themselves, at the places of the entries' carried
classes (s, P) (see scalars), which an Entries tuple computes once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import linalg
from .errors import CliffinvError, DegenerateFormError, SearchExhausted, UnsupportedBase
from .records import record
from .scalars import (
    GF,
    QQ,
    Place,
    PrimeField,
    RationalField,
    SquareClass,
    class_mul,
    factor_integer,
    hilbert_pairing,
    local_class,
    local_class_mul,
    places_of,
    rational_class,
    rational_classes,
    rational_sqrt,
    sqrt_mod_p,
    square_class,
    squarefree_part,
    support_places,
)

TRIVIAL_LABEL = "trivial"


@record(frozen=True)
class DiagonalForm:
    """<a_1, ..., a_n> with all entries nonzero, kept as Entries."""

    entries: tuple
    field: object

    def __post_init__(self):
        object.__setattr__(self, "entries", Entries(self.entries))
        for a in self.entries:
            if not a:
                raise DegenerateFormError("diagonal entry is zero")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def to_quadratic(self) -> "QuadraticForm":
        z = self.field.zero()
        n = self.rank
        gram = tuple(
            tuple(self.entries[i] if i == j else z for j in range(n)) for i in range(n)
        )
        return QuadraticForm(gram, self.field)


@record(frozen=True)
class QuadraticForm:
    """Symmetric Gram matrix over a field, with values in the field."""

    gram: tuple
    field: object

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self):
        return linalg.det(self.gram, self.field)


@record(frozen=True)
class WittClass:
    """Anisotropic kernel entries plus the split-off hyperbolic count."""

    kernel: tuple
    index: int
    field: object

    @property
    def rank(self) -> int:
        return len(self.kernel) + 2 * self.index

    def is_trivial(self) -> bool:
        return not self.kernel

    def __eq__(self, other):
        if not isinstance(other, WittClass):
            return NotImplemented
        if self.field != other.field:
            return False
        if len(self.kernel) != len(other.kernel):
            return False
        if not self.kernel:
            return True
        return isometric_diagonal(self.kernel, other.kernel, self.field)

    def __hash__(self):
        return hash((self.field, len(self.kernel)))


def _as_diagonal(q) -> DiagonalForm:
    """q itself when diagonal, else its diagonalisation."""
    return q if isinstance(q, DiagonalForm) else diagonalize(q)[0]


def diagonalize(q: QuadraticForm):
    """Diagonalise by congruence, skipping zero entries: (form, P), P^T G P diagonal."""
    if isinstance(q, DiagonalForm):
        n = q.rank
        return q, linalg.identity(n, q.field)
    field = q.field
    n = q.rank
    g = [list(r) for r in q.gram]
    p = linalg.identity(n, field)  # columns are the new basis vectors
    cols = [[p[i][j] for i in range(n)] for j in range(n)]

    def add_col(dst, src, c):
        for i in range(n):
            if cols[src][i]:
                cols[dst][i] = cols[dst][i] + c * cols[src][i]
            if g[i][src]:
                g[i][dst] = g[i][dst] + c * g[i][src]
        for j in range(n):
            if g[src][j]:
                g[dst][j] = g[dst][j] + c * g[src][j]

    def swap_col(i, j):
        cols[i], cols[j] = cols[j], cols[i]
        for r in g:
            r[i], r[j] = r[j], r[i]
        g[i], g[j] = g[j], g[i]

    for k in range(n):
        if not g[k][k]:
            pivot = next((j for j in range(k + 1, n) if g[j][j]), None)
            if pivot is not None:
                swap_col(k, pivot)
            else:
                off = next((j for j in range(k + 1, n) if g[k][j]), None)
                if off is None:
                    raise DegenerateFormError("form is not regular")
                add_col(k, off, field.one())
        pivot_val = g[k][k]
        for j in range(k + 1, n):
            if g[k][j]:
                add_col(j, k, -(g[k][j] / pivot_val))
    entries = tuple(g[i][i] for i in range(n))
    pmat = [[cols[j][i] for j in range(n)] for i in range(n)]
    return DiagonalForm(entries, field), pmat


def orthogonal_sum(q, q2):
    """Block-diagonal sum; the fields must match."""
    if isinstance(q, DiagonalForm) and isinstance(q2, DiagonalForm):
        if q.field != q2.field:
            raise ValueError("orthogonal sum needs a common base field")
        entries = Entries(q.entries + q2.entries)
        if "squarefree" in vars(q.entries) and "squarefree" in vars(q2.entries):
            (c1, r1), (c2, r2) = q.entries.squarefree, q2.entries.squarefree
            entries.squarefree = [*c1, *c2], [*r1, *r2]  # the summands' classes carry over
        return DiagonalForm(entries, q.field)
    qa = q.to_quadratic() if isinstance(q, DiagonalForm) else q
    qb = q2.to_quadratic() if isinstance(q2, DiagonalForm) else q2
    if qa.field != qb.field:
        raise ValueError("orthogonal sum needs a common base field")
    z = qa.field.zero()
    n, m = qa.rank, qb.rank
    gram = []
    for i in range(n):
        gram.append(tuple(qa.gram[i]) + (z,) * m)
    for i in range(m):
        gram.append((z,) * n + tuple(qb.gram[i]))
    return QuadraticForm(tuple(gram), qa.field)


def hyperbolic(r: int, field=QQ) -> QuadraticForm:
    """The rank-2r hyperbolic form on Hom(P, O) + P for free P of rank r."""
    if r < 1:
        raise ValueError("rank parameter must be >= 1")
    z = field.zero()
    half = field.one() / field.from_int(2)
    n = 2 * r
    gram = [[z] * n for _ in range(n)]
    for i in range(r):
        gram[i][r + i] = half
        gram[r + i][i] = half
    return QuadraticForm(tuple(tuple(row) for row in gram), field)


def twist(q, n) -> QuadraticForm | DiagonalForm:
    """Scale the form by the nonzero scalar n."""
    if not n:
        raise ValueError("twist by zero")
    if isinstance(q, DiagonalForm):
        return DiagonalForm(tuple(n * a for a in q.entries), q.field)
    gram = tuple(tuple(n * x for x in row) for row in q.gram)
    return QuadraticForm(gram, q.field)


def signed_discriminant(q) -> SquareClass:
    """(-1)^(n(n-1)/2) det(G) as a square class.

    A diagonal form over Q multiplies the carried classes of its entries,
    so the product of the entries is never factored.
    """
    field = q.field
    if not (isinstance(q, DiagonalForm) and isinstance(field, RationalField)):
        return square_class(signed_det(q))
    sign = -1 if (q.rank * (q.rank - 1) // 2) % 2 else 1
    return SquareClass(field, class_mul(*q.entries.squarefree[0], sign=sign)[0])


def signed_det(q):
    """The signed determinant as a scalar (any base field)."""
    field = q.field
    if isinstance(q, DiagonalForm):
        d = field.one()
        for a in q.entries:
            d = d * a
        n = q.rank
    else:
        d = q.det()
        n = q.rank
    if not d:
        raise DegenerateFormError("form is not regular")
    if (n * (n - 1) // 2) % 2:
        d = -d
    return d


# ---------------------------------------------------------------------------
# Isotropy on diagonal entries: local-global over Q, rank and
# discriminant over F_p


def _squarefree_entries(entries):
    """Write each rational entry a as s * r^2: returns the carried classes
    (s, P) of scalars.rational_classes, read off one coprime base of all
    numerators and denominators, and the positive rationals r."""
    out = rational_classes(entries)
    return out, [rational_sqrt(Fraction(a) / s) for a, (s, _) in zip(entries, out)]


class Entries(tuple):
    """Diagonal entries; over Q, squarefree is _squarefree_entries of the
    tuple, computed once: a prime above scalars._SMALL_BOUND that one entry
    shows splits the others by a gcd, not by trial division.  Entries(e) is
    e when e is already an Entries."""

    def __new__(cls, entries):
        return entries if type(entries) is cls else super().__new__(cls, entries)

    squarefree = cached_property(_squarefree_entries)


def local_profile(entries, v: Place):
    """(key of a_1...a_n, Hasse invariant) of <a_1, ..., a_n> at v.

    The Hasse invariant is the product of the Hilbert symbols
    (a_i, a_j)_v over i < j, by bilinearity the n - 1 symbols
    (a_1...a_{j-1}, a_j)_v, all on local_class keys.
    """
    prefix, hasse = local_class(1, v), 1
    for a in entries:
        k = local_class(a, v)
        hasse *= hilbert_pairing(prefix, k, v)
        prefix = local_class_mul(prefix, k, v)
    return prefix, hasse


def hasse_invariant(entries, v: Place) -> int:
    """Product of Hilbert symbols (a_i, a_j)_v over i < j."""
    return local_profile(entries, v)[1]


def _isotropic_locally(entries, v: Place) -> bool:
    n = len(entries)
    if n <= 1:
        return False
    if v.is_infinite:
        return any(a > 0 for a in entries) and any(a < 0 for a in entries)
    d, eps = local_profile(entries, v)
    one, minus_one = local_class(1, v), local_class(-1, v)
    minus_d = local_class_mul(minus_one, d, v)
    if n == 2:
        return minus_d == one
    if n == 3:
        return hilbert_pairing(minus_one, minus_d, v) == eps
    if n == 4:
        return d != one or eps == hilbert_pairing(minus_one, minus_one, v)
    return True  # rank >= 5 at a finite place


def _isotropic_sf(sf) -> bool:
    """Hasse-Minkowski for <sf>, the entries carried classes (s, P)."""
    n = len(sf)
    if n <= 1:
        return False
    if n == 2:
        return sf[0][0] == -sf[1][0]
    if n >= 5:
        return any(s > 0 for s, _ in sf) and any(s < 0 for s, _ in sf)
    return all(_isotropic_locally([s for s, _ in sf], v) for v in places_of(sf))


def is_isotropic(q) -> bool:
    """Does the regular form represent zero nontrivially?

    Over F_p this is the rank/discriminant criterion; over Q it is the
    local-global principle with rank-by-rank local tests.
    """
    field = q.field
    entries = _as_diagonal(q).entries
    n = len(entries)
    if n <= 1:
        return False
    if isinstance(field, PrimeField):
        if n >= 3:
            return True
        return field.is_square(-entries[0] * entries[1])
    if isinstance(field, RationalField):
        return _isotropic_sf(entries.squarefree[0])
    raise UnsupportedBase(f"isotropy over {field!r} is not decided here")


def isotropic_vector(q):
    """A nonzero vector with q(v) = 0, in the coordinates of q.

    is_isotropic decides first and a ValueError reports an anisotropic
    form.  Over F_p the zero comes from a direct search over the residues.
    Over Q it is constructed on the signed squarefree integer diagonal: a
    pair <a, -a>, else the first isotropic ternary subform, solved by
    Legendre descent, else the least auxiliary value t for which
    <a1, a2, -t> and <t, a3, ..., an> are both isotropic, one solved by
    descent and the other in turn.  The vector is checked exactly before
    it is returned.
    """
    field = q.field
    if not is_isotropic(q):
        raise ValueError("form is anisotropic")
    diag, pmat = diagonalize(q) if not isinstance(q, DiagonalForm) else (q, None)
    vec = _isotropic_vector_diag(diag.entries, field)
    if pmat is not None:
        vec = linalg.matvec(pmat, vec, field)
    return vec


def _isotropic_vector_diag(entries, field):
    if isinstance(field, PrimeField):
        vec = _fp_zero(entries, field)
    elif isinstance(field, RationalField):
        sf, scales = entries.squarefree
        x, _ = _split_plane(sf)
        vec = [Fraction(c) / s for c, s in zip(x, scales)]
    else:
        raise UnsupportedBase(f"isotropic vectors over {field!r} unsupported")
    _check_zero(entries, vec, field)
    return vec


def _check_zero(entries, vec, field):
    val = field.zero()
    for a, x in zip(entries, vec):
        val = val + a * x * x
    if val or not any(vec):
        raise CliffinvError(f"{vec} is not a nonzero zero of <{entries}>")


def _fp_zero(entries, field):
    n = len(entries)
    zero, one = field.zero(), field.one()
    for i in range(n):
        for j in range(i + 1, n):
            r = field.sqrt(-entries[i] / entries[j])
            if r is not None:
                v = [zero] * n
                v[i], v[j] = one, r
                return v
    # rank >= 3: solve a x^2 + b y^2 + c = 0 with the third slot at 1.  The
    # sets {a x^2} and {-c - b y^2} each hold (p + 1) / 2 residues, so they
    # meet, and about every other y gives a square -(b y^2 + c) / a.
    a, b, c = entries[0], entries[1], entries[2]
    for y in range(field.p):
        fy = field.from_int(y)
        x = field.sqrt(-(b * fy * fy + c) / a)
        if x is not None:
            v = [zero] * n
            v[0], v[1], v[2] = x, fy, one
            return v
    raise SearchExhausted("isotropic vector mod p", field.p)


# Bound on |t| / d in the search for the auxiliary value of _split_plane.
AUX_BOUND = 10**6


def _split_plane(sf):
    """(v, rest) for an isotropic form <sf> on carried classes (s, P).

    v is a nonzero integer zero of <s>, and <sf> is isometric to
    <1, -1> + <rest>, rest again carried classes, so no product is factored.
    """
    n = len(sf)
    for i, j in combinations(range(n), 2):
        if sf[i][0] == -sf[j][0]:  # the hyperbolic plane itself
            return _embed(n, (i, j), (1, 1)), _drop(sf, (i, j))
    for idx in combinations(range(n), 3):
        sub = [sf[k] for k in idx]
        if _isotropic_sf(sub):  # then <a, b, c> = <1, -1, -abc>
            zero = _ternary_zero(*(s for s, _ in sub))
            return _embed(n, idx, zero), _drop(sf, idx) + [class_mul(*sub, sign=-1)]
    # n >= 4: a1 (x/z)^2 + a2 (y/z)^2 = t, so <a1, a2> = <t, a1 a2 t>, and a
    # zero (w, u) of <t, a3, ..., an> gives the zero (w x, w y, z u) of <sf>.
    a1, a2, rest = sf[0], sf[1], sf[2:]
    t = _auxiliary_value(a1, a2, rest)
    x, y, z = _ternary_zero(a1[0], a2[0], -t[0])
    (w, *u), rest_t = _split_plane([t] + rest)
    return _primitive([w * x, w * y] + [z * c for c in u]), [class_mul(a1, a2, t)] + rest_t


def _auxiliary_value(a1, a2, rest):
    """(t, P) for the least squarefree |t| with <a1, a2, -t>, <t, rest> isotropic.

    At a place v both tests depend only on the class of t in Q_v*/Q_v*^2,
    so each class is tested once per place of 2 a1 a2 rest; a candidate
    that passes every such place is confirmed by the exact test.  A prime
    p of those places at which no unit class passes divides every such t,
    so only multiples of d, the product of these primes, are tried.
    """
    places = places_of([a1, a2, *rest])
    verdicts = [{} for _ in places]
    b1, b2, ints = a1[0], a2[0], [s for s, _ in rest]

    def local(t, v, seen):
        key = local_class(t, v)
        if key not in seen:
            seen[key] = _isotropic_locally([b1, b2, -t], v) and _isotropic_locally([t] + ints, v)
        return seen[key]

    d = 1
    for v, seen in zip(places, verdicts):
        if v.is_infinite:
            continue
        units = (1, 3, 5, 7) if v.p == 2 else (1, GF(v.p).nonresidue().v)
        if not any(local(u, v, seen) for u in units):
            d *= v.p
    for m in range(1, AUX_BOUND + 1):
        for t in (d * m, -d * m):
            if all(local(t, v, seen) for v, seen in zip(places, verdicts)):
                s, ps = rational_class(t)
                if s == t and _isotropic_sf([a1, a2, (-t, ps)]) and _isotropic_sf([(t, ps)] + rest):
                    return t, ps
    raise SearchExhausted("auxiliary value of a rational isotropic vector", AUX_BOUND)


def _ternary_zero(a, b, c):
    """Nonzero integer zero of the isotropic <a, b, c>, signed squarefree entries.

    While two coefficients share g = gcd > 1, say a and b, pass to
    <a/g, b/g, c g/h^2> with h = gcd(g, c): its zero (X, Y, Z) gives the
    zero (h X, h Y, g Z).  Once they are pairwise coprime, with |c| least,
    a zero (w, x, y) of w^2 = -ac x^2 - bc y^2 gives (c x, c y, w).
    """
    coef, mult = [a, b, c], [1, 1, 1]
    reduced = False
    while not reduced:
        reduced = True
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = math.gcd(coef[i], coef[j])
            if g > 1:
                h = math.gcd(g, coef[k])
                coef[i], coef[j], coef[k] = coef[i] // g, coef[j] // g, coef[k] * g // (h * h)
                mult[i], mult[j], mult[k] = mult[i] * h, mult[j] * h, mult[k] * g
                reduced = False
    i, j, k = sorted(range(3), key=lambda m: -abs(coef[m]))
    w, x, y = _legendre_descent(-coef[i] * coef[k], -coef[j] * coef[k])
    sol = [0, 0, 0]
    sol[i], sol[j], sol[k] = coef[k] * x, coef[k] * y, w
    return tuple(_primitive([m * s for m, s in zip(mult, sol)]))


def _legendre_descent(a, b):
    """Nonzero integer (w, x, y) with w^2 = a x^2 + b y^2 (Legendre descent).

    a and b are squarefree and the equation has a nonzero solution.  With
    r^2 = a mod b, |r| <= |b|/2 and r^2 - a = b q0 d^2, q0 squarefree, a
    solution (w, x, y) for (a, q0) gives (r w + a x, w + r x, q0 d y) for
    (a, b), as the norm from Q(sqrt a) is multiplicative.  |q0| < |b|
    whenever |a| <= |b| > 1, so the descent ends.
    """
    if abs(a) > abs(b):
        w, y, x = _legendre_descent(b, a)
        return w, x, y
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    r = None if b == -1 else _sqrt_mod(a, abs(b))
    if r is None:
        raise CliffinvError(f"w^2 = {a} x^2 + {b} y^2 has no nonzero solution")
    q = (r * r - a) // b
    q0 = squarefree_part(q)
    d = math.isqrt(q // q0)
    w, x, y = _legendre_descent(a, q0)
    return tuple(_primitive([r * w + a * x, w + r * x, q0 * d * y]))


def _sqrt_mod(a, m):
    """r with r^2 = a mod the squarefree m > 0 and |r| <= m/2, or None."""
    r, done = 0, 1
    for p in factor_integer(m):
        s = a % 2 if p == 2 else sqrt_mod_p(a, p)
        if s is None:
            return None
        r += done * ((s - r) * pow(done, -1, p) % p)
        done *= p
    return r - m if 2 * r > m else r


def _embed(n, idx, vals):
    v = [0] * n
    for k, c in zip(idx, vals):
        v[k] = c
    return v


def _drop(sf, idx):
    return [a for k, a in enumerate(sf) if k not in idx]


def _primitive(v):
    g = math.gcd(*v)
    return [c // g for c in v]


def witt_decompose(q) -> WittClass:
    """Split off hyperbolic planes until the rest is anisotropic.

    The form is diagonalised once.  Over Q its entries are factored once,
    into carried classes (s, P), and is_isotropic tests the form itself;
    each split checks its isotropic vector exactly and replaces the classes
    by those of the complement of the plane, so the kernel entries are
    signed squarefree integers, and the kernel carries their classes.
    Over F_p every ternary form is isotropic, and an isotropic <a, b, c> is
    isometric to <1, -1, -abc>, so planes come off three entries at a time;
    a last binary <a, b> is a plane exactly when -ab is a square.
    """
    field = q.field
    if not isinstance(field, (RationalField, PrimeField)):
        raise UnsupportedBase("Witt decomposition over Q and F_p only")
    d = _as_diagonal(q)
    entries, index = d.entries, 0
    if isinstance(field, RationalField):
        sf, isotropic = entries.squarefree[0], is_isotropic(d)
        while isotropic:
            v, rest = _split_plane(sf)
            _check_zero([s for s, _ in sf], v, field)
            sf, index = rest, index + 1
            isotropic = _isotropic_sf(sf)
        kernel = Entries(Fraction(s) for s, _ in sf)
        kernel.squarefree = sf, [Fraction(1)] * len(sf)  # the classes travel with the kernel
        return WittClass(kernel, index, field)
    while len(entries) >= 3:
        a, b, c, *rest = entries
        entries, index = (-a * b * c, *rest), index + 1
    if len(entries) == 2 and field.is_square(-entries[0] * entries[1]):
        entries, index = (), index + 1
    return WittClass(tuple(entries), index, field)


def signature(entries) -> int:
    """Signature over Q: positives minus negatives."""
    pos = sum(1 for a in entries if Fraction(a) > 0)
    return 2 * pos - len(entries)


def isometric_diagonal(e1, e2, field) -> bool:
    """Exact isometry test for regular diagonal forms over Q or F_p."""
    if len(e1) != len(e2):
        return False
    if not e1:
        return True
    if not isinstance(field, (RationalField, PrimeField)):
        raise UnsupportedBase("isometry test over Q and F_p only")
    d1, d2 = (signed_discriminant(DiagonalForm(tuple(es), field)) for es in (e1, e2))
    if d1 != d2:
        return False
    if isinstance(field, PrimeField):
        return True
    if signature(e1) != signature(e2):
        return False
    for v in support_places(*(list(e1) + list(e2))):
        if hasse_invariant(e1, v) != hasse_invariant(e2, v):
            return False
    return True

