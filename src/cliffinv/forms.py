"""Quadratic forms over a field: diagonalisation, isotropy, Witt theory.

Convention: the stored Gram matrix G is the matrix of the half-polarised
symmetric bilinear form, so q(x) = x^T G x, the polar form is
b_q(x, y) = 2 x^T G y, diagonal entries are the values q(e_i), and the
rank-one form <a> has Gram [a].

Isotropy and Witt reduction work on the diagonal entries over both
bases, Q and F_p: a Gram matrix is diagonalised once on entry and not
rebuilt afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import CliffinvError, DegenerateFormError, SearchExhausted, UnsupportedBase
from .scalars import (
    GF,
    QQ,
    Place,
    PrimeField,
    RationalField,
    SquareClass,
    factor_integer,
    hilbert_symbol,
    rational_sqrt,
    sqrt_mod_p,
    square_class,
    squarefree_mul,
    squarefree_part,
    support_places,
)

TRIVIAL_LABEL = "trivial"


@dataclass(frozen=True)
class DiagonalForm:
    """<a_1, ..., a_n> with all entries nonzero."""

    entries: tuple
    field: object

    def __post_init__(self):
        for a in self.entries:
            if not a:
                raise DegenerateFormError("diagonal entry is zero")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def to_quadratic(self, value_label: str = TRIVIAL_LABEL) -> "QuadraticForm":
        z = self.field.zero()
        n = self.rank
        gram = tuple(
            tuple(self.entries[i] if i == j else z for j in range(n)) for i in range(n)
        )
        return QuadraticForm(gram, self.field, value_label)


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric Gram matrix plus the label of the value line."""

    gram: tuple
    field: object
    value_label: str = TRIVIAL_LABEL

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
        return linalg.det([list(r) for r in self.gram], self.field)


@dataclass(frozen=True)
class Alignment:
    """A square-class twist; over a field just a nonzero scale factor."""

    scale: object

    def __post_init__(self):
        if not self.scale:
            raise ValueError("alignment scale must be nonzero")


@dataclass(frozen=True)
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


def _as_entries(q):
    """Diagonal entries of q, diagonalising first when necessary."""
    if isinstance(q, DiagonalForm):
        return q.entries
    d, _ = diagonalize(q)
    return d.entries


def diagonalize(q: QuadraticForm):
    """Diagonalise by congruence: returns (form, P) with P^T G P diagonal."""
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
            cols[dst][i] = cols[dst][i] + c * cols[src][i]
        for i in range(n):
            g[i][dst] = g[i][dst] + c * g[i][src]
        for j in range(n):
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
    """Block-diagonal sum; fields and value labels must match."""
    if isinstance(q, DiagonalForm) and isinstance(q2, DiagonalForm):
        if q.field != q2.field:
            raise ValueError("orthogonal sum needs a common base field")
        return DiagonalForm(q.entries + q2.entries, q.field)
    qa = q.to_quadratic() if isinstance(q, DiagonalForm) else q
    qb = q2.to_quadratic() if isinstance(q2, DiagonalForm) else q2
    if qa.field != qb.field:
        raise ValueError("orthogonal sum needs a common base field")
    if qa.value_label != qb.value_label:
        raise ValueError("orthogonal sum needs a common value label")
    z = qa.field.zero()
    n, m = qa.rank, qb.rank
    gram = []
    for i in range(n):
        gram.append(tuple(qa.gram[i]) + (z,) * m)
    for i in range(m):
        gram.append((z,) * n + tuple(qb.gram[i]))
    return QuadraticForm(tuple(gram), qa.field, qa.value_label)


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


def twist(q, alignment) -> QuadraticForm | DiagonalForm:
    """Scale the form by the alignment's rank-one factor."""
    n = alignment.scale if isinstance(alignment, Alignment) else alignment
    if not n:
        raise ValueError("twist by zero")
    if isinstance(q, DiagonalForm):
        return DiagonalForm(tuple(n * a for a in q.entries), q.field)
    gram = tuple(tuple(n * x for x in row) for row in q.gram)
    return QuadraticForm(gram, q.field, q.value_label)


def signed_discriminant(q) -> SquareClass:
    """(-1)^(n(n-1)/2) det(G) as a square class.

    A diagonal form over Q multiplies the classes of its entries, so the
    product of the entries is never factored.
    """
    field = q.field
    if not (isinstance(q, DiagonalForm) and isinstance(field, RationalField)):
        return square_class(signed_det(q), field)
    out = square_class(-1 if (q.rank * (q.rank - 1) // 2) % 2 else 1, field)
    for a in q.entries:
        out = out * square_class(a, field)
    return out


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
    """Write each rational entry a as s * r^2: returns the signed squarefree
    integers s and the positive rationals r."""
    out = []
    scales = []
    for a in entries:
        a = Fraction(a)
        sf = square_class(a).rep
        out.append(sf)
        scales.append(rational_sqrt(a / sf))
    return out, scales


def is_local_square(d: Fraction, v: Place) -> bool:
    return _local_class(d.numerator * d.denominator, v) == _local_class(1, v)


def hasse_invariant(entries, v: Place) -> int:
    """Product of Hilbert symbols (a_i, a_j)_v over i < j, by bilinearity
    the n - 1 symbols (a_1...a_{j-1}, a_j)_v."""
    out, prefix = 1, Fraction(1)
    for a in entries:
        if prefix != 1:  # (1, a)_v = 1
            out *= hilbert_symbol(prefix, a, v)
        prefix *= Fraction(a)
    return out


def _isotropic_locally(entries, v: Place) -> bool:
    n = len(entries)
    if n <= 1:
        return False
    if v.is_infinite:
        return any(a > 0 for a in entries) and any(a < 0 for a in entries)
    d = Fraction(1)
    for a in entries:
        d *= a
    if n == 2:
        return is_local_square(-d, v)
    eps = hasse_invariant(entries, v)
    if n == 3:
        return hilbert_symbol(-1, -d, v) == eps
    if n == 4:
        return (not is_local_square(d, v)) or eps == hilbert_symbol(-1, -1, v)
    return True  # rank >= 5 at a finite place


def _isotropic_sf(sf) -> bool:
    """Hasse-Minkowski for <sf>, the entries signed squarefree integers."""
    n = len(sf)
    if n <= 1:
        return False
    if n == 2:
        return sf[0] == -sf[1]
    if n >= 5:
        return any(a > 0 for a in sf) and any(a < 0 for a in sf)
    return all(_isotropic_locally(sf, v) for v in support_places(*sf))


def is_isotropic(q) -> bool:
    """Does the regular form represent zero nontrivially?

    Over F_p this is the rank/discriminant criterion; over Q it is the
    local-global principle with rank-by-rank local tests.
    """
    field = q.field
    entries = _as_entries(q)
    n = len(entries)
    if n <= 1:
        return False
    if isinstance(field, PrimeField):
        if n >= 3:
            return True
        return field.is_square(-entries[0] * entries[1])
    if isinstance(field, RationalField):
        return _isotropic_sf(_squarefree_entries(entries)[0])
    raise UnsupportedBase(
        f"isotropy over {field!r} is not decided here; bounded searches live in dedekind"
    )


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
        sf, scales = _squarefree_entries(entries)
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
    # rank >= 3: solve a x^2 + b y^2 + c = 0 with the third slot at 1
    p = field.p
    a, b, c = entries[0], entries[1], entries[2]
    lhs = {}
    for x in range(p):
        fx = a * field.from_int(x) * field.from_int(x)
        lhs.setdefault(fx.v, x)
    for y in range(p):
        w = -(b * field.from_int(y) * field.from_int(y) + c)
        if w.v in lhs:
            v = [zero] * n
            v[0] = field.from_int(lhs[w.v])
            v[1] = field.from_int(y)
            v[2] = one
            return v
    raise SearchExhausted("isotropic vector mod p", p)


# Bound on |t| / d in the search for the auxiliary value of _split_plane.
AUX_BOUND = 10**6


def _split_plane(sf):
    """(v, rest) for an isotropic form <sf> on signed squarefree integers.

    v is a nonzero integer zero of <sf>, and <sf> is isometric to
    <1, -1> + <rest>, rest again signed squarefree integers.
    """
    n = len(sf)
    for i, j in combinations(range(n), 2):
        if sf[i] == -sf[j]:  # the hyperbolic plane itself
            return _embed(n, (i, j), (1, 1)), _drop(sf, (i, j))
    for idx in combinations(range(n), 3):
        sub = [sf[k] for k in idx]
        if _isotropic_sf(sub):  # then <a, b, c> = <1, -1, -abc>
            return _embed(n, idx, _ternary_zero(*sub)), _drop(sf, idx) + [-squarefree_mul(*sub)]
    # n >= 4: a1 (x/z)^2 + a2 (y/z)^2 = t, so <a1, a2> = <t, a1 a2 t>, and a
    # zero (w, u) of <t, a3, ..., an> gives the zero (w x, w y, z u) of <sf>.
    a1, a2, rest = sf[0], sf[1], sf[2:]
    t = _auxiliary_value(a1, a2, rest)
    x, y, z = _ternary_zero(a1, a2, -t)
    (w, *u), rest_t = _split_plane([t] + rest)
    return _primitive([w * x, w * y] + [z * c for c in u]), [squarefree_mul(a1, a2, t)] + rest_t


def _auxiliary_value(a1, a2, rest):
    """Least squarefree |t| with <a1, a2, -t> and <t, rest> both isotropic.

    At a place v both tests depend only on the class of t in Q_v*/Q_v*^2,
    so each class is tested once per place of 2 a1 a2 rest; a candidate
    that passes every such place is confirmed by the exact test.  A prime
    p of those places at which no unit class passes divides every such t,
    so only multiples of d, the product of these primes, are tried.
    """
    places = support_places(a1, a2, *rest)
    verdicts = [{} for _ in places]

    def local(t, v, seen):
        key = _local_class(t, v)
        if key not in seen:
            seen[key] = _isotropic_locally([a1, a2, -t], v) and _isotropic_locally([t] + rest, v)
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
            if all(local(t, v, seen) for v, seen in zip(places, verdicts)) and squarefree_part(t) == t:
                if _isotropic_sf([a1, a2, -t]) and _isotropic_sf([t] + rest):
                    return t
    raise SearchExhausted("auxiliary value of a rational isotropic vector", AUX_BOUND)


def _local_class(t, v):
    """A key for the class of the nonzero integer t in Q_v*/Q_v*^2."""
    if v.is_infinite:
        return t > 0
    p, e = v.p, 0
    while t % p == 0:
        t //= p
        e += 1
    return e % 2, t % 8 if p == 2 else pow(t, (p - 1) // 2, p)


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

    The form is diagonalised once.  Over Q it stays diagonal on signed
    squarefree integers: each split checks its isotropic vector exactly
    and replaces the form by the complement of the plane in that shape,
    so the kernel entries are signed squarefree integers.  Over F_p every
    ternary form is isotropic, and an isotropic <a, b, c> is isometric to
    <1, -1, -abc>, so planes come off three entries at a time; a last
    binary <a, b> is a plane exactly when -ab is a square.
    """
    field = q.field
    if not isinstance(field, (RationalField, PrimeField)):
        raise UnsupportedBase("Witt decomposition over Q and F_p only")
    entries = _as_entries(q)
    index = 0
    if isinstance(field, RationalField):
        sf, _ = _squarefree_entries(entries)
        while is_isotropic(DiagonalForm(tuple(Fraction(a) for a in sf), field)):
            v, rest = _split_plane(sf)
            _check_zero(sf, v, field)
            sf, index = rest, index + 1
        return WittClass(tuple(Fraction(a) for a in sf), index, field)
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
