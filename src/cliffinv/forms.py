"""Quadratic forms over a field: diagonalisation, isotropy, Witt theory.

Convention: the stored Gram matrix G is the matrix of the half-polarised
symmetric bilinear form, so q(x) = x^T G x, the polar form is
b_q(x, y) = 2 x^T G y, diagonal entries are the values q(e_i), and the
rank-one form <a> has Gram [a].

Isotropy, Witt reduction and isometry work on the diagonal entries: a
Gram matrix is diagonalised once on entry and not rebuilt afterwards, and
the field answers (see scalars: RationalField and PrimeField own the Witt
theory of diagonal entries), so no function here tests the field's type.
Over Q an Entries tuple computes the carried classes (s, P) of its entries
once, and the field's local tests read those, never the entries' product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import linalg
from .errors import DegenerateFormError, UnsupportedBase
from .records import record
from .scalars import QQ, SquareClass, _check_zero, rational_classes, rational_sqrt, square_class

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

    A diagonal form over a field with a Witt theory asks the field: over Q
    it multiplies the carried classes of the entries, so the product of the
    entries is never factored.
    """
    if isinstance(q, DiagonalForm) and hasattr(q.field, "discriminant"):
        return q.field.discriminant(q.entries)
    return square_class(signed_det(q))


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
# Isotropy, Witt reduction and isometry, answered by the field


def _squarefree_entries(entries):
    """Write each rational entry a as s * r^2: returns the carried classes
    (s, P) of scalars.rational_classes, read off one coprime base of all
    numerators and denominators, and the positive rationals r."""
    out = rational_classes(entries)
    return out, [rational_sqrt(Fraction(a) / s) for a, (s, _) in zip(entries, out)]


class Entries(tuple):
    """Diagonal entries; over Q, squarefree is _squarefree_entries of the
    tuple, computed once over one coprime base: a prime that trial division
    certifies in one entry splits the others by a gcd, not by Brent's rho.
    Entries(e) is e when e is already an Entries."""

    def __new__(cls, entries):
        return entries if type(entries) is cls else super().__new__(cls, entries)

    squarefree = cached_property(_squarefree_entries)


def witt_theory(field):
    """field, when it owns the Witt theory of diagonal entries (isotropic,
    isotropic_zero, witt_reduce, discriminant, isometric, clifford_places;
    see scalars), else UnsupportedBase naming it."""
    if not hasattr(field, "witt_reduce"):
        raise UnsupportedBase(f"no Witt theory of diagonal forms over {field!r}")
    return field


def is_isotropic(q) -> bool:
    """Does the regular form represent zero nontrivially?  The field decides
    on the diagonal entries."""
    return witt_theory(q.field).isotropic(_as_diagonal(q).entries)


def isotropic_vector(q):
    """A nonzero vector with q(v) = 0, in the coordinates of q.

    The Gram matrix is diagonalised once; is_isotropic of that diagonal
    form decides, and a ValueError reports an anisotropic form.  The field
    finds a zero of the diagonal entries, which is checked exactly before
    it is carried back to the coordinates of q.
    """
    field = q.field
    diag, pmat = (q, None) if isinstance(q, DiagonalForm) else diagonalize(q)
    if not is_isotropic(diag):
        raise ValueError("form is anisotropic")
    vec = field.isotropic_zero(diag.entries)
    _check_zero(diag.entries, vec, field)
    if pmat is not None:
        vec = linalg.matvec(pmat, vec, field)
    return vec


def witt_decompose(q) -> WittClass:
    """Split off hyperbolic planes until the rest is anisotropic.

    The form is diagonalised once and the field reduces the entries, which
    decides isotropy on the way: over Q by local-global splitting on
    carried classes, each split vector checked exactly; over F_p three
    entries at a time (see scalars).  The index is positive exactly when
    the form is isotropic.
    """
    field = witt_theory(q.field)
    kernel, index = field.witt_reduce(_as_diagonal(q).entries)
    return WittClass(kernel, index, field)


def isometric_diagonal(e1, e2, field) -> bool:
    """Exact isometry test for regular diagonal forms: equal lengths, then
    the field's isometric (over Q discriminant, signature and Hasse
    invariants; over F_p the discriminant)."""
    if len(e1) != len(e2):
        return False
    if not e1:
        return True
    return witt_theory(field).isometric(Entries(e1), Entries(e2))
