"""Finite-dimensional algebras given by exact structure constants.

The structure table is sparse: table[i][j] is a tuple of (k, c) pairs,
sorted by k with every c nonzero, and e_i e_j = sum c e_k over them.
Clifford, matrix and quaternion algebras have one pair per entry, so
a table holds dim^2 pairs rather than dim^3 coefficients.  A morphism
is a `linalg` column map {i: {k: c}}, which the multiplicativity and
bijectivity checks read as stored.  Elements stay dense coordinate
vectors, because `center` returns its basis as such vectors and the
benchmark's answer checks read them by coordinate.  Every involution
the package builds is diagonal on the basis (the standard involution
of a quaternion algebra and tensor products of those), so `involution`
is a sign vector: one field element +-1 per basis element, with
sigma(e_i) = s_i e_i.
Dimension is capped at 64, which is all the even Clifford algebras up
to rank 7 need.  Isomorphism testing is deliberately not general:
quaternions go through ramification data, etale quadratic algebras
through their discriminant, split matrix algebras through explicit
certificates.

A table is twisted when each entry is one pair (k(i, j), c_ij), k is
symmetric with a permutation in each row, and e_0 is the unit, as in a
Clifford algebra.  `center` and `find_quaternion_basis` read such a
table directly; other tables take a linear solve and a search.
`AlgebraMorphism.is_multiplicative` reads one entry per basis pair
where columns and entries are one term.
"""

from __future__ import annotations

import functools
import math
from itertools import product
from operator import itemgetter

from . import linalg
from .errors import CliffinvError, SearchExhausted, UnsupportedBase
from .forms import DiagonalForm, is_isotropic
from .records import record

MAX_DIM = 64


def sparse_row(vec):
    """The (k, c) pairs of a dense coordinate vector, zeros dropped."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _entry(row):
    """A table entry as (k, c) pairs sorted by k, zeros dropped."""
    if type(row) is tuple and len(row) == 1 and row[0][1]:
        return row
    return tuple(sorted(((k, c) for k, c in row if c), key=itemgetter(0)))


class StructureAlgebra:
    def __init__(self, field, labels, table, unit, involution=None):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds cap {MAX_DIM}")
        # zero coefficients are dropped so that equal algebras have equal tables
        self.table = tuple(tuple(map(_entry, plane)) for plane in table)
        self.unit = tuple(unit)
        self.involution = None if involution is None else tuple(involution)

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    def mul(self, x, y):
        out = self.zero_vec()
        for k, c in self.mul_rows(sparse_row(x), sparse_row(y)).items():
            out[k] = c
        return out

    def mul_rows(self, xs, ys):
        """Product of two sparse rows as {k: c}, every c nonzero."""
        out = {}
        for i, xi in xs:
            ti = self.table[i]
            for j, yj in ys:
                c = xi * yj
                for k, t in ti[j]:
                    out[k] = out[k] + c * t if k in out else c * t
        return {k: c for k, c in out.items() if c}

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def apply_involution(self, x):
        if self.involution is None:
            raise CliffinvError("algebra carries no involution")
        return [s * c for s, c in zip(self.involution, x)]

    def is_scalar(self, x):
        """If x = c * unit return c, else None."""
        unit = self.unit
        pivot = next((i for i, u in enumerate(unit) if u), None)
        c = x[pivot] / unit[pivot]
        for a, u in zip(x, unit):
            if a != c * u:
                return None
        return c

    def validate_unit(self) -> bool:
        for i in range(self.dim):
            e = self.basis_vec(i)
            if self.mul(list(self.unit), e) != e or self.mul(e, list(self.unit)) != e:
                return False
        return True

    def __repr__(self):
        return f"StructureAlgebra(dim={self.dim}, field={self.field!r})"


@record
class AlgebraMorphism:
    """Linear map between algebras, the column map {i: {k: c}} that
    sends e_i to the sum of c e_k."""

    source: StructureAlgebra
    target: StructureAlgebra
    cols: dict

    def apply(self, x):
        out = self.target.zero_vec()
        for i, xi in enumerate(x):
            if xi:
                for k, c in self.cols.get(i, {}).items():
                    out[k] = out[k] + xi * c
        return out

    def preserves_unit(self) -> bool:
        return self.apply(self.source.unit) == list(self.target.unit)

    def is_multiplicative(self) -> bool:
        """phi(e_i) phi(e_j) = phi(e_i e_j) on every pair of basis elements.

        When every column is one term, phi(e_i) = v_i e_(s_i), a pair with
        e_i e_j = c e_k and e_(s_i) e_(s_j) = t e_s holds iff s_k == s and
        c v_k == v_i v_j t: three products, no dicts.  Other pairs compare
        sparse rows.
        """
        src, tgt = self.source, self.target
        cols = [tuple(self.cols.get(i, {}).items()) for i in range(src.dim)]
        one_term = all(len(col) == 1 for col in cols)
        for row, col_i in zip(src.table, cols):
            for e, col_j in zip(row, cols):
                if one_term and len(e) == 1:
                    ((si, vi),), ((sj, vj),), ((k, c),) = col_i, col_j, e
                    f = tgt.table[si][sj]
                    if len(f) == 1:
                        ((sk, vk),), ((s, t),) = cols[k], f
                        if sk != s or c * vk != vi * vj * t:
                            return False
                        continue
                lhs = {}
                for k, c in e:
                    for s, v in cols[k]:
                        lhs[s] = lhs[s] + c * v if s in lhs else c * v
                if {s: v for s, v in lhs.items() if v} != tgt.mul_rows(col_i, col_j):
                    return False
        return True

    def is_bijective(self) -> bool:
        return self.source.dim == self.target.dim and not linalg.kernel(
            self.cols, self.source.dim, self.source.field
        )

    def is_isomorphism(self) -> bool:
        return self.preserves_unit() and self.is_bijective() and self.is_multiplicative()


def associativity_witness(a: StructureAlgebra):
    """First basis triple (i, j, k) violating associativity, or None."""
    basis = [a.basis_vec(i) for i in range(a.dim)]
    prods = [[a.mul(x, y) for y in basis] for x in basis]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                if a.mul(prods[i][j], basis[k]) != a.mul(basis[i], prods[j][k]):
                    return (i, j, k)
    return None


def center(a: StructureAlgebra, generators=None):
    """Basis of the centre: read off a twisted table, solved for any other.

    The solve poses [x, e_u] = 0 for every basis vector e_u.  `generators`
    is unused: perfbench's clifford workload still passes it, and it goes
    when that call drops it.
    """
    cen = twisted_center(a)
    if cen is not None:
        return cen
    zero, table = a.field.zero(), a.table
    rows = []
    for u in range(a.dim):
        lm = {}  # coefficient of x_t in coordinate s of [x, e_u]
        for t in range(a.dim):
            comm = {}
            for s, c in table[t][u]:
                comm[s] = comm.get(s, zero) + c
            for s, c in table[u][t]:
                comm[s] = comm.get(s, zero) - c
            for s in sorted(comm):
                if comm[s]:
                    lm.setdefault(s, {})[t] = comm[s]
        rows.extend(lm.values())
    return linalg.nullspace_sparse(rows, a.dim, a.field)


def twisted_center(a: StructureAlgebra):
    """Basis of the centre of a twisted table, None for any other table.

    [x, e_j] = sum x_i (c_ij - c_ji) e_k(i,j) has distinct targets, so the
    centre is spanned by the e_i with table[i][j] == table[j][i] for all
    j: no linear solve.
    """
    cols = list(zip(*a.table))
    unit_row = tuple(((j, a.field.one()),) for j in range(a.dim))
    if a.table[0] != unit_row or cols[0] != unit_row:
        return None
    if any(len(e) != 1 for row in a.table for e in row):
        return None
    ks = [[e[0][0] for e in row] for row in a.table]
    if any(len(set(r)) != a.dim for r in ks) or ks != [list(c) for c in zip(*ks)]:
        return None
    return [a.basis_vec(i) for i, (row, col) in enumerate(zip(a.table, cols)) if row == col]


def central_idempotents(a: StructureAlgebra):
    """All solutions of z^2 = z in the centre (centre dimension <= 2).

    Split quadratic centre gives four idempotents, nonsplit gives just
    0 and 1.  Output order is deterministic.
    """
    c = center(a)
    zero = a.zero_vec()
    unit = list(a.unit)
    if len(c) == 1:
        return [zero, unit]
    if len(c) != 2:
        raise UnsupportedBase(f"centre of dimension {len(c)} out of supported scope")
    z = c[0]
    if a.is_scalar(z) is not None:
        z = c[1]
    zsq = a.mul(z, z)
    coeffs = linalg.solve(
        [[unit[i], z[i]] for i in range(a.dim)], zsq, a.field
    )
    if coeffs is None:
        raise CliffinvError("centre element fails its own quadratic relation")
    s, t = coeffs
    disc = t * t + a.field.from_int(4) * s
    root = a.field.sqrt(disc)
    if root is None or not root:
        return [zero, unit]
    beta = a.field.one() / root
    half = a.field.one() / a.field.from_int(2)
    out = []
    for b in (beta, -beta):
        alpha = (a.field.one() - b * t) * half
        e = [alpha * u + b * zz for u, zz in zip(unit, z)]
        out.append(e)
    out.sort(key=lambda v: tuple(a.field.elt_to_str(x) for x in v))
    return [zero, unit] + out


def matrix_algebra(n: int, field) -> StructureAlgebra:
    labels = [f"E{i+1}{j+1}" for i in range(n) for j in range(n)]
    zero, one = field.zero(), field.one()
    # E_ij E_kl = [j == k] E_il
    table = [
        [((i * n + l, one),) if j == k else () for k in range(n) for l in range(n)]
        for i in range(n)
        for j in range(n)
    ]
    unit = [one if i == j else zero for i in range(n) for j in range(n)]
    return StructureAlgebra(field, labels, table, unit)


def tensor(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    if a.field != b.field:
        raise ValueError("tensor product needs a common base field")
    field = a.field
    dim = a.dim * b.dim
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    zero = field.zero()
    # (e_i1 (x) f_j1)(e_i2 (x) f_j2) = e_i1 e_i2 (x) f_j1 f_j2
    table = [
        [
            [(m * b.dim + n2, ca * cb) for m, ca in a.table[i1][i2] for n2, cb in b.table[j1][j2]]
            for i2 in range(a.dim)
            for j2 in range(b.dim)
        ]
        for i1 in range(a.dim)
        for j1 in range(b.dim)
    ]
    unit = [zero] * dim
    for i, ua in enumerate(a.unit):
        if not ua:
            continue
        for j, ub in enumerate(b.unit):
            if ub:
                unit[i * b.dim + j] = ua * ub
    inv = None
    if a.involution is not None and b.involution is not None:
        inv = [sa * sb for sa in a.involution for sb in b.involution]
    return StructureAlgebra(field, labels, table, unit, inv)


def quaternion(a, b, field) -> StructureAlgebra:
    """The quaternion algebra (a, b) with its standard involution."""
    if not a or not b:
        raise ValueError("quaternion parameters must be nonzero")
    zero, one = field.zero(), field.one()
    t = [[() for _ in range(4)] for _ in range(4)]

    def put(i, j, k, c):
        t[i][j] = ((k, c),)

    # basis 1, i, j, k
    for m in range(4):
        put(0, m, m, one)
        put(m, 0, m, one)
    put(1, 1, 0, a)
    put(1, 2, 3, one)
    put(1, 3, 2, a)
    put(2, 1, 3, -one)
    put(2, 2, 0, b)
    put(2, 3, 1, -b)
    put(3, 1, 2, -a)
    put(3, 2, 1, b)
    put(3, 3, 0, -(a * b))
    unit = [one, zero, zero, zero]
    return StructureAlgebra(field, ("1", "i", "j", "k"), t, unit, (one, -one, -one, -one))


def reduced_trace(a: StructureAlgebra, x):
    """tr of left multiplication divided by the degree isqrt(dim).

    Valid for central simple algebras: over a splitting field the left
    regular representation of a degree-d algebra is d copies of the
    reduced one.  tr(L_{e_i}) is read off the table as the sum over j of
    the e_j-coefficient of e_i e_j.
    """
    tr = a.field.zero()
    for xi, plane in zip(x, a.table):
        if xi:
            for j, entry in enumerate(plane):
                for k, c in entry:
                    if k == j:
                        tr = tr + xi * c
    return tr / a.field.from_int(math.isqrt(a.dim))


def trace_form(a: StructureAlgebra):
    """Gram matrix of the regular trace form, tr(L_i L_j), off the table:
    the sum over t of c d for (s, c) in table[i][t] and (t, d) in
    table[j][s]."""
    zero, table = a.field.zero(), a.table
    gram = [[zero] * a.dim for _ in range(a.dim)]
    for i, plane in enumerate(table):
        for j, other in enumerate(table):
            for t, entry in enumerate(plane):
                for s, c in entry:
                    for u, d in other[s]:
                        if u == t:
                            gram[i][j] = gram[i][j] + c * d
    return gram


@functools.cache
def _ladder(dim):
    """Nonzero tuples in {-1, 0, 1}^dim, fewest nonzero entries first, so
    that a square found on a monomial basis is a product, not a sum.

    x -> x^2 is quadratic: if every basis vector and every sum of two
    square to zero, so does every combination.  Larger coefficients
    therefore decide nothing that this ladder leaves open.
    """
    tuples = (cs for cs in product((-1, 0, 1), repeat=dim) if any(cs))
    return tuple(sorted(tuples, key=lambda cs: (dim - cs.count(0), cs)))


def _combine(a: StructureAlgebra, coeffs, vecs):
    """sum c * v over the pairs, built in place."""
    out = a.zero_vec()
    for c, v in zip(coeffs, vecs):
        if c:
            for k, vk in enumerate(v):
                if vk:
                    out[k] = out[k] + c * vk
    return out


def _first_square(a: StructureAlgebra, vecs, what, nonscalar):
    """First combination of vecs on the ladder whose square is a nonzero
    scalar, with that scalar."""
    field = a.field
    for cs in _ladder(len(vecs)):
        cand = _combine(a, [field.from_int(c) for c in cs], vecs)
        val = a.is_scalar(a.mul(cand, cand))
        if val is None:
            raise CliffinvError(nonscalar)
        if val:
            return cand, val
    raise SearchExhausted(what, 1)


def find_quaternion_basis(a: StructureAlgebra):
    """Quaternion parameters (x^2, y^2) and a standard basis for a.

    On a twisted table (see `twisted_center`) where e_1, e_2 square to
    scalars and e_1 anticommutes with e_2, e_3, x = -e_1 and y = -e_2 are
    read off: the answer of `_ladder_pair`, which other tables take.
    """
    if a.dim != 4:
        raise UnsupportedBase("quaternion basis extraction needs dimension 4")
    if len(center(a)) != 1:
        raise CliffinvError("algebra is not central")
    t = a.table
    twisted = twisted_center(a) is not None and t[1][1][0][0] == t[2][2][0][0] == 0 and all(
        t[1][j][0][1] == -t[j][1][0][1] for j in (2, 3)
    )
    if twisted:
        x, y = a.zero_vec(), a.zero_vec()
        x[1] = y[2] = -a.field.one()
        alpha, beta = t[1][1][0][1], t[2][2][0][1]
    else:
        x, alpha, y, beta = _ladder_pair(a)
    xy = a.mul(x, y)
    basis = [list(a.unit), x, y, xy]
    cols = [[basis[j][i] for j in range(4)] for i in range(4)]
    if twisted:  # signed monomials: rank 4 iff they are four distinct ones
        full = sorted(r[0][0] for r in map(sparse_row, basis) if len(r) == 1) == [0, 1, 2, 3]
    else:
        full = linalg.rank(cols, a.field) == 4
    if not full:
        raise CliffinvError("extracted quaternion basis is degenerate")
    return alpha, beta, cols


def _ladder_pair(a: StructureAlgebra):
    """x, x^2, y, y^2 by the trace-zero recipe on a central algebra of dim 4.

    Any trace-zero element squares to a scalar, so hunt for one with
    nonzero square, then solve the linear anticommutation condition for
    its partner.  Candidates run through a fixed ladder of small
    coefficient tuples, computed once per dimension.
    """
    field = a.field
    trace_row = [reduced_trace(a, a.basis_vec(i)) for i in range(4)]
    a0 = linalg.nullspace([trace_row], 4, field)
    if len(a0) != 3:
        raise CliffinvError("trace-zero space has unexpected dimension")
    x, alpha = _first_square(
        a, a0, "invertible trace-zero element",
        "trace-zero element with non-scalar square; not quaternion",
    )
    # anticommutant of x inside the trace-zero space
    antis = [a.add(a.mul(x, bvec), a.mul(bvec, x)) for bvec in a0]
    w = linalg.nullspace([list(row) for row in zip(*antis)], 3, field)
    if len(w) != 2:
        raise CliffinvError("anticommutant has unexpected dimension")
    wbasis = [_combine(a, coeffs, a0) for coeffs in w]
    y, beta = _first_square(
        a, wbasis, "anticommuting partner", "anticommutant element with non-scalar square"
    )
    return x, alpha, y, beta


def is_split_quaternion(a: StructureAlgebra) -> bool:
    """True iff the norm form <1, -a, -b, ab> is isotropic."""
    field = a.field
    x, y, _ = find_quaternion_basis(a)
    norm = DiagonalForm((field.one(), -x, -y, x * y), field)
    return is_isotropic(norm)
