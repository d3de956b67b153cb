"""Finite-dimensional algebras given by exact structure constants.

The structure table is sparse: table[i][j] is a tuple of (k, c) pairs,
sorted by k with every c nonzero, and e_i e_j = sum c e_k over them.
Clifford, matrix and quaternion algebras have one pair per entry, so
a table holds dim^2 pairs rather than dim^3 coefficients.  Elements
are dense coordinate vectors.  Dimension is capped at 64, which is all
the even Clifford algebras up to rank 7 need.  Isomorphism testing is
deliberately not general: quaternions go through ramification data,
etale quadratic algebras through their discriminant, split matrix
algebras through explicit certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter

from . import linalg
from .errors import CliffinvError, SearchExhausted, UnsupportedBase
from .forms import DiagonalForm, is_isotropic
from .scalars import PrimeField, RationalField

MAX_DIM = 64


def sparse_row(vec):
    """The (k, c) pairs of a dense coordinate vector, zeros dropped."""
    return tuple((k, c) for k, c in enumerate(vec) if c)


class StructureAlgebra:
    def __init__(self, field, labels, table, unit, involution=None):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if self.dim > MAX_DIM:
            raise ValueError(f"dimension {self.dim} exceeds cap {MAX_DIM}")
        # zero coefficients are dropped so that equal algebras have equal tables
        self.table = tuple(
            tuple(tuple(sorted(((k, c) for k, c in row if c), key=itemgetter(0))) for row in plane)
            for plane in table
        )
        self.unit = tuple(unit)
        self.involution = None if involution is None else tuple(tuple(r) for r in involution)

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    def mul(self, x, y):
        out = self.zero_vec()
        ys = sparse_row(y)
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = self.table[i]
            for j, yj in ys:
                c = xi * yj
                for k, t in ti[j]:
                    out[k] = out[k] + c * t
        return out

    def scalar_mul(self, c, x):
        return [c * v for v in x]

    def add(self, x, y):
        return [a + b for a, b in zip(x, y)]

    def sub(self, x, y):
        return [a - b for a, b in zip(x, y)]

    def left_mult_matrix(self, x):
        """Matrix of y -> x*y on the basis."""
        cols = [self.mul(x, self.basis_vec(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def apply_involution(self, x):
        if self.involution is None:
            raise CliffinvError("algebra carries no involution")
        return linalg.matvec([list(r) for r in self.involution], list(x), self.field)

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


@dataclass
class AlgebraMorphism:
    """Linear map between algebras, stored as target_dim x source_dim."""

    source: StructureAlgebra
    target: StructureAlgebra
    matrix: tuple

    def apply(self, x):
        return linalg.matvec([list(r) for r in self.matrix], list(x), self.source.field)

    def preserves_unit(self) -> bool:
        return self.apply(list(self.source.unit)) == list(self.target.unit)

    def is_multiplicative(self) -> bool:
        """phi(e_i) phi(e_j) = phi(e_i e_j) on every pair of basis elements."""
        src, tgt = self.source, self.target
        cols = [list(col) for col in zip(*self.matrix)]
        sparse_cols = [sparse_row(col) for col in cols]
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = tgt.zero_vec()
                for k, c in src.table[i][j]:
                    for s, v in sparse_cols[k]:
                        lhs[s] = lhs[s] + c * v
                if lhs != tgt.mul(cols[i], cols[j]):
                    return False
        return True

    def is_bijective(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        return linalg.rank([list(r) for r in self.matrix], self.source.field) == self.source.dim

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
    """Basis of the centre, solved as an exact linear system.

    With a generating set the commutation equations are only posed
    against those elements, which keeps Clifford-sized systems cheap.
    """
    gens = generators if generators is not None else [a.basis_vec(i) for i in range(a.dim)]
    zero = a.field.zero()
    rows = []
    for g in gens:
        gs = sparse_row(g)
        # coefficient of x_t in coordinate s of [x, g]
        lm = {}
        for t in range(a.dim):
            comm = {}
            for u, gu in gs:
                for s, c in a.table[t][u]:
                    comm[s] = comm.get(s, zero) + gu * c
                for s, c in a.table[u][t]:
                    comm[s] = comm.get(s, zero) - gu * c
            for s in sorted(comm):
                if comm[s]:
                    lm.setdefault(s, {})[t] = comm[s]
        rows.extend(lm.values())
    return linalg.nullspace_sparse(rows, a.dim, a.field)


def central_idempotents(a: StructureAlgebra, generators=None):
    """All solutions of z^2 = z in the centre (centre dimension <= 2).

    Split quadratic centre gives four idempotents, nonsplit gives just
    0 and 1.  Output order is deterministic.
    """
    c = center(a, generators)
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
        inv = [[zero] * dim for _ in range(dim)]
        for i1 in range(a.dim):
            for j1 in range(b.dim):
                for i2 in range(a.dim):
                    for j2 in range(b.dim):
                        v = a.involution[i1][i2] * b.involution[j1][j2]
                        if v:
                            inv[i1 * b.dim + j1][i2 * b.dim + j2] = v
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
    inv = [
        [one, zero, zero, zero],
        [zero, -one, zero, zero],
        [zero, zero, -one, zero],
        [zero, zero, zero, -one],
    ]
    alg = StructureAlgebra(field, ("1", "i", "j", "k"), t, unit, inv)
    alg.quaternion_params = (a, b)
    return alg


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

    Follows the trace-zero recipe: any trace-zero element squares to a
    scalar, so hunt for one with nonzero square, then solve the linear
    anticommutation condition for its partner.  Candidates run through
    a fixed ladder of small coefficient tuples, computed once per
    dimension.
    """
    if a.dim != 4:
        raise UnsupportedBase("quaternion basis extraction needs dimension 4")
    if len(center(a)) != 1:
        raise CliffinvError("algebra is not central")
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
    xy = a.mul(x, y)
    basis = [list(a.unit), x, y, xy]
    cols = [[basis[j][i] for j in range(4)] for i in range(4)]
    if linalg.rank(cols, field) != 4:
        raise CliffinvError("extracted quaternion basis is degenerate")
    return alpha, beta, cols


def is_split_quaternion(a: StructureAlgebra) -> bool:
    """True iff the norm form <1, -a, -b, ab> is isotropic."""
    field = a.field
    if isinstance(field, PrimeField):
        return True  # norm form has rank 4 >= 3 over a finite field
    params = getattr(a, "quaternion_params", None)
    if params is None:
        alpha, beta, _ = find_quaternion_basis(a)
        params = (alpha, beta)
    if not isinstance(field, RationalField):
        raise UnsupportedBase("splitness decision over Q and F_p only")
    x, y = params
    norm = DiagonalForm((field.one(), -x, -y, x * y), field)
    return is_isotropic(norm)
