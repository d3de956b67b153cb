import hashlib
import random
from fractions import Fraction
from itertools import permutations

import pytest

from cliffinv import linalg
from cliffinv.algebras import (
    AlgebraMorphism,
    StructureAlgebra,
    _ladder_pair,
    associativity_witness,
    center,
    central_idempotents,
    find_quaternion_basis,
    is_split_quaternion,
    matrix_algebra,
    quaternion,
    reduced_trace,
    sparse_row,
    tensor,
    twisted_center,
)
from cliffinv.clifford import EvenClifford, split_components
from cliffinv.errors import CliffinvError, UnsupportedBase
from cliffinv.forms import DiagonalForm
from cliffinv.scalars import GF, QQ, hilbert_symbol, support_places

from random_forms import inverse, left_mult_matrix, random_nonzero

F = QQ


def ramification(a, b):
    return {str(v) for v in support_places(a, b) if hilbert_symbol(a, b, v) == -1}


def _product_field_algebra(n):
    one = F.one()
    table = [[[(i, one)] if i == j else [] for j in range(n)] for i in range(n)]
    return StructureAlgebra(F, tuple(f"u{i}" for i in range(n)), table, [one] * n)


def test_matrix_algebra():
    m2 = matrix_algebra(2, F)
    assert m2.validate_unit()
    assert associativity_witness(m2) is None
    assert len(center(m2)) == 1


def test_quaternion_relations():
    q = quaternion(Fraction(2), Fraction(3), F)
    assert q.validate_unit()
    assert associativity_witness(q) is None  # 64 triple checks
    i, j, k = q.basis_vec(1), q.basis_vec(2), q.basis_vec(3)
    assert q.is_scalar(q.mul(i, i)) == 2
    assert q.is_scalar(q.mul(j, j)) == 3
    assert q.mul(i, j) == k
    assert q.mul(j, i) == [-c for c in k]
    assert q.is_scalar(q.mul(k, k)) == -6


def test_mul_returns_zero_where_terms_cancel():
    # (i + j)^2 = a + b + ij + ji: ij and ji cancel, and so do a and b = -a
    for field in (F, GF(7)):
        q = quaternion(field.from_int(2), field.from_int(-2), field)
        x = q.add(q.basis_vec(1), q.basis_vec(2))
        assert q.mul(x, x) == [field.zero()] * 4
        assert q.mul_rows(sparse_row(x), sparse_row(x)) == {}
        if field == F:
            assert all(c is F.zero() for c in q.mul(x, x))


def test_associativity_witness_on_perturbed_table():
    q = quaternion(Fraction(-1), Fraction(-1), F)
    tbl = [list(plane) for plane in q.table]
    tbl[1][2] = [(0, Fraction(5)), *q.table[1][2]]
    bad = StructureAlgebra(F, q.labels, tbl, q.unit)
    assert associativity_witness(bad) is not None
    # a second pair after the first keeps k a symmetric permutation table
    tbl = [list(plane) for plane in q.table]
    tbl[1][3] = [*q.table[1][3], (3, Fraction(5))]
    assert twisted_center(StructureAlgebra(F, q.labels, tbl, q.unit)) is None


def _symmetric_group_algebra():
    """Q[S_3]: one pair per entry, but k(g, h) = gh is not symmetric."""
    perms = list(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    one = F.one()
    table = [[((index[tuple(g[h[x]] for x in range(3))], one),) for h in perms] for g in perms]
    return StructureAlgebra(F, [str(p) for p in perms], table, [one] + [F.zero()] * 5)


def test_center_dimensions():
    assert len(center(quaternion(Fraction(-1), Fraction(3), F))) == 1
    assert len(center(_product_field_algebra(2))) == 2
    s3 = _symmetric_group_algebra()
    assert associativity_witness(s3) is None
    assert len(center(s3)) == 3  # the class sums
    assert twisted_center(s3) is None
    # rows that are no permutations: e_1 - e_2 is central, e_1 and e_2 are not
    one = F.one()
    rows = [[(0, one), (1, one), (2, one), (3, one)], [(1, one), (0, one), (3, one), (0, one)],
            [(2, one), (3, one), (0, one), (0, one)], [(3, one), (0, -one), (0, -one), (0, one)]]
    table = [[(pair,) for pair in row] for row in rows]
    clash = StructureAlgebra(F, ("1", "a", "b", "c"), table, [one] + [F.zero()] * 3)
    assert len(center(clash)) == 2
    assert twisted_center(clash) is None


def test_central_idempotents():
    assert len(central_idempotents(_product_field_algebra(2))) == 4
    zero, one = F.zero(), F.one()
    # F[x]/(x^2 - 2): no nontrivial idempotents since 2 is not a square
    t2 = [[[(0, one)], [(1, one)]], [[(1, one)], [(0, Fraction(2))]]]
    k2 = StructureAlgebra(F, ("1", "x"), t2, [one, zero])
    assert len(central_idempotents(k2)) == 2
    # F[x]/(x^2 - 1): splits as (1 +- x)/2
    t3 = [[[(0, one)], [(1, one)]], [[(1, one)], [(0, one)]]]
    k3 = StructureAlgebra(F, ("1", "x"), t3, [one, zero])
    ids = central_idempotents(k3)
    assert len(ids) == 4
    half = Fraction(1, 2)
    assert [half, half] in ids and [half, -half] in ids
    with pytest.raises(UnsupportedBase):
        central_idempotents(_product_field_algebra(3))


def opposite(a):
    table = [[a.table[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return StructureAlgebra(a.field, a.labels, table, a.unit, a.involution)


def test_tensor_and_opposite():
    q = quaternion(Fraction(-1), Fraction(-1), F)
    assert tensor(q, matrix_algebra(1, F)).table == q.table
    assert opposite(opposite(q)).table == q.table
    qq = tensor(q, q)
    assert qq.dim == 16
    assert len(center(qq)) == 1
    assert associativity_witness(opposite(q)) is None


def test_involution_fixes_only_scalars():
    q = quaternion(Fraction(2), Fraction(-3), F)
    signs = q.involution
    ident = linalg.identity(4, F)
    diff = [[(signs[i] if i == j else F.zero()) - ident[i][j] for j in range(4)] for i in range(4)]
    assert len(linalg.nullspace(diff, 4, F)) == 1
    # anti-automorphism of order 2
    assert all(s * s == F.one() for s in signs)


def test_tensor_involution_is_anti_automorphism():
    rng = random.Random(33)
    for field in (F, GF(7)):
        for _ in range(4):
            a, b, c, d = (random_nonzero(field, rng) for _ in range(4))
            amb = tensor(quaternion(a, b, field), quaternion(c, d, field))
            sigma = amb.apply_involution
            for _ in range(10):
                x = [field.from_int(rng.randint(-3, 3)) for _ in range(16)]
                y = [field.from_int(rng.randint(-3, 3)) for _ in range(16)]
                assert sigma(amb.mul(x, y)) == amb.mul(sigma(y), sigma(x))
                assert sigma(sigma(x)) == x


def test_split_quaternions():
    assert is_split_quaternion(quaternion(Fraction(1), Fraction(7), F))
    assert not is_split_quaternion(quaternion(Fraction(-1), Fraction(-1), F))
    f3 = GF(3)
    assert is_split_quaternion(quaternion(f3.from_int(-1), f3.from_int(-1), f3))


def test_reduced_trace():
    q = quaternion(Fraction(-1), Fraction(-1), F)
    assert reduced_trace(q, list(q.unit)) == 2
    for i in range(1, 4):
        assert reduced_trace(q, q.basis_vec(i)) == 0
    # degree 4: the biquaternion algebra (a,b) (x) (c,d)
    bq = tensor(quaternion(Fraction(-1), Fraction(3), F), quaternion(Fraction(2), Fraction(5), F))
    assert bq.dim == 16
    assert reduced_trace(bq, list(bq.unit)) == 4
    assert reduced_trace(bq, bq.basis_vec(5)) == 0


def test_reduced_trace_on_dense_rows():
    # several (k, c) pairs per table entry: the trace read off the table
    # equals the trace of the left multiplication matrix
    conj = _conjugated(quaternion(Fraction(-1), Fraction(-1), F))
    assert max(len(entry) for plane in conj.table for entry in plane) > 1
    generic = [Fraction(3), Fraction(-2, 5), Fraction(7), Fraction(1, 3)]
    for x in [conj.basis_vec(i) for i in range(4)] + [generic]:
        m = left_mult_matrix(conj, x)
        assert reduced_trace(conj, x) == sum(m[i][i] for i in range(4)) / 2


def test_find_quaternion_basis_recovers_class():
    rng = random.Random(21)
    for _ in range(25):
        a = Fraction(rng.choice([x for x in range(-20, 21) if x]))
        b = Fraction(rng.choice([x for x in range(-20, 21) if x]))
        q = quaternion(a, b, F)
        alpha, beta, basis = find_quaternion_basis(q)
        assert ramification(alpha, beta) == ramification(a, b)
        assert linalg.rank([list(r) for r in basis]) == 4


def _basis_change():
    """A seeded invertible 4 x 4 rational matrix."""
    rng = random.Random(4)
    while True:
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        if linalg.det(m, F):
            return m


def _conjugated(q):
    """The table of a four-dimensional q transported along `_basis_change`."""
    m = _basis_change()
    minv = inverse(m, F)
    # new basis f_i = sum_j m[j][i] e_j; table in the new coordinates
    def to_new(vec):
        return linalg.matvec(minv, vec, F)

    basis_vecs = [[m[i][j] for i in range(4)] for j in range(4)]
    table = []
    for i in range(4):
        plane = []
        for j in range(4):
            prod = q.mul(basis_vecs[i], basis_vecs[j])
            plane.append(sparse_row(to_new(prod)))
        table.append(plane)
    unit = to_new(list(q.unit))
    return StructureAlgebra(F, ("a", "b", "c", "d"), table, unit)


def _permuted(q):
    """q on its basis reordered, so that the unit is not e_0."""
    perm = (2, 0, 3, 1)  # new e_i is old e_perm[i]
    pos = {old: new for new, old in enumerate(perm)}
    table = [
        [tuple((pos[k], c) for k, c in q.table[perm[i]][perm[j]]) for j in range(4)]
        for i in range(4)
    ]
    unit = [q.unit[perm[i]] for i in range(4)]
    return StructureAlgebra(F, tuple(q.labels[i] for i in perm), table, unit)


def test_multi_term_columns_are_multiplicative():
    # q onto its conjugated table sends e_j to its coordinates in the new
    # basis: columns of several terms, so every pair takes the mul_rows path
    q = quaternion(Fraction(2), Fraction(-3), F)
    minv = inverse(_basis_change(), F)
    cols = {j: dict(sparse_row([row[j] for row in minv])) for j in range(4)}
    assert max(map(len, cols.values())) > 1
    iso = AlgebraMorphism(q, _conjugated(q), cols)
    assert iso.preserves_unit() and iso.is_bijective() and iso.is_multiplicative()
    x = [Fraction(3), Fraction(-2, 5), Fraction(7), Fraction(1, 3)]
    assert iso.apply(x) == linalg.matvec(minv, x, F)
    bad = {**cols, 1: {k: c + c for k, c in cols[1].items()}}
    assert not AlgebraMorphism(q, iso.target, bad).is_multiplicative()
    assert not AlgebraMorphism(q, iso.target, {**cols, 1: cols[2]}).is_bijective()


def test_find_quaternion_basis_on_conjugated_table():
    # neither table is twisted, so the ladder answers
    q = quaternion(Fraction(-1), Fraction(-1), F)
    for alg in (_conjugated(q), _permuted(q)):
        assert associativity_witness(alg) is None
        assert twisted_center(alg) is None
        alpha, beta, _ = find_quaternion_basis(alg)
        assert ramification(alpha, beta) == {"2", "inf"}


def _frozen_sample():
    """Split components of <a, b, c, abc>, quaternions (a, b), the
    conjugated table and M_2(Q), whose nilpotent candidates walk 8 rungs
    of the ladders."""
    rng = random.Random(8)
    algebras = []
    for _ in range(12):
        a, b, c = (random_nonzero(F, rng, -12, 12) for _ in range(3))
        sc = split_components(DiagonalForm((a, b, c, a * b * c), F))
        algebras += [sc.plus, sc.minus, quaternion(a, b, F)]
    m2 = matrix_algebra(2, F)
    return algebras + [_conjugated(quaternion(Fraction(-1), Fraction(-1), F)), m2, _conjugated(m2)]


# sha256 of the extraction outputs on _frozen_sample, recorded before the
# candidate order was cached and the trace read off the table
FROZEN_EXTRACTION = "21edb5f330108a7701e376323656a586dd4b2ec3cd9cfaf9b9cdd814c91f9740"


def test_find_quaternion_basis_outputs_frozen():
    digest = hashlib.sha256()
    for alg in _frozen_sample():
        alpha, beta, cols = find_quaternion_basis(alg)
        digest.update(repr((alpha, beta, cols)).encode())
    assert digest.hexdigest() == FROZEN_EXTRACTION


def _biquadratic_field():
    """Q(sqrt 2, sqrt 3) on 1, u, v, uv: a twisted table, commutative."""
    one = F.one()
    u2, v2 = Fraction(2), Fraction(3)
    products = {(1, 1): (0, u2), (2, 2): (0, v2), (3, 3): (0, u2 * v2),
                (1, 2): (3, one), (1, 3): (2, u2), (2, 3): (1, v2)}
    table = [[None] * 4 for _ in range(4)]
    for i in range(4):
        table[0][i] = table[i][0] = ((i, one),)
    for (i, j), pair in products.items():
        table[i][j] = table[j][i] = (pair,)
    return StructureAlgebra(F, ("1", "u", "v", "uv"), table, [one, F.zero(), F.zero(), F.zero()])


def test_find_quaternion_basis_rejects_noncentral():
    field4 = _biquadratic_field()
    assert associativity_witness(field4) is None
    assert len(twisted_center(field4)) == 4
    for alg in (_product_field_algebra(4), field4):
        with pytest.raises(CliffinvError, match="algebra is not central"):
            find_quaternion_basis(alg)


def test_find_quaternion_basis_rejects_degenerate_basis(monkeypatch):
    q = quaternion(Fraction(2), Fraction(3), F)
    # twisted route: a unit vector that is not e_0 repeats the monomial of x
    wrong_unit = StructureAlgebra(F, q.labels, q.table, q.basis_vec(1))
    with pytest.raises(CliffinvError, match="degenerate"):
        find_quaternion_basis(wrong_unit)
    # ladder route: a partner equal to x makes xy a scalar
    alg = _conjugated(q)
    x, alpha, _, _ = _ladder_pair(alg)
    monkeypatch.setattr("cliffinv.algebras._ladder_pair", lambda a: (x, alpha, x, alpha))
    with pytest.raises(CliffinvError, match="degenerate"):
        find_quaternion_basis(alg)


def test_twisted_center_matches_center_on_clifford_tables():
    # the read-off against an independent commutator solve; 1 spans the
    # centre at odd rank, 1 and the top monomial at even rank
    rng = random.Random(12)
    for field in (F, GF(3), GF(5), GF(7), GF(11)):
        for rank in range(1, 8):
            ec = EvenClifford(DiagonalForm(tuple(random_nonzero(field, rng) for _ in range(rank)), field))
            cen = twisted_center(ec.algebra)
            assert cen is not None
            assert cen == center(ec.algebra) == _reference_center(ec.algebra, ec.generators())
            support = {ec.index[0]} if rank % 2 else {ec.index[0], ec.index[ec.top_mask()]}
            assert {i for v in cen for i, x in enumerate(v) if x} == support


# The centre solved with no shortcut: every commutator row accumulated in
# dicts, independent of the twisted read-off.
def _reference_center(a, generators=None):
    gens = generators if generators is not None else [a.basis_vec(i) for i in range(a.dim)]
    zero = a.field.zero()
    rows = []
    for g in gens:
        gs = sparse_row(g)
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


def test_center_matches_reference():
    # q and q (x) q are read off, the other tables are solved over every
    # basis vector; both against the reference solve
    from cliffinv.dedekind import FracIdeal, QuadOrder, even_clifford_order, hyperbolic_ideal_form

    q = quaternion(Fraction(-1), Fraction(3), F)
    m2 = matrix_algebra(2, GF(5))
    o = QuadOrder(-5)
    p2 = FracIdeal.from_generators(o, [o.field.from_int(2), o.element(1, 1)])
    order = even_clifford_order(hyperbolic_ideal_form(o, [o.one_ideal(), o.one_ideal()], p2)).algebra
    for a in (q, m2, tensor(q, q), matrix_algebra(3, F), _symmetric_group_algebra(), order):
        assert center(a) == _reference_center(a)


def test_twisted_read_matches_ladder():
    # split components of <a, b, c, abc> and quaternion tables are twisted;
    # the read-off must be the ladder's answer, sign and basis included
    rng = random.Random(13)
    algebras = []
    for field in (F, GF(3), GF(5), GF(7), GF(11)):
        for _ in range(12):
            a, b, c = (random_nonzero(field, rng) for _ in range(3))
            sc = split_components(DiagonalForm((a, b, c, a * b * c), field))
            algebras += [sc.plus, sc.minus, quaternion(a, b, field)]
    for alg in algebras:
        assert twisted_center(alg) is not None
        alpha, beta, cols = find_quaternion_basis(alg)
        x, y = ([row[k] for row in cols] for k in (1, 2))
        assert repr((x, alpha, y, beta)) == repr(_ladder_pair(alg))
    # central twisted tables no associative algebra has: e_1 commuting
    # with e_3, and e_1^2 = e_2 over Z/4; both routes refuse them
    q = quaternion(Fraction(-1), Fraction(-1), F)
    table = [list(plane) for plane in q.table]
    table[3][1] = table[1][3]
    one = F.one()
    z4 = [[(((i + j) % 4, -one if (i, j) in {(2, 1), (2, 3), (3, 1)} else one),) for j in range(4)]
          for i in range(4)]
    for t, error in ((table, "anticommutant"), (z4, "non-scalar")):
        odd = StructureAlgebra(F, q.labels, t, q.unit)
        assert len(twisted_center(odd)) == 1
        for route in (find_quaternion_basis, _ladder_pair):
            with pytest.raises(CliffinvError, match=error):
                route(odd)


def test_quaternion_norm_equivalence():
    # (a, b) and (a, -ab) have the same class
    rng = random.Random(31)
    for _ in range(50):
        a = Fraction(rng.choice([x for x in range(-15, 16) if x]))
        b = Fraction(rng.choice([x for x in range(-15, 16) if x]))
        assert ramification(a, b) == ramification(a, -a * b)


def test_dim_cap():
    with pytest.raises(ValueError):
        matrix_algebra(9, F)  # dim 81 > 64
