import math
import random
from fractions import Fraction
from itertools import combinations, count

import pytest

from cliffinv import linalg
from cliffinv.brauer import BrauerClass2
from cliffinv.errors import DegenerateFormError, UnsupportedBase
from cliffinv.forms import (
    DiagonalForm,
    QuadraticForm,
    _squarefree_entries,
    diagonalize,
    hyperbolic,
    is_isotropic,
    isometric_diagonal,
    isotropic_vector,
    orthogonal_sum,
    signed_discriminant,
    twist,
    witt_decompose,
)
from cliffinv.invariants import clifford_invariant_class, e2_of_form
from cliffinv.residues import second_residue
from cliffinv.scalars import (
    GF,
    QQ,
    QuadElement,
    QuadraticNumberField,
    RationalFunctionField,
    _isotropic_locally,
    clifford_invariant_local,
    factor_integer,
    hasse_invariant,
    hilbert_symbol,
    square_class,
    squarefree_mul,
    support_places,
)

from random_forms import (
    arith_forms,
    arith_ideals,
    matmul,
    random_nonzero,
    random_regular_diagonal,
    random_regular_gram,
)

F = QQ


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def test_diagonalize_standard_plane():
    q = QuadraticForm((frac(0, 1), frac(1, 0)), F)
    d, p = diagonalize(q)
    # the result is the hyperbolic plane: isometric to <1,-1>
    assert isometric_diagonal(d.entries, frac(1, -1), F)
    assert witt_decompose(d).index == 1
    # congruence identity: P^T G P equals the diagonal of the entries
    pt = [[p[i][j] for i in range(2)] for j in range(2)]
    g = matmul(pt, matmul([list(r) for r in q.gram], p, F), F)
    assert g[0][0] == d.entries[0] and g[1][1] == d.entries[1]
    assert not g[0][1] and not g[1][0]


def test_diagonalize_rank_one_identity():
    q = DiagonalForm(frac(5), F)
    d, p = diagonalize(q)
    assert d.entries == frac(5)
    assert p == linalg.identity(1, F)


def test_diagonalize_rejects_degenerate():
    with pytest.raises(DegenerateFormError):
        diagonalize(QuadraticForm((frac(1, 1), frac(1, 1)), F))


def test_diagonalize_random_congruence():
    rng = random.Random(11)
    for _ in range(200):
        field = rng.choice([F, GF(3), GF(5), GF(7)])
        q = random_regular_gram(rng, field, rng.randint(1, 6))
        d, p = diagonalize(q)
        n = q.rank
        pt = [[p[i][j] for i in range(n)] for j in range(n)]
        g = matmul(pt, matmul([list(r) for r in q.gram], p, field), field)
        for i in range(n):
            for j in range(n):
                assert g[i][j] == (d.entries[i] if i == j else field.zero())


def test_orthogonal_sum():
    s = orthogonal_sum(DiagonalForm(frac(1), F), DiagonalForm(frac(-1), F))
    assert s.entries == frac(1, -1)
    q = orthogonal_sum(hyperbolic(1), hyperbolic(2))
    assert q.rank == 6
    with pytest.raises(ValueError):
        orthogonal_sum(DiagonalForm(frac(1), F), DiagonalForm((GF(3).one(),), GF(3)))


def test_hyperbolic_shape():
    h = hyperbolic(1)
    assert h.gram == ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)))
    assert signed_discriminant(h).is_trivial
    assert witt_decompose(hyperbolic(2)).index == 2
    with pytest.raises(ValueError):
        hyperbolic(0)


def test_twist():
    q = DiagonalForm(frac(1, -1), F)
    t = twist(q, Fraction(5))
    assert t.entries == frac(5, -5)
    tt = twist(t, Fraction(5))
    assert [square_class(a).rep for a in tt.entries] == [1, -1]
    # even-rank signed discriminant is twist invariant
    rng = random.Random(3)
    for _ in range(20):
        q = random_regular_diagonal(rng, F, 2 * rng.randint(1, 3))
        n = random_nonzero(F, rng)
        assert signed_discriminant(twist(q, n)) == signed_discriminant(q)


def test_is_isotropic_basics():
    assert not is_isotropic(DiagonalForm(frac(1, 1), F))
    assert is_isotropic(DiagonalForm(frac(1, -1), F))
    f5 = GF(5)
    assert is_isotropic(DiagonalForm((f5.one(), f5.one()), f5))
    k = QuadraticNumberField(-5)
    with pytest.raises(UnsupportedBase):
        is_isotropic(DiagonalForm((k.one(), k.one()), k))


def _residue_field_f3():
    ff = RationalFunctionField(GF(3))
    pi = ff.t() * ff.t() + ff.one()
    return second_residue(DiagonalForm((pi, 2 * pi), ff), pi.num).field


UNSUPPORTED_BASES = {
    "Q(sqrt(-5))": lambda: QuadraticNumberField(-5),
    "F5(t)": lambda: RationalFunctionField(GF(5)),
    "F3[t]/(t^2+1)": _residue_field_f3,
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED_BASES))
def test_unsupported_bases_raise_one_message(name):
    field = UNSUPPORTED_BASES[name]()
    one = field.one()
    q = DiagonalForm((one, one, -one, -one), field)
    calls = (
        lambda: is_isotropic(q),
        lambda: isotropic_vector(q),
        lambda: witt_decompose(q),
        lambda: isometric_diagonal(q.entries, q.entries, field),
        lambda: e2_of_form(q),
    )
    messages = set()
    for call in calls:
        with pytest.raises(UnsupportedBase) as err:
            call()
        messages.add(str(err.value))
    assert messages == {f"no Witt theory of diagonal forms over {field!r}"}
    assert "object at" not in repr(field)


def test_isotropic_needs_all_coordinates():
    # every ternary subform is anisotropic here but the form is isotropic
    q = DiagonalForm(frac(1, -7, 1, -3), F)
    assert is_isotropic(q)
    v = isotropic_vector(q)
    val = sum(a * x * x for a, x in zip(q.entries, v))
    assert val == 0 and any(v)


def test_isotropic_vector_certificates():
    rng = random.Random(5)
    for _ in range(40):
        field = rng.choice([F, GF(3), GF(7), GF(11)])
        q = random_regular_diagonal(rng, field, rng.randint(2, 6))
        if not is_isotropic(q):
            continue
        v = isotropic_vector(q)
        val = field.zero()
        for a, x in zip(q.entries, v):
            val = val + a * x * x
        assert not val and any(x for x in v)


def test_isotropic_vector_over_a_large_prime_field():
    # -1 is a non-square mod p = 3 mod 4, so no pair of <1, 1, 1> is a
    # hyperbolic plane and the ternary search runs: a few square roots, where
    # a table of the squares mod p would hold p / 2 entries
    p = 1000000007
    f = GF(p)
    v = isotropic_vector(DiagonalForm((f.one(),) * 3, f))
    assert not sum((x * x for x in v), f.zero()) and any(v)


def test_witt_decompose_examples():
    w = witt_decompose(DiagonalForm(frac(1, -1, 2), F))
    assert w.index == 1 and [square_class(k).rep for k in w.kernel] == [2]
    pos = witt_decompose(DiagonalForm(frac(1, 2, 3), F))
    assert pos.index == 0 and len(pos.kernel) == 3
    f3 = GF(3)
    w3 = witt_decompose(DiagonalForm(tuple(f3.one() for _ in range(4)), f3))
    assert w3.index == 2 and not w3.kernel


def test_witt_rank_identity_and_kernel_anisotropy():
    rng = random.Random(7)
    for _ in range(60):
        field = rng.choice([F, GF(3), GF(5), GF(7), GF(11)])
        q = random_regular_diagonal(rng, field, rng.randint(1, 6))
        w = witt_decompose(q)
        assert len(w.kernel) + 2 * w.index == q.rank
        if w.kernel:
            assert not is_isotropic(DiagonalForm(w.kernel, field))


def _singular_gram(rng, field, n):
    """P^T D P with two equal columns in P, so the Gram matrix is singular."""
    d = [random_nonzero(field, rng) for _ in range(n)]
    p = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    for row in p:
        row[-1] = row[0]
    gram = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gram[i][j] = gram[i][j] + p[k][i] * d[k] * p[k][j]
    return QuadraticForm(tuple(tuple(r) for r in gram), field)


def test_witt_decompose_random_gram():
    rng = random.Random(41)
    for field in (F, GF(3), GF(5), GF(7), GF(11)):
        one = field.one()
        for rank in range(1, 8):
            for _ in range(2):
                q = random_regular_gram(rng, field, rank)
                w = witt_decompose(q)
                diag, _ = diagonalize(q)
                planes = (one, -one) * w.index
                assert isometric_diagonal(tuple(w.kernel) + planes, diag.entries, field)
                if w.kernel:
                    assert not is_isotropic(DiagonalForm(w.kernel, field))
            if field is not F and rank > 1:
                with pytest.raises(DegenerateFormError):
                    witt_decompose(_singular_gram(rng, field, rank))


def test_witt_cancellation():
    rng = random.Random(9)
    for _ in range(30):
        field = rng.choice([F, GF(5)])
        q = random_regular_diagonal(rng, field, rng.randint(1, 4))
        plane = DiagonalForm((field.one(), -field.one()), field)
        assert witt_decompose(q) == witt_decompose(orthogonal_sum(q, plane))


def test_signed_discriminant_examples():
    assert signed_discriminant(DiagonalForm(frac(1, -1), F)).is_trivial
    a, b = Fraction(3), Fraction(5)
    assert signed_discriminant(DiagonalForm((a, b), F)) == square_class(-a * b)
    assert signed_discriminant(DiagonalForm(frac(1, 1, 1, 1), F)).is_trivial


def test_signed_discriminant_multiplicative_even_rank():
    rng = random.Random(13)
    for _ in range(100):
        q1 = random_regular_diagonal(rng, F, 2 * rng.randint(1, 3))
        q2 = random_regular_diagonal(rng, F, 2 * rng.randint(1, 2))
        assert signed_discriminant(orthogonal_sum(q1, q2)) == signed_discriminant(
            q1
        ) * signed_discriminant(q2)


def test_twist_preserves_isotropy():
    rng = random.Random(15)
    for _ in range(40):
        q = random_regular_diagonal(rng, F, rng.randint(1, 5))
        n = random_nonzero(F, rng)
        assert is_isotropic(q) == is_isotropic(twist(q, n))


def test_hasse_invariant_and_isometry():
    # <1,1> and <2,2> are isometric over Q; <1,1> and <1,2> are not
    assert isometric_diagonal(frac(1, 1), frac(2, 2), F)
    assert not isometric_diagonal(frac(1, 1), frac(1, 2), F)
    assert isometric_diagonal(frac(1, -1), frac(2, -2), F)
    # the product 1000036000099 of the entries is beyond trial division
    assert isometric_diagonal((1000003, 1000033), (1000033, 1000003), QQ)


def test_hasse_invariant_matches_pairwise_product():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 8)
        # entries carry square factors and denominators
        es = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 30) * rng.randint(1, 6) ** 2, rng.randint(1, 12))
            for _ in range(n)
        ]
        for v in support_places(*es):
            pairwise = 1
            for i in range(n):
                for j in range(i + 1, n):
                    pairwise *= hilbert_symbol(es[i], es[j], v)
            assert hasse_invariant(es, v) == pairwise, (es, v)


def _is_squarefree_int(a):
    return a.denominator == 1 and square_class(a).rep == a


def _assert_witt_class(q, w):
    assert w.rank == q.rank
    assert all(_is_squarefree_int(a) for a in w.kernel)
    if w.kernel:
        assert not is_isotropic(DiagonalForm(w.kernel, F))
    planes = frac(1, -1) * w.index
    assert isometric_diagonal(tuple(w.kernel) + planes, q.entries, F)


def test_witt_decompose_large_prime_entries():
    # the coefficient-box search took over 100 s here and blew the kernel
    # entries up to 3541033496/215253
    q = DiagonalForm(frac(1, 1, 1, -1001, 17, -19), F)
    w = witt_decompose(q)
    assert w.index == 2 and len(w.kernel) == 2
    _assert_witt_class(q, w)
    # every auxiliary value for <4583103, -837446298, -786630, -287> is a
    # multiple of 2017; the search over all |t| <= 10^6 gave up on it
    q = DiagonalForm(frac(-2, 51, -29274, 4583103, -837446298, -786630), F)
    w = witt_decompose(q)
    assert w.index == 2
    _assert_witt_class(q, w)


def test_witt_decompose_rank8_sums():
    # the two rank-8 I^2 sums whose reduction needed the box search
    from cliffinv.invariants import e2_additivity_check

    for left, right in (((6, -2, 5, -60), (-3, 7, -3, 63)), ((-3, -8, 4, 96), (-5, -1, -8, -40))):
        q = DiagonalForm(frac(*(left + right)), F)
        w = witt_decompose(q)
        assert w.index == 2 and len(w.kernel) == 4
        _assert_witt_class(q, w)
        assert e2_additivity_check(DiagonalForm(frac(*left), F), DiagonalForm(frac(*right), F))


def test_isotropic_ternary_with_common_factors():
    # -2x^2 + 5y^2 - 2z^2 has the zero (1, 2, 3); the first and last
    # coefficients share 2, which the coprime reduction must remove
    q = DiagonalForm(frac(-2, 5, -2), F)
    assert sum(a * x * x for a, x in zip(q.entries, frac(1, 2, 3))) == 0
    v = isotropic_vector(q)
    assert sum(a * x * x for a, x in zip(q.entries, v)) == 0 and any(v)


def _box_has_zero(entries, bound):
    """Meet in the middle over the box |x_i| <= bound, the zero vector excluded."""
    from itertools import product

    k = len(entries) // 2
    rng = range(-bound, bound + 1)
    left = {}
    for vec in product(rng, repeat=k):
        val = sum(a * x * x for a, x in zip(entries[:k], vec))
        left[val] = left.get(val, False) or any(vec)
    for vec in product(rng, repeat=len(entries) - k):
        val = sum(a * x * x for a, x in zip(entries[k:], vec))
        if -val in left and (any(vec) or left[-val]):
            return True
    return False


def test_isotropy_decision_and_construction_agree():
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(3, 6)
        ints = [rng.choice([-1, 1]) * rng.randint(1, 1000) for _ in range(n)]
        q = DiagonalForm(frac(*ints), F)
        iso = is_isotropic(q)
        seen[iso] += 1
        if iso:
            v = isotropic_vector(q)
            assert sum(a * x * x for a, x in zip(q.entries, v)) == 0 and any(v)
        else:
            with pytest.raises(ValueError):
                isotropic_vector(q)
            assert not _box_has_zero(ints, 6)
        _assert_witt_class(q, witt_decompose(q))
    assert seen[True] and seen[False]


# The route before carried classes: every entry squarefreed on its own,
# products of entries by gcds, and the places of every isotropy test and
# of the dictionary by support_places.  The package now factors each entry
# once and multiplies the carried prime sets; both must agree everywhere.


def _reference_squarefree(a):
    a = Fraction(a)
    n = a.numerator * a.denominator
    return (-1 if n < 0 else 1) * math.prod(p for p, e in factor_integer(n).items() if e % 2)


def _reference_isotropic(sf):
    n = len(sf)
    if n <= 1:
        return False
    if n == 2:
        return sf[0] == -sf[1]
    if n >= 5:
        return any(a > 0 for a in sf) and any(a < 0 for a in sf)
    return all(_isotropic_locally(sf, v) for v in support_places(*sf))


def _reference_auxiliary(a1, a2, rest):
    d = 1
    for v in support_places(a1, a2, *rest):
        units = () if v.is_infinite else (1, 3, 5, 7) if v.p == 2 else (1, GF(v.p).nonresidue)
        if units and not any(
            _isotropic_locally([a1, a2, -u], v) and _isotropic_locally([u] + rest, v) for u in units
        ):
            d *= v.p
    for m in count(1):
        for t in (d * m, -d * m):
            if _reference_squarefree(t) == t and _reference_isotropic([a1, a2, -t]):
                if _reference_isotropic([t] + rest):
                    return t


def _reference_split(sf):
    """The complement of the plane that witt_decompose splits off <sf>."""
    n = len(sf)
    for i, j in combinations(range(n), 2):
        if sf[i] == -sf[j]:
            return [a for k, a in enumerate(sf) if k not in (i, j)]
    for idx in combinations(range(n), 3):
        sub = [sf[k] for k in idx]
        if _reference_isotropic(sub):
            return [a for k, a in enumerate(sf) if k not in idx] + [-squarefree_mul(*sub)]
    a1, a2, rest = sf[0], sf[1], sf[2:]
    t = _reference_auxiliary(a1, a2, rest)
    return [squarefree_mul(a1, a2, t)] + _reference_split([t] + rest)


def _reference_witt(entries):
    sf, index = [_reference_squarefree(a) for a in entries], 0
    while _reference_isotropic(sf):
        sf, index = _reference_split(sf), index + 1
    return frac(*sf), index


def _reference_discriminant(entries):
    n = len(entries)
    return squarefree_mul(-1 if (n * (n - 1) // 2) % 2 else 1, *map(_reference_squarefree, entries))


def _reference_dictionary(entries):
    return BrauerClass2([v for v in support_places(*entries) if clifford_invariant_local(entries, v) == -1])


def _carried_class_forms(rng, count):
    """Rank 1-8 forms with denominators, signs, square factors and at most
    one entry with a prime near 10^6; every third even-rank form is in I2."""
    def entry(big=False):
        num = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 13]) * rng.randint(1, 6) ** 2
        return Fraction(num * (rng.choice([999961, 999979, 999983]) if big else 1), rng.choice([1, 1, 2, 4, 9, 12]))

    for k in range(count):
        n = rng.randint(1, 8)
        es = [entry(big=i == 0 and rng.random() < 0.3) for i in range(n)]
        if n % 2 == 0 and k % 3 == 0:
            # make the signed discriminant trivial: scale the last entry by it
            es[-1] *= _reference_discriminant(es) * rng.randint(1, 5) ** 2
        rng.shuffle(es)
        yield DiagonalForm(tuple(es), F)


def test_carried_classes_match_the_reference_route():
    rng = random.Random(1108)
    n_i2 = 0
    for q in _carried_class_forms(rng, 520):
        es = list(q.entries)
        w = witt_decompose(q)
        assert (w.kernel, w.index) == _reference_witt(es), es
        assert is_isotropic(q) == _reference_isotropic([_reference_squarefree(a) for a in es])
        assert signed_discriminant(q).rep == _reference_discriminant(es), es
        assert clifford_invariant_class(es) == _reference_dictionary(es), es
        if q.rank % 2 == 0 and _reference_discriminant(es) == 1:
            n_i2 += 1
            assert e2_of_form(q) == _reference_dictionary(es), es
    assert n_i2 >= 80


def test_orthogonal_sum_carries_the_summands_classes():
    rng = random.Random(36)
    forms = list(_carried_class_forms(rng, 60))
    kernels = [DiagonalForm(w.kernel, F) for w in map(witt_decompose, forms[:30]) if w.kernel]
    summands = forms + kernels
    for k in range(len(summands)):
        q1, q2 = summands[k], rng.choice(summands)
        if k % 3 == 0:  # fresh summands, no classes to carry
            q1, q2 = DiagonalForm(tuple(q1.entries), F), DiagonalForm(tuple(q2.entries), F)
        else:  # both summands compute their classes, and the sum carries them
            q1.entries.squarefree, q2.entries.squarefree
        s = orthogonal_sum(q1, q2)
        assert ("squarefree" in vars(s.entries)) == (k % 3 != 0)
        assert s.entries.squarefree == _squarefree_entries(tuple(s.entries))


def _reference_diagonalize(q):
    """diagonalize with dense column operations, zero entries included."""
    field, n = q.field, q.rank
    g = [list(r) for r in q.gram]
    p = linalg.identity(n, field)
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
                add_col(k, next(j for j in range(k + 1, n) if g[k][j]), field.one())
        for j in range(k + 1, n):
            if g[k][j]:
                add_col(j, k, -(g[k][j] / g[k][k]))
    return tuple(g[i][i] for i in range(n)), [[cols[j][i] for j in range(n)] for i in range(n)]


def test_diagonalize_skipping_zeros_matches_the_dense_reference():
    from cliffinv.dedekind import QuadOrder, twist_by_alignment

    rng = random.Random(2011)
    forms = [
        random_regular_gram(rng, field, n)
        for field in (F, GF(3), GF(11))
        for n in range(2, 8)
        for _ in range(4)
    ]
    p2 = arith_ideals(QuadOrder(-5))[1]
    for h in arith_forms():
        forms += [h.form, twist_by_alignment(h, p2, h.order.element(1, 1)).form]
    assert len(forms) == 3 * 6 * 4 + 64
    for q in forms:
        d, p = diagonalize(q)
        entries, pmat = _reference_diagonalize(q)
        assert d.entries == entries and p == pmat
        assert [str(x) for x in d.entries] == [str(x) for x in entries]
        assert [[str(x) for x in row] for row in p] == [[str(x) for x in row] for row in pmat]
