import hashlib
import random
from fractions import Fraction

import pytest

from cliffinv import clifford, jsonio, linalg
from cliffinv.algebras import AlgebraMorphism, StructureAlgebra, associativity_witness, center, central_idempotents, find_quaternion_basis, is_split_quaternion
from cliffinv.brauer import class_of_algebra
from cliffinv.clifford import (
    CliffordBimodule,
    EvenClifford,
    _mul_masks_gram,
    RingMap,
    base_change,
    clifford_bimodule,
    discriminant_algebra,
    even_clifford,
    exterior_operators,
    hyperbolic_model,
    split_components,
    sum_isomorphism,
    tables_commute,
)
from cliffinv.errors import CliffinvError, DegenerateFormError
from cliffinv.forms import DiagonalForm, diagonalize, hyperbolic, signed_det
from cliffinv.scalars import GF, QQ, square_class

from random_forms import random_regular_diagonal, random_regular_gram

F = QQ


def _reference_mul_masks(s, t, entries, field):
    """e_S e_T = coef * e_(S xor T) by walking bits: each j in T passes
    the bits of S above it, and each i in S and T contributes a_i."""
    inv = 0
    tt = t
    while tt:
        j = (tt & -tt).bit_length() - 1
        inv += (s >> (j + 1)).bit_count()
        tt &= tt - 1
    coef = field.one() if inv % 2 == 0 else -field.one()
    common = s & t
    while common:
        i = (common & -common).bit_length() - 1
        coef = coef * entries[i]
        common &= common - 1
    return coef, s ^ t


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def diag(*xs):
    return DiagonalForm(frac(*xs), F)


def test_dims_across_ranks():
    rng = random.Random(2)
    for _ in range(60):
        field = rng.choice([F, GF(3), GF(5), GF(7), GF(11)])
        n = rng.randint(1, 7)
        form = random_regular_diagonal(rng, field, n)
        ec = EvenClifford(form)
        bim = CliffordBimodule(ec)
        assert ec.dim == 2 ** (n - 1)
        assert bim.dim == 2 ** (n - 1)


def test_rank_one_is_base_field():
    ec = even_clifford(diag(3))
    assert ec.dim == 1


def test_rank_two_relation():
    a, b = Fraction(2), Fraction(5)
    ec = even_clifford(DiagonalForm((a, b), F))
    assert ec.dim == 2
    c, m = ec.mul_masks(0b11, 0b11)
    assert m == 0 and c == -a * b


def test_rank_three_gives_quaternions():
    ec = even_clifford(diag(1, 1, 1))
    assert ec.dim == 4
    assert associativity_witness(ec.algebra) is None
    assert len(center(ec.algebra, ec.generators())) == 1
    assert class_of_algebra(ec.algebra).to_json()["ramified"] == ["2", "inf"]


def test_associativity_certified_small_ranks():
    rng = random.Random(8)
    for n in (2, 3, 4, 5):
        form = random_regular_diagonal(rng, F, n)
        assert associativity_witness(EvenClifford(form).algebra) is None


def _rand_row(rng, masks, field=F):
    """A seeded {mask: coef} element on the given monomials."""
    row = {m: field.from_int(rng.randint(-3, 3)) for m in masks}
    return {m: c for m, c in row.items() if c}


def test_bimodule_left_action_example():
    a, b = Fraction(3), Fraction(7)
    bim = clifford_bimodule(DiagonalForm((a, b), F))
    out = bim.even.mul({0b11: F.one()}, bim.embed_vector(0))
    assert out[0b10] == -a
    assert not out.get(0b01)


def test_bimodule_mult_on_generators():
    a, b = Fraction(3), Fraction(7)
    bim = clifford_bimodule(DiagonalForm((a, b), F))
    m = bim.even.mul(bim.embed_vector(0), bim.embed_vector(0))
    assert m[0] == a  # m(i(v), i(v)) = q(v)
    m12 = bim.even.mul(bim.embed_vector(0), bim.embed_vector(1))
    assert m12[0b11] == F.one()


def test_bimodule_mult_random_values():
    rng = random.Random(12)
    for _ in range(20):
        form = random_regular_diagonal(rng, F, rng.randint(2, 5))
        bim = clifford_bimodule(form)
        n = form.rank
        coords = [F.from_int(rng.randint(-5, 5)) for _ in range(n)]
        vec = {1 << i: c for i, c in enumerate(coords) if c}
        q_val = sum((a * c * c for a, c in zip(form.entries, coords)), F.zero())
        m = bim.even.mul(vec, vec)
        assert m.get(0, F.zero()) == q_val


def test_bimodule_balanced():
    rng = random.Random(14)
    for _ in range(15):
        form = random_regular_diagonal(rng, F, rng.randint(2, 4))
        bim = clifford_bimodule(form)
        ec = bim.even
        x = _rand_row(rng, bim.masks)
        y = _rand_row(rng, bim.masks)
        c = _rand_row(rng, ec.masks)
        assert ec.mul(ec.mul(x, c), y) == ec.mul(x, ec.mul(c, y))


def test_bimodule_generator_actions_invertible():
    rng = random.Random(16)
    for _ in range(10):
        form = random_regular_diagonal(rng, F, rng.randint(2, 4))
        bim = clifford_bimodule(form)
        ec = bim.even
        for i in range(ec.n):
            for j in range(i + 1, ec.n):
                g = ec.embed_pair(i, j)
                cols = [ec.mul(g, {t: F.one()}) for t in bim.masks]
                # the transpose of the action matrix
                assert linalg.det([[col.get(m, F.zero()) for m in bim.masks] for col in cols], F)


def test_semilinear_center_action():
    rng = random.Random(18)
    for n in (2, 4, 6):
        form = random_regular_diagonal(rng, F, n)
        ec = EvenClifford(form)
        bim = CliffordBimodule(ec)
        z = {ec.top_mask(): F.one()}
        iota_z = {ec.top_mask(): -F.one()}  # the nontrivial centre automorphism negates z
        for t in bim.masks:
            x = {t: F.one()}
            assert ec.mul(x, z) == ec.mul(iota_z, x)


def canonical_involution(ec):
    """Signs of the word-reversal involution on the monomial basis, by mask."""
    one = ec.field.one()
    signs = {m: (m.bit_count() * (m.bit_count() - 1) // 2) % 2 for m in ec.masks}
    return {m: -one if odd else one for m, odd in signs.items()}


def _apply_signs(tau, x):
    return {m: tau[m] * c for m, c in x.items()}


def test_canonical_involution():
    a, b = Fraction(2), Fraction(3)
    ec = even_clifford(DiagonalForm((a, b), F))
    tau = canonical_involution(ec)
    assert tau[0b11] == -1
    rng = random.Random(20)
    for _ in range(5):
        form = random_regular_diagonal(rng, F, rng.randint(2, 5))
        ec = EvenClifford(form)
        tau = canonical_involution(ec)
        assert all(s * s == F.one() for s in tau.values())
        # anti-automorphism on random pairs
        for _ in range(20):
            x = _rand_row(rng, ec.masks)
            y = _rand_row(rng, ec.masks)
            lhs = _apply_signs(tau, ec.mul(x, y))
            rhs = ec.mul(_apply_signs(tau, y), _apply_signs(tau, x))
            assert lhs == rhs
        # generators transpose: tau(i(v (x) w)) = i(w (x) v)
        n = form.rank
        for i in range(n):
            for j in range(n):
                assert _apply_signs(tau, ec.embed_pair(i, j)) == ec.embed_pair(j, i)


def test_involution_type_on_idempotents():
    # n = 2 mod 4 with trivial discriminant: tau swaps the idempotents
    sc = split_components(diag(1, -1))
    ec = even_clifford(diag(1, -1))
    tau = canonical_involution(ec)
    assert _apply_signs(tau, sc.idempotent_plus) == sc.idempotent_minus
    # n = 0 mod 4: tau fixes them
    sc4 = split_components(diag(1, 1, 1, 1))
    ec4 = even_clifford(diag(1, 1, 1, 1))
    tau4 = canonical_involution(ec4)
    assert _apply_signs(tau4, sc4.idempotent_plus) == sc4.idempotent_plus


def test_center_dimensions_by_parity():
    rng = random.Random(22)
    for _ in range(20):
        field = rng.choice([F, GF(5)])
        n = rng.randint(1, 6)
        form = random_regular_diagonal(rng, field, n)
        ec = EvenClifford(form)
        cen = center(ec.algebra, ec.generators())
        assert len(cen) == (1 if n % 2 else 2)


def test_discriminant_algebra():
    assert discriminant_algebra(diag(1, -1)).split
    da = discriminant_algebra(diag(1, 1))
    assert not da.split and da.delta == -1
    a, b, c, d = frac(2, 3, 5, 7)
    da4 = discriminant_algebra(DiagonalForm((a, b, c, d), F))
    assert da4.delta == a * b * c * d
    assert discriminant_algebra(EvenClifford(DiagonalForm((a, b, c, d), F))) == da4
    with pytest.raises(ValueError):
        discriminant_algebra(diag(1, 1, 1))
    with pytest.raises(ValueError):
        discriminant_algebra(EvenClifford(diag(1, 1, 1)))


def test_split_components_examples():
    sc = split_components(diag(1, -1))
    assert sc.plus.dim == 1 and sc.minus.dim == 1
    sc4 = split_components(diag(1, 1, 1, 1))
    for comp in (sc4.plus, sc4.minus):
        assert comp.dim == 4
        assert class_of_algebra(comp).to_json()["ramified"] == ["2", "inf"]
    h4 = diagonalize(hyperbolic(2))[0]
    sch = split_components(h4)
    assert is_split_quaternion(sch.plus) and is_split_quaternion(sch.minus)


def _digest(obj):
    return hashlib.sha256(jsonio.canonical_dumps(obj).encode()).hexdigest()


def test_split_components_tables_frozen():
    # sha256 of the factor tables and of the plus basis, recorded from the
    # linear-solve construction that the monomial rules replaced
    f7 = GF(7)
    cases = (
        (
            diag(2, 3, -6, -5, -7, 35),
            "8f07de1038729e151736b506bdaedaeedae5acf7b952a83c1b59c33112ca28db",
            "9a8ab889482b8044e0c6b4db57e06fecee3e5ac48c9a1eef87eda4d4b3af8353",
            "69fad900efd533c6c1c17e1ad267393c209611eb9a16836fdcb7fe308b6e1c07",
        ),
        (
            DiagonalForm(tuple(f7.from_int(x) for x in (1, 2, 3, 5)), f7),
            "e74eee4fd755360fa0f762a1f1d0829f6d7a4cb79f3b6f733b801fabc326431d",
            "e74eee4fd755360fa0f762a1f1d0829f6d7a4cb79f3b6f733b801fabc326431d",
            "1bc0140ddfb93dd764171a3c55f62b6685c58ed2b4b561a7556e015d69b245ba",
        ),
    )
    for form, plus, minus, plus_basis in cases:
        sc = split_components(form)
        assert _digest(jsonio.algebra_to_json(sc.plus)) == plus
        assert _digest(jsonio.algebra_to_json(sc.minus)) == minus
        f, ec = form.field, EvenClifford(form)
        dense = []
        for row in sc.plus_basis:  # each row as a coordinate vector through ec.index
            vec = [f.zero()] * ec.dim
            for m, c in row.items():
                vec[ec.index[m]] = c
            dense.append(vec)
        assert _digest([[f.elt_to_str(x) for x in v] for v in dense]) == plus_basis
        assert sc.idempotent_plus == sc.plus_basis[0]
        assert sc.idempotent_minus == sc.minus_basis[0]
        plus_idem, minus_idem = sc.idempotent_plus, sc.idempotent_minus
        total = {m: plus_idem.get(m, f.zero()) + minus_idem.get(m, f.zero()) for m in plus_idem | minus_idem}
        assert {m: c for m, c in total.items() if c} == {0: f.one()}  # the unit


def test_gram_product_matches_diagonal_product():
    rng = random.Random(12)
    for field in (F, GF(7)):
        for n in range(1, 6):
            form = random_regular_diagonal(rng, field, n)
            a = form.entries
            gram = [[a[i] if i == j else field.zero() for j in range(n)] for i in range(n)]
            mul = EvenClifford(form).mul_masks
            for s in range(1 << n):
                for t in range(1 << n):
                    c, m = mul(s, t)
                    assert _mul_masks_gram(s, t, gram, field) == {m: c}


def test_lookup_product_matches_bit_walk():
    rng = random.Random(13)
    for field in (F, GF(3), GF(11)):
        for n in range(1, 8):
            form = random_regular_diagonal(rng, field, n)
            mul = EvenClifford(form).mul_masks
            for s in range(1 << n):
                for t in range(1 << n):
                    assert mul(s, t) == _reference_mul_masks(s, t, form.entries, field)


def test_gram_product_relations():
    # e_i e_i = g_ii and e_i e_j + e_j e_i = 2 g_ij on a non-diagonal Gram matrix
    g = [[Fraction(x) for x in row] for row in ((1, Fraction(1, 2), 3), (Fraction(1, 2), 0, -2), (3, -2, 5))]
    two = Fraction(2)
    for i in range(3):
        assert _mul_masks_gram(1 << i, 1 << i, g, F) == ({0: g[i][i]} if g[i][i] else {})
        for j in range(i + 1, 3):
            ij = _mul_masks_gram(1 << i, 1 << j, g, F)
            ji = _mul_masks_gram(1 << j, 1 << i, g, F)
            assert ij == {(1 << i) | (1 << j): 1}
            assert ji == {(1 << i) | (1 << j): -1, 0: two * g[i][j]}


def test_split_components_needs_square_discriminant():
    with pytest.raises(CliffinvError):
        split_components(diag(1, 1))


def test_functoriality_between_diagonalisations():
    # different diagonalisations of one Gram matrix carry equal invariants
    rng = random.Random(24)
    for _ in range(10):
        q = random_regular_gram(rng, F, 4)
        d1, _ = diagonalize(q)
        perm = list(range(4))
        rng.shuffle(perm)
        d2 = DiagonalForm(tuple(d1.entries[i] for i in perm), F)
        delta1 = discriminant_algebra(d1)
        delta2 = discriminant_algebra(d2)
        assert square_class(delta1.delta) == square_class(delta2.delta)
        if delta1.split:
            c1 = class_of_algebra(split_components(d1).plus)
            c2 = class_of_algebra(split_components(d2).plus)
            assert c1 == c2


def test_hyperbolic_model_small_ranks():
    hm1 = hyperbolic_model(1)
    assert hm1.even.dim == 2
    ids = central_idempotents(hm1.even.algebra)
    assert len(ids) == 4  # split etale quadratic centre
    hm2 = hyperbolic_model(2)
    # phi0 is an isomorphism onto M2 x M2: each image keeps the exterior
    # parity, the 8 images are independent, and phi0 keeps unit and products
    ec, one = hm2.even, F.one()
    imgs = {s: hm2.phi0({s: one}) for s in ec.masks}
    assert ec.dim == 8  # M2 x M2
    for op in imgs.values():
        assert not any((row ^ col).bit_count() % 2 for col, terms in op.items() for row in terms)
    assert linalg.independent(list(imgs.values()), F)
    assert imgs[0] == {m: {m: one} for m in range(4)}
    for s in ec.masks:
        for t in ec.masks:
            assert hm2.phi0(ec.mul({s: one}, {t: one})) == linalg.compose(imgs[s], imgs[t])
    for r in (4, 5):
        with pytest.raises(ValueError, match="between 1 and 3"):
            hyperbolic_model(r)


def test_exterior_operator_identities():
    rng = random.Random(26)
    for r in (1, 2, 3):
        contract, wedge = exterior_operators(r, F)
        dim = 1 << r
        tvec = [F.from_int(rng.randint(-3, 3)) for _ in range(r)]
        vvec = [F.from_int(rng.randint(-3, 3)) for _ in range(r)]
        dt = linalg.combine(tvec, contract)
        lv = linalg.combine(vvec, wedge)
        assert linalg.compose(dt, dt) == {}
        assert linalg.compose(lv, lv) == {}
        s = linalg.combine([F.one(), F.one()], [dt, lv])
        pairing = sum((tc * vc for tc, vc in zip(tvec, vvec)), F.zero())
        sq = linalg.compose(s, s)
        assert sq == ({i: {i: pairing} for i in range(dim)} if pairing else {})


def test_flipped_wedge_sign_fails_certification(monkeypatch):
    real = clifford.exterior_operators

    def flipped(r, field):
        contract, wedge = real(r, field)
        col = next(iter(wedge[0]))
        ((row, c),) = wedge[0][col].items()
        wedge[0][col] = {row: -c}
        return contract, wedge

    monkeypatch.setattr(clifford, "exterior_operators", flipped)
    with pytest.raises(CliffinvError):
        hyperbolic_model(2)


def _replace_operator(monkeypatch, mask, replace):
    """Make hyperbolic_model see op(e_mask) replaced by replace(ops)."""
    real = clifford._operator_products

    def patched(gens, r, field):
        ops = real(gens, r, field)
        ops[mask] = replace(ops)
        return ops

    monkeypatch.setattr(clifford, "_operator_products", patched)


def test_equivariance_certification_fires(monkeypatch):
    # the operators of a correct model pass; with one odd operator negated,
    # the product law fails on an (odd, even) pair
    hyperbolic_model(2)
    _replace_operator(monkeypatch, 0b1, lambda ops: linalg.combine([-F.one()], [ops[0b1]]))
    with pytest.raises(CliffinvError, match="product law at e1, e12"):
        hyperbolic_model(2)


@pytest.mark.parametrize(
    "mask, replace, match",
    [
        (0b11, lambda ops: linalg.combine([-F.one()], [ops[0b11]]), "product law"),
        (0b101, lambda ops: ops[0b11], "phi0 is not bijective"),
        (0b11, lambda ops: ops[0b1], "mixes parity"),
    ],
    ids=["negated-even", "dependent", "parity-mixing"],
)
def test_perturbed_operators_fail_certification(monkeypatch, mask, replace, match):
    _replace_operator(monkeypatch, mask, replace)
    with pytest.raises(CliffinvError, match=match):
        hyperbolic_model(2)


def _reference_mul(x, y, entries, field):
    out = {}
    for s, a in x.items():
        for t, b in y.items():
            c, m = _reference_mul_masks(s, t, entries, field)
            out[m] = out.get(m, field.zero()) + a * b * c
    return {m: c for m, c in out.items() if c}


def test_mul_matches_reference():
    rng = random.Random(32)
    for field in (F, GF(3), GF(5), GF(7), GF(11)):
        for n in range(1, 8):
            form = random_regular_diagonal(rng, field, n)
            ec = EvenClifford(form)
            even, odd = ec.masks, CliffordBimodule(ec).masks
            for xs, ys in ((even, even), (even, odd), (odd, even), (odd, odd)):
                for _ in range(3):
                    x = _rand_row(rng, rng.sample(xs, min(len(xs), 5)), field)
                    y = _rand_row(rng, rng.sample(ys, min(len(ys), 5)), field)
                    assert ec.mul(x, y) == _reference_mul(x, y, form.entries, field)
            # even times even against the structure table, through ec.index
            x, y = _rand_row(rng, even, field), _rand_row(rng, even, field)
            dense = [[field.zero()] * ec.dim for _ in range(3)]
            for vec, row in zip(dense, (x, y, ec.mul(x, y))):
                for m, c in row.items():
                    vec[ec.index[m]] = c
            assert ec.algebra.mul(dense[0], dense[1]) == dense[2]


def test_sum_isomorphism_rank_one_pair():
    a, b = Fraction(2), Fraction(5)
    si = sum_isomorphism(DiagonalForm((a,), F), DiagonalForm((b,), F))
    assert si.morphism.is_isomorphism()
    # the image of e1 e2 squares to -ab, matching C0(<a,b>)
    total = even_clifford(DiagonalForm((a, b), F))
    c, _ = total.mul_masks(0b11, 0b11)
    vec = [F.one() if m == 0b11 else F.zero() for m in total.masks]
    gen = si.morphism.apply(vec)
    sq = si.morphism.target.mul(gen, gen)
    assert si.morphism.target.is_scalar(sq) == c == -a * b


def test_sum_isomorphism_rank_pairs():
    rng = random.Random(28)
    for n1, n2 in ((2, 2), (2, 4), (4, 2), (3, 3), (1, 5)):
        q1 = random_regular_diagonal(rng, F, n1)
        q2 = random_regular_diagonal(rng, F, n2)
        si = sum_isomorphism(q1, q2)
        assert si.morphism.is_isomorphism()
    f7 = GF(7)
    q1 = random_regular_diagonal(rng, f7, 2)
    q2 = random_regular_diagonal(rng, f7, 3)
    assert sum_isomorphism(q1, q2).morphism.is_isomorphism()


def test_perturbed_sum_isomorphism_is_not_multiplicative():
    rng = random.Random(29)
    q1 = random_regular_diagonal(rng, F, 2)
    q2 = random_regular_diagonal(rng, F, 3)
    good = sum_isomorphism(q1, q2).morphism
    assert good.is_multiplicative()
    # the image of e1 e2 picks up an extra coordinate
    col = good.source.labels.index("e12")
    row = next(k for k in range(good.target.dim) if k not in good.cols[col])
    bad = AlgebraMorphism(good.source, good.target, {**good.cols, col: {**good.cols[col], row: F.one()}})
    assert not bad.is_multiplicative()


def _with_columns(m, cols):
    """The morphism m with the given columns."""
    return AlgebraMorphism(m.source, m.target, dict(enumerate(cols)))


def test_one_term_perturbations_are_not_multiplicative():
    # every column stays one term, so the check reads one entry per pair
    rng = random.Random(30)
    for field in (F, GF(3), GF(7)):
        for rank in range(2, 7):
            q = random_regular_diagonal(rng, field, rank)
            k = rng.randrange(1, rank)
            good = sum_isomorphism(DiagonalForm(q.entries[:k], field), DiagonalForm(q.entries[k:], field)).morphism
            assert good.is_multiplicative()
            cols = [good.cols[j] for j in range(good.source.dim)]
            assert all(len(c) == 1 for c in cols)
            dim = len(cols)
            for scale in (-field.one(), field.from_int(2)):
                j = rng.randrange(1, dim)
                bad = cols[:j] + [{k: scale * x for k, x in cols[j].items()}] + cols[j + 1:]
                # at rank 2, C0 is quadratic etale and e12 -> -e12 an automorphism
                automorphism = dim == 2 and scale * scale == field.one()
                assert _with_columns(good, bad).is_multiplicative() == automorphism
            i, j = dim - 2, dim - 1
            swapped = cols[:i] + [cols[j], cols[i]] + cols[j + 1:]
            assert not _with_columns(good, swapped).is_multiplicative()
            assert _with_columns(good, swapped).is_bijective()
            assert not _with_columns(good, cols[:i] + [cols[j], cols[j]]).is_bijective()
    # on the group algebra of (Z/2)^3 every coefficient is 1, so swapping
    # e_1 and e_2, no group automorphism, fails on the targets alone
    one, zero = F.one(), F.zero()
    table = [[((i ^ j, one),) for j in range(8)] for i in range(8)]
    group = StructureAlgebra(F, [str(i) for i in range(8)], table, [one] + [zero] * 7)
    perm = [0, 2, 1, 3, 4, 5, 6, 7]
    swap = AlgebraMorphism(group, group, {j: {perm[j]: one} for j in range(8)})
    assert swap.preserves_unit() and swap.is_bijective() and not swap.is_multiplicative()


def test_base_change():
    f5 = GF(5)

    def reduce(x):  # Q -> F_5 on 5-integral rationals
        if x.denominator % 5 == 0:
            raise DegenerateFormError("denominator not invertible mod 5")
        return f5.from_int(x.numerator) / f5.from_int(x.denominator)

    rm = RingMap(f5, reduce)
    d = base_change(diag(1, -1), rm)
    assert d.entries[1].v == 4
    assert tables_commute(diag(1, -1, 2, 3), rm)
    with pytest.raises(DegenerateFormError):
        base_change(diag(5), rm)
    with pytest.raises(DegenerateFormError):
        base_change(DiagonalForm((Fraction(1, 5),), F), rm)


def test_top_monomial_square_is_signed_det():
    rng = random.Random(30)
    for _ in range(20):
        form = random_regular_diagonal(rng, F, 2 * rng.randint(1, 3))
        ec = EvenClifford(form)
        c, m = ec.mul_masks(ec.top_mask(), ec.top_mask())
        assert m == 0 and c == signed_det(form)
