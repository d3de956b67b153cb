import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from cliffinv import dedekind, forms, jsonio
from cliffinv.algebras import (
    StructureAlgebra,
    associativity_witness,
    central_idempotents,
    find_quaternion_basis,
    trace_form,
)
from cliffinv.clifford import _mask_label, _masks_by_parity, split_components
from cliffinv.dedekind import (
    FracIdeal,
    IdealValuedForm,
    QuadOrder,
    class_group_mod_squares,
    even_clifford_order,
    genus_label,
    hyperbolic_ideal_form,
    ideal_orthogonal_sum,
    ideal_sqrt_alignment,
    normalize_to_representative,
    order_reduction_semisimple,
    prime_ideals_above,
    principal_generator,
    reduction_commutes,
    split_reduction,
    total_witt_element,
    twist_by_alignment,
)
from cliffinv.errors import CliffinvError, ClosureViolation, UnsupportedBase
from cliffinv.forms import QuadraticForm, diagonalize
from cliffinv.invariants import e0, e1, e2
from cliffinv.scalars import GF, QuadElement, squarefree_part

from random_forms import arith_forms, arith_ideals, left_mult_matrix


def order5():
    return QuadOrder(-5)


def p2_of(order):
    return FracIdeal.from_generators(order, [order.field.from_int(2), order.element(1, 1)])


def test_order_construction():
    o = order5()
    assert o.omega == QuadElement(0, 1, -5)
    assert o.disc == -20
    o15 = QuadOrder(-15)
    assert o15.omega == QuadElement(Fraction(1, 2), Fraction(1, 2), -15)
    assert o15.disc == -15
    with pytest.raises(ValueError):
        QuadOrder(4)


def test_ideal_arithmetic():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    assert p2.norm() == 2
    assert p2 * p2.inverse() == one
    sq = p2 * p2
    assert sq.norm() == 4
    g = principal_generator(sq)
    assert g is not None and abs(g.norm()) == 4  # p2^2 = (2)
    assert (p2**3).norm() == 8
    assert p2.contains(o.field.from_int(2))
    assert not p2.contains(o.field.from_int(1))


def test_p2_not_principal():
    # oracle: x^2 + 5 y^2 = 2 has no integer solutions
    sols = [(x, y) for x in range(-3, 4) for y in range(-2, 3) if x * x + 5 * y * y == 2]
    assert not sols
    assert principal_generator(p2_of(order5())) is None


def test_prime_splitting():
    o = order5()
    assert len(prime_ideals_above(o, 3)) == 2  # -5 = 1 mod 3 splits
    assert len(prime_ideals_above(o, 11)) == 0  # inert
    assert len(prime_ideals_above(o, 5)) == 1  # ramified
    assert len(prime_ideals_above(o, 2)) == 1  # ramified (disc -20)


def test_class_groups():
    o = order5()
    reps = class_group_mod_squares(o)
    assert [r.label() for r in reps] == ["O", "(2,1+1w)"]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(-1))] == ["O"]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(2))] == ["O"]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(5))] == ["O"]
    # labels are interned: every kept copy shares one string
    assert reps[1].label() is class_group_mod_squares(order5())[1].label()
    assert len(class_group_mod_squares(QuadOrder(-15))) == 2


def test_class_group_mod_squares_sizes():
    # h(-14) = 4 (cyclic); Cl(-21), Cl(-30) are (Z/2)^2; h = 2 for 10, 15
    # and 34 (N(35 + 6 sqrt 34) = +1, so its narrow group has order 4);
    # h(79) = 3, so Cl/2 is trivial
    sizes = {-14: 2, -21: 4, -30: 4, 10: 2, 15: 2, 34: 2, 79: 1}
    for d, size in sizes.items():
        assert len(class_group_mod_squares(QuadOrder(d))) == size, d
    # the least (norm, label) ideal of a reduced form in each coset
    assert [r.label() for r in class_group_mod_squares(QuadOrder(-15))] == ["O", "(2,1+1w)"]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(-21))] == [
        "O",
        "(2,1+1w)",
        "(3,1w)",
        "(5,2+1w)",
    ]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(34))] == ["O", "(3,1+1w)"]
    # earlier representatives lie in the same cosets
    earlier = (
        (-15, (2, 0, 1), (2, 1, 1)),
        (-21, (5, 3, 1), (5, 2, 1)),
        (-65, (11, 1, 1), (6, 1, 1)),
    )
    for d, old, new in earlier:
        o = QuadOrder(d)
        assert ideal_sqrt_alignment(FracIdeal(o, 1, *new), FracIdeal(o, 1, *old)) is not None


def test_real_generator_of_negative_norm():
    # in Z[sqrt 3], x^2 - 3y^2 = 2 has no solution (2 is not a square
    # mod 3), so (2, 1 + w) = (1 + w) has generators of norm -2 only
    o = QuadOrder(3)
    ideal = FracIdeal.from_generators(o, [o.field.from_int(2), o.element(1, 1)])
    g = principal_generator(ideal)
    assert g is not None and g.norm() == -2 and ideal.contains(g)
    assert principal_generator(prime_ideals_above(QuadOrder(10), 2)[0]) is None


def _squarefree_orders(bound):
    return [QuadOrder(d) for d in range(-bound, bound + 1) if d not in (0, 1) and squarefree_part(d) == d]


def _reference_reduced_forms(order):
    """Forms of disc(O) with |b| <= a <= c (D < 0), or the reduced forms (D > 0)."""
    disc = order.disc
    out = []
    if disc < 0:
        a = 1
        while 3 * a * a <= -disc:
            for b in range(-a + (a + disc) % 2, a + 1, 2):  # b = D mod 2
                c, rem = divmod(b * b - disc, 4 * a)
                if not rem and c >= a:
                    out.append((a, b, c))
            a += 1
        return out
    root = math.isqrt(disc)
    for b in range(2 - disc % 2, root + 1, 2):
        m = (disc - b * b) // 4
        for a in range((root - b) // 2 + 1, (root + b) // 2 + 1):
            if m % a == 0:
                out += [(a, b, -m // a), (-a, b, m // a)]
    return out


def _reference_class_group_mod_squares(order):
    """Cl/Cl^2 by enumerating the class group: the classes are read off the
    reduced forms (for D > 0 the cycles of (a, b, c) and (-a, b, -c)
    together), squares are quotiented out by ideal products reduced to
    their classes, and the representative of a coset is the least
    (norm, label) ideal of a form of the coset."""
    t = order.omega_trace
    key = lambda ideal: (ideal.norm(), ideal.label())  # noqa: E731
    class_of, reps = {}, []
    for f in _reference_reduced_forms(order):
        if f in class_of:
            continue
        a, b, c = f
        if order.disc < 0:
            members = {f, (a, -b, c)} if b == 0 or abs(b) == a or a == c else {f}
        else:
            members = {g for h in (f, (-a, b, -c)) for g, _ in dedekind._cycle(order, h, ((1, 0), (0, 1)))}
        for g in members:
            class_of[g] = len(reps)
        reps.append(min((FracIdeal(order, 1, abs(g[0]), (g[1] - t) // 2, 1) for g in members), key=key))

    def class_index(ideal):
        return class_of[dedekind._reduce(order, *dedekind._primitive_form(ideal))[0]]

    squares = {class_index(r * r) for r in reps}
    chosen, covered = [], set()
    for k in sorted(range(len(reps)), key=lambda k: key(reps[k])):
        if k not in covered:
            chosen.append(reps[k])
            covered |= {class_index(reps[k] * reps[s]) for s in squares}
    return chosen


def test_genus_representatives_match_class_enumeration():
    orders = _squarefree_orders(600)
    assert len(orders) == 731
    for o in orders:
        reps = class_group_mod_squares(o)
        assert [r.label() for r in reps] == [r.label() for r in _reference_class_group_mod_squares(o)], o
        assert len({genus_label(r) for r in reps}) == len(reps), o


def test_alignment_onto_genus_representatives():
    # P, P^2 and P Q for the prime ideals above p <= 13 land on the
    # representative with their genus label, whatever the shape of Cl(O)
    for o in _squarefree_orders(200):
        rep_of = {genus_label(r): r for r in class_group_mod_squares(o)}
        primes = [P for p in (2, 3, 5, 7, 11, 13) for P in prime_ideals_above(o, p)]
        values = primes + [P * P for P in primes] + [P * Q for P, Q in combinations(primes, 2)]
        for v in values:
            rep = rep_of[genus_label(v)]
            n_ideal, phi = ideal_sqrt_alignment(rep, v)
            assert (n_ideal * n_ideal * v).scale(phi) == rep, (o, v)


def test_normalization_beyond_elementary_class_groups():
    # Cl(-23) = Z/3, Cl(-14) = Z/4, Cl(-65) = Z/2 x Z/4, Cl(79) = Z/3
    for d in (-23, -14, -65, 79):
        o = QuadOrder(d)
        reps = class_group_mod_squares(o)
        for P in prime_ideals_above(o, 2) + prime_ideals_above(o, 3):
            rep, normal = normalize_to_representative(hyperbolic_ideal_form(o, [o.one_ideal()], P), reps)
            assert normal.value == rep and genus_label(rep) == genus_label(P)
            tw = total_witt_element(o, [hyperbolic_ideal_form(o, [P], P)])
            assert list(tw.components) == [rep.label()]


def test_class_group_mod_squares_large_discriminants():
    assert [r.label() for r in class_group_mod_squares(QuadOrder(-10007))] == ["O"]
    assert [r.label() for r in class_group_mod_squares(QuadOrder(-10**6 - 3))] == ["O"]
    reps = class_group_mod_squares(QuadOrder(-30030))
    assert len(reps) == 32 and len({genus_label(r) for r in reps}) == 32


def test_prime_ideals_above_large_prime():
    o = QuadOrder(-1)
    start = time.perf_counter()
    primes = prime_ideals_above(o, 1000000009)
    assert time.perf_counter() - start < 1
    assert len(primes) == 2 and all(P.norm() == 1000000009 for P in primes)
    assert primes[0] != primes[1] and primes[0].conjugate() == primes[1]


def _integral_ideals(order, bound):
    """Every integral ideal of norm <= bound: c (Z A + Z (B + w)), A | N(B + w)."""
    t, n = order.omega_trace, order.omega_norm
    out = []
    for c in range(1, bound + 1):
        for a in range(1, bound // (c * c) + 1):
            for b in range(a):
                if (b * b + t * b + n) % a == 0:
                    out.append(FracIdeal(order, 1, c * a, c * b, c))
    return out


def test_principality_sweep():
    # (ideal count, principal count, sha256 of the verdict string in
    # enumeration order), recorded from the earlier exhaustive box search
    recorded = {
        -5: (83, 42, "2550942310fc2dd75ca9f22326a65c8d5138b2d566de31b6f288190b740585df"),
        -14: (100, 25, "03defa32a447e58cd20d8d243855ad8f35d33a382ba2176eda17f8e0fde21793"),
        -21: (81, 20, "9c740bab6a2cdb816ff8493e7d9010b49f22e8ad2e30bee78dbee0046a36d164"),
        10: (69, 35, "811e763d962585fd4f88d7211273857b667dc309acf3995338b606e4b15faa83"),
        15: (65, 34, "531cb15b5d0ccf2ad49a89faeffa3521084482ac1a62323c5bac937c576efc63"),
    }
    for d, (count, principal, digest) in recorded.items():
        verdicts = ""
        for ideal in _integral_ideals(QuadOrder(d), 60):
            g = principal_generator(ideal)
            verdicts += "0" if g is None else "1"
            if g is not None:
                assert ideal.contains(g) and abs(g.norm()) == ideal.norm()
        assert (len(verdicts), verdicts.count("1")) == (count, principal), d
        assert hashlib.sha256(verdicts.encode()).hexdigest() == digest, d


def test_hyperbolic_ideal_form():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    h = hyperbolic_ideal_form(o, [one], p2)
    assert h.rank == 2
    assert h.coeff_ideals == (p2, one)
    assert h.form.gram[0][1] == o.field.one() / o.field.from_int(2)
    # determinant identity holds by construction (validated in __init__)


def test_integrality_enforced():
    o = order5()
    one = o.one_ideal()
    k = o.field
    half = k.one() / k.from_int(2)
    # q-value 1 with polar determinant 4 is not regular over this base
    from cliffinv.dedekind import IdealValuedForm

    with pytest.raises(CliffinvError):
        IdealValuedForm(
            (one, one),
            QuadraticForm(((k.one(), k.zero()), (k.zero(), -k.one())), k),
            one,
        )


def test_malformed_gram_rejected():
    o = order5()
    one, k = o.one_ideal(), o.field
    with pytest.raises(ValueError, match="symmetric"):
        IdealValuedForm((one, one), QuadraticForm(((k.one(), k.one()), (k.zero(), k.one())), k), one)
    with pytest.raises(ValueError, match="size"):
        IdealValuedForm((one,), forms.hyperbolic(1, k), one)
    with pytest.raises(ValueError, match="size"):
        IdealValuedForm((one, one, one), forms.hyperbolic(1, k), one)
    # the constructors pass on the forms layer's checks
    with pytest.raises(ValueError):
        hyperbolic_ideal_form(o, [], one)
    with pytest.raises(ValueError):
        twist_by_alignment(hyperbolic_ideal_form(o, [one], one), one, k.zero())


@pytest.mark.parametrize("d", [-5, 10, -23, 13])
def test_constructors_act_on_the_generic_fibre(d):
    o = QuadOrder(d)
    one, k = o.one_ideal(), o.field
    pid = next(P for p in (2, 3, 5, 7) for P in prime_ideals_above(o, p))
    for coeffs in ([one], [pid], [one, pid], [pid, pid.inverse(), one]):
        for value in (one, pid):
            h = hyperbolic_ideal_form(o, coeffs, value)
            assert h.form == forms.hyperbolic(len(coeffs), k)
            s = ideal_orthogonal_sum(h, hyperbolic_ideal_form(o, [pid], value))
            assert s.form == forms.orthogonal_sum(h.form, forms.hyperbolic(1, k))
            assert s.coeff_ideals[: h.rank] == h.coeff_ideals and s.value == value
            phi = o.element(1, 1)
            t = twist_by_alignment(h, pid, phi)
            assert t.form == forms.twist(h.form, phi)
            assert t.value == (pid * pid * value).scale(phi)


def test_twists():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    k = o.field
    h = hyperbolic_ideal_form(o, [one], p2)
    assert twist_by_alignment(h, one, k.one()).value == p2
    t = twist_by_alignment(h, p2, k.one() / k.from_int(2))
    assert t.value == p2  # p2^2 p2 (1/2) = p2
    back = twist_by_alignment(
        twist_by_alignment(h, p2, k.from_int(3)), p2.inverse(), k.one() / k.from_int(3)
    )
    assert back.value == h.value and back.form == h.form and back.coeff_ideals == h.coeff_ideals


def test_even_clifford_order_rank2():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    co = even_clifford_order(hyperbolic_ideal_form(o, [one], p2))
    assert co.algebra.dim == 2
    assert associativity_witness(co.algebra) is None
    assert len(central_idempotents(co.algebra)) == 4
    assert all(c == one for c in co.coeff_ideals)


def test_even_clifford_order_rank4():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    h4 = hyperbolic_ideal_form(o, [one, one], p2)
    co = even_clifford_order(h4)
    assert co.algebra.dim == 8
    diag, _ = diagonalize(h4.form)
    sc = split_components(diag)
    # the component is split: alpha = r^2 is a square, so the norm form
    # <1, -alpha, -beta, alpha beta> has the zero (r, 1, 0, 0)
    k = o.field
    alpha, beta, _ = find_quaternion_basis(sc.plus)
    assert alpha == k.one() / k.from_int(4)
    assert k.is_square(alpha)
    norm = (k.one(), -alpha, -beta, alpha * beta)
    zero_vec = (k.sqrt(alpha), k.one(), k.zero(), k.zero())
    assert not sum((a * x * x for a, x in zip(norm, zero_vec)), k.zero())


def test_even_clifford_order_tables_frozen():
    # sha256 of the order tables, recorded from the linear-solve
    # construction that the monomial rules replaced
    o = order5()
    one = o.one_ideal()
    k = o.field
    half = k.one() / k.from_int(2)
    # x^2 + xy with value O: the regular case with a nonzero diagonal
    xy = IdealValuedForm((one, one), QuadraticForm(((k.one(), half), (half, k.zero())), k), one)
    hyperbolic = {
        2: "516e8553c43441899a1773dbf753ad1b263b1d51e5e8229279be50a46c8e0ee2",
        4: "a74dacd3edcd2ff6a1aed57afce715c12f080122b933cb7afb016ad5afc0115d",
        6: "2cddad64e990abb222dd1a3647c0c60bb031567d58f84abb339548c7ce652a56",
    }
    xy_sums = {
        2: "516e8553c43441899a1773dbf753ad1b263b1d51e5e8229279be50a46c8e0ee2",
        4: "21bfbfe09c4f46d40240dba61b8f05f3abb73d0b973dc80b9e67e7989077c756",
        6: "c91fd4db5c0b2152a332567a76b401c55036878503c6cc4a2f36d33462219268",
    }
    # the hyperbolic forms scaled by 1 + √-5: structure constants with a
    # √-5 part (1, 22 and 367 of them), recorded before the rational-factor
    # shortcut of QuadElement.__mul__
    twisted = {
        2: "b91e134e1dea121951bcc7c00e9092778dcf3d5ef5df8efa0ca7be7c28283181",
        4: "6a85e96f0666956f4aa971fd8da678057e2f978ef68a6079bb6dbe1644034428",
        6: "6958741ba33e46d9a0d5093b40a72a304237b72b47221040d6faf57643641c67",
    }
    p2 = p2_of(o)
    q = xy
    for n in (2, 4, 6):
        if n > 2:
            q = ideal_orthogonal_sum(q, xy)
        h = hyperbolic_ideal_form(o, [one] * (n // 2), p2)
        tw = twist_by_alignment(h, p2, o.element(1, 1))
        for form, digest in ((h, hyperbolic[n]), (q, xy_sums[n]), (tw, twisted[n])):
            co = even_clifford_order(form)
            dumped = jsonio.canonical_dumps(jsonio.algebra_to_json(co.algebra)).encode()
            assert hashlib.sha256(dumped).hexdigest() == digest


def test_normalization_and_total_element():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    reps = class_group_mod_squares(o)
    h3 = hyperbolic_ideal_form(o, [one], p2**3)
    rep, normal = normalize_to_representative(h3, reps)
    assert rep == p2 and normal.value == p2
    tw = total_witt_element(o, [hyperbolic_ideal_form(o, [one], p2)])
    assert e0(tw) == 0
    tw2 = total_witt_element(
        o, [hyperbolic_ideal_form(o, [one], p2), hyperbolic_ideal_form(o, [one], one)]
    )
    assert e0(tw2) == 0 and sorted(tw2.components) == ["(2,1+1w)", "O"]
    # the Dedekind layer computes no discriminant or Brauer class yet
    for invariant in (e1, e2):
        with pytest.raises(UnsupportedBase):
            invariant(tw2)


def test_sum_preserves_regularity():
    o = order5()
    one = o.one_ideal()
    h = hyperbolic_ideal_form(o, [one], one)
    s = ideal_orthogonal_sum(h, h)
    assert s.rank == 4
    even_clifford_order(s)  # closure check runs in the constructor


def test_reduction_commutes():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    h4 = hyperbolic_ideal_form(o, [one, one], p2)
    for p in (3, 7, 23):
        assert reduction_commutes(h4, p)
    with pytest.raises(ValueError):
        reduction_commutes(h4, 11)  # inert prime


def test_split_reduction_is_a_ring_map():
    o = order5()
    k = o.field
    rng = random.Random(23)
    # the root of -5 comes from Tonelli-Shanks, so a prime above 10^12 returns
    for p in (3, 7, 23, 29, 1000000000061):
        rm = split_reduction(o, p)
        w = rm.apply(k.gen())
        assert w * w == rm.apply(k.from_int(-5)) and 0 < w.v <= p // 2

        dens = [x for x in range(1, 13) if x % p]

        def element():
            a, b = (Fraction(rng.randint(-40, 40), rng.choice(dens)) for _ in range(2))
            return QuadElement(a, b, -5)

        assert rm.apply(k.one()) == rm.target.one()
        for _ in range(40):
            x, y = element(), element()
            assert rm.apply(x + y) == rm.apply(x) + rm.apply(y)
            assert rm.apply(x * y) == rm.apply(x) * rm.apply(y)
    with pytest.raises(CliffinvError):
        split_reduction(o, 3).apply(k.one() / k.from_int(3))


def test_order_reductions_semisimple():
    o = order5()
    one = o.one_ideal()
    p2 = p2_of(o)
    co = even_clifford_order(hyperbolic_ideal_form(o, [one, one], p2))
    for p in (3, 7, 23, 29, 41, 43, 47):
        assert order_reduction_semisimple(co, p)


def test_trace_form_matches_left_multiplication():
    # tr(L_i L_j) read off the reduced table of the rank-4 order equals the
    # trace of the product of the dense left multiplication matrices
    o = order5()
    one = o.one_ideal()
    alg = even_clifford_order(hyperbolic_ideal_form(o, [one, one], p2_of(o))).algebra
    for p in (3, 7, 23):
        rm, fp = split_reduction(o, p), GF(p)
        table = [[[(k, rm.apply(c)) for k, c in row] for row in plane] for plane in alg.table]
        red = StructureAlgebra(fp, alg.labels, table, [rm.apply(u) for u in alg.unit])
        lmats = [left_mult_matrix(red, red.basis_vec(i)) for i in range(red.dim)]
        span = range(red.dim)
        want = [
            [sum((li[s][t] * lj[t][s] for s in span for t in span), fp.zero()) for lj in lmats]
            for li in lmats
        ]
        assert trace_form(red) == want
        assert any(want[i][j] for i in span for j in span if i != j)  # not only a diagonal


# ---------------------------------------------------------------------------
# Closure of even Clifford orders against the per-term route

OTHER_ORDERS = (-3, 5, -15, 10, -1, 2, 13, -23, 34, 3, -6)


def _tables_frozen_forms():
    """The nine forms of test_even_clifford_order_tables_frozen, in its order."""
    o = order5()
    one, p2, k = o.one_ideal(), p2_of(o), o.field
    half = k.one() / k.from_int(2)
    xy = IdealValuedForm((one, one), QuadraticForm(((k.one(), half), (half, k.zero())), k), one)
    out, q = [], xy
    for n in (2, 4, 6):
        if n > 2:
            q = ideal_orthogonal_sum(q, xy)
        h = hyperbolic_ideal_form(o, [one] * (n // 2), p2)
        out += [h, q, twist_by_alignment(h, p2, o.element(1, 1))]
    return out


def _other_order_forms():
    """Hyperbolic forms over QuadOrder(d) on the first prime ideal above 2, 3, 5 or 7."""
    for d in OTHER_ORDERS:
        o = QuadOrder(d)
        pid = next(P for p in (2, 3, 5, 7) for P in prime_ideals_above(o, p))
        yield hyperbolic_ideal_form(o, [o.one_ideal(), pid], pid)
        yield hyperbolic_ideal_form(o, [pid], o.one_ideal())


def _reference_closure(q):
    """Coefficient ideals of the even Clifford order of q, with L^-1 inverted
    per mask and the closure checked term by term: a_S a_T scaled by the
    constant, normalised to HNF, then tested for containment in a_U."""
    order, k, n = q.order, q.order.field, q.rank
    masks = _masks_by_parity(n, 0)
    index = {m: i for i, m in enumerate(masks)}
    table = [
        [[(index[u], c) for u, c in dedekind._mul_masks_gram(s, t, q.form.gram, k).items()] for t in masks]
        for s in masks
    ]
    ideals = []
    for m in masks:
        ideal = order.one_ideal()
        for i in range(n):
            if m >> i & 1:
                ideal = ideal * q.coeff_ideals[i]
        ideals.append(ideal * (q.value.inverse() ** (m.bit_count() // 2)))
    labels = tuple(_mask_label(m) for m in masks)
    alg = StructureAlgebra(k, labels, table, [k.one()] + [k.zero()] * (len(masks) - 1))
    for i in range(alg.dim):
        for j in range(alg.dim):
            for u, cuv in alg.table[i][j]:
                lhs = (ideals[i] * ideals[j]).scale(cuv)
                if not ideals[u].contains_ideal(lhs, k.one()):
                    raise ClosureViolation(f"product {labels[i]} * {labels[j]} escapes at {labels[u]}")
    return ideals


def test_closure_matches_the_per_term_route():
    o = order5()
    ideals = arith_ideals(o)
    sums = [
        ideal_orthogonal_sum(hyperbolic_ideal_form(o, [a], v), hyperbolic_ideal_form(o, [b], v))
        for a in ideals
        for b in ideals
        for v in ideals[:2]
    ]
    forms = arith_forms() + _tables_frozen_forms() + sums + list(_other_order_forms())
    assert len(forms) == 32 + 9 + 32 + 2 * len(OTHER_ORDERS)
    assert any(x.b for q in forms[32:41] for row in q.form.gram for x in row)  # a sqrt(-5) part
    for q in forms:
        assert even_clifford_order(q).coeff_ideals == _reference_closure(q)


def test_closure_violation_on_both_routes(monkeypatch):
    # one structure constant, of e_top * e_top at its least mask, divided by 101
    real = dedekind._mul_masks_gram
    hits = []

    def mutated(s, t, gram, field):
        terms = real(s, t, gram, field)
        if s == t == (1 << len(gram)) - 1 and terms:
            u = min(terms)
            terms[u] = terms[u] / field.from_int(101)
            hits.append(u)
        return terms

    o = order5()
    p2 = p2_of(o)
    forms = [
        hyperbolic_ideal_form(o, [o.one_ideal(), p2], p2),
        hyperbolic_ideal_form(o, [p2], o.one_ideal()),
        _tables_frozen_forms()[5],
        *_other_order_forms(),
    ]
    monkeypatch.setattr(dedekind, "_mul_masks_gram", mutated)
    for q in forms:
        hits.clear()
        with pytest.raises(ClosureViolation) as new:
            even_clifford_order(q)
        assert hits
        with pytest.raises(ClosureViolation) as ref:
            _reference_closure(q)
        assert str(new.value) == str(ref.value)


def test_even_clifford_order_lattice_work(monkeypatch):
    # HNF reductions in one rank-4 order: 134 with L^-1 inverted per mask and
    # a product plus a scaled product normalised per table term; 54 with the
    # powers of L^-1 formed once and one product per pair of basis elements
    o = order5()
    p2 = p2_of(o)
    q = hyperbolic_ideal_form(o, [o.one_ideal(), p2], p2)
    real = dedekind._hnf_from_rows
    calls = []

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(dedekind, "_hnf_from_rows", counted)
    even_clifford_order(q)
    assert len(calls) == 54


def test_even_clifford_order_coeff_ideals_frozen():
    # sha256 of the JSON list of coefficient ideal labels of the nine forms
    # of test_even_clifford_order_tables_frozen, recorded when each power of
    # L^-1 was formed per mask
    digests = [
        "28104813836a3168aa07bade46ba50d8e0c38310840d27c402cd5c9e75b1374e",
        "28104813836a3168aa07bade46ba50d8e0c38310840d27c402cd5c9e75b1374e",
        "7ab02008c8681cd1cd65766af5e6801f91001069df1f98aa1800d82d95c1194b",
        "f6034bffe95cc801d46df0f12419259dad32fa046cdcf2f83943d37592037e86",
        "2a99c466a20193044c862c7c9a5838481bfb2a590ad9c3dcfbec678d5f8b3cf8",
        "d44e05140b1286aaea3623dabd3d45341e7330c14013236b5759cc3e09e81938",
        "94726d583482718c14da0ddf77fc5ac1649e70ce28ded600b343c18029b51bea",
        "254a682f88687250516f7fc9c47df5384aaa2cac5cc288b31821e6cdd1a13110",
        "5eec897f905f5b2ffbc23e741bf6cdd0502b91ea027d0e39a04ec5ded873a4a2",
    ]
    for form, digest in zip(_tables_frozen_forms(), digests, strict=True):
        labels = [c.label() for c in even_clifford_order(form).coeff_ideals]
        assert hashlib.sha256(json.dumps(labels).encode()).hexdigest() == digest
