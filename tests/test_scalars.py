import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffinv.errors import FactorBoundExceeded, UnsupportedBase
from cliffinv.polys import Poly
from cliffinv.scalars import (
    GF,
    INFINITY,
    QQ,
    Place,
    QuadElement,
    QuadraticNumberField,
    RationalFunctionField,
    clifford_invariant_local,
    coprime_base,
    factor_integer,
    factor_poly,
    hasse_invariant,
    hilbert_symbol,
    is_prime,
    legendre,
    poly_sqrt,
    product_formula_check,
    rational_classes,
    rational_sqrt,
    sqrt_mod_p,
    square_class,
    squarefree_part,
    support_places,
)

from random_forms import random_nonzero

nonzero_small = st.integers(min_value=-200, max_value=200).filter(lambda x: x != 0)


def test_legendre_examples():
    assert legendre(4, 7) == 1
    assert legendre(7, 7) == 0
    # oracle: the squares mod 5 are exactly {1, 4}
    squares_mod_5 = {x * x % 5 for x in range(1, 5)}
    assert squares_mod_5 == {1, 4}
    assert legendre(2, 5) == -1


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 2)
    with pytest.raises(ValueError):
        legendre(3, 9)


def test_hilbert_trivial_first_argument():
    for b in (2, -3, 5, 7):
        for v in (INFINITY, Place.finite(2), Place.finite(3)):
            assert hilbert_symbol(1, b, v) == 1


def test_hilbert_minus_one_minus_one_at_infinity():
    assert hilbert_symbol(-1, -1, INFINITY) == -1


def test_hilbert_2_5_at_5_against_conic_search():
    # oracle: z^2 = 2x^2 + 5y^2 has no primitive solution mod 5^3
    squares = {z * z % 125 for z in range(125)}
    found = False
    for x in range(125):
        for y in range(125):
            if x % 5 == 0 and y % 5 == 0:
                continue
            if (2 * x * x + 5 * y * y) % 125 in squares:
                val = (2 * x * x + 5 * y * y) % 125
                # need a z not forced to share the factor of 5 with x, y
                for z in range(125):
                    if z * z % 125 == val and (x % 5 or y % 5 or z % 5):
                        found = True
    assert not found
    assert hilbert_symbol(2, 5, Place.finite(5)) == -1


def test_hilbert_unit_pair_at_odd_prime_is_trivial():
    assert hilbert_symbol(2, 3, Place.finite(5)) == 1


@given(nonzero_small, nonzero_small)
@settings(max_examples=150, deadline=None)
def test_hilbert_symmetry_and_product(a, b):
    assert product_formula_check(a, b)
    for v in support_places(a, b):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)


@given(nonzero_small)
@settings(max_examples=80, deadline=None)
def test_hilbert_a_minus_a(a):
    for v in support_places(a):
        assert hilbert_symbol(a, -a, v) == 1


@given(nonzero_small, nonzero_small, nonzero_small)
@settings(max_examples=80, deadline=None)
def test_hilbert_bimultiplicative(a, a2, b):
    for v in support_places(a, a2, b):
        assert hilbert_symbol(a * a2, b, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)


def _reference_hilbert(a, b, v):
    """(a, b)_v by the valuations of Fractions, as hilbert_symbol documents it."""
    a, b = Fraction(a), Fraction(b)
    if v.is_infinite:
        return -1 if a < 0 and b < 0 else 1
    p = v.p

    def split(x):  # x = p^e * num/den with num, den prime to p
        e, num, den = 0, x.numerator, x.denominator
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        return e, num, den

    alpha, un, ud = split(a)
    beta, wn, wd = split(b)
    if p == 2:
        u8, w8 = un * pow(ud, -1, 8) % 8, wn * pow(wd, -1, 8) % 8
        eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
        om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
        return -1 if (eps_u * eps_w + alpha * om_w + beta * om_u) % 2 else 1
    sign = -1 if (alpha * beta) % 2 and p % 4 == 3 else 1
    if beta % 2:
        sign *= legendre(un, p) * legendre(ud, p)
    if alpha % 2:
        sign *= legendre(wn, p) * legendre(wd, p)
    return sign


# 2, odd p = 1 and = 3 mod 4, primes above 10^6 of both kinds, the real place
LOCAL_PLACES = [Place.finite(p) for p in (2, 3, 5, 7, 13, 1000003, 1000033)] + [INFINITY]


def _seeded_rational(rng, v):
    """A signed rational with square factors, a denominator and a power of p."""
    p = v.p or rng.choice((2, 3))
    x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4) * rng.randint(1, 6) ** 2, rng.randint(1, 300))
    return x * Fraction(p) ** rng.randint(-3, 3)


def test_hilbert_symbol_matches_valuation_reference():
    rng = random.Random(12)
    for v in LOCAL_PLACES:
        values = set()
        for _ in range(400):
            a, b = _seeded_rational(rng, v), _seeded_rational(rng, v)
            got = hilbert_symbol(a, b, v)
            assert got == _reference_hilbert(a, b, v), (a, b, v)
            values.add(got)
        assert values == {1, -1}, v


def test_local_invariants_match_pairwise_hilbert_symbols():
    rng = random.Random(13)
    for v in LOCAL_PLACES:
        for n in range(9):  # the empty form and rank 1 included
            for _ in range(12):
                es = [_seeded_rational(rng, v) for _ in range(n)]
                hasse = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        hasse *= hilbert_symbol(es[i], es[j], v)
                assert hasse_invariant(es, v) == hasse, (es, v)
                d = Fraction(-1 if n * (n - 1) // 2 % 2 else 1)
                for a in es:
                    d *= a
                # the mod-8 correction of the Hasse invariant, on rationals
                clifford = hasse
                if n % 8 in (3, 4):
                    clifford *= hilbert_symbol(-1, -d, v)
                elif n % 8 in (5, 6):
                    clifford *= hilbert_symbol(-1, -1, v)
                elif n % 8 in (7, 0):
                    clifford *= hilbert_symbol(-1, d, v)
                assert clifford_invariant_local(es, v) == clifford, (es, v)


def test_product_formula_bulk():
    rng = random.Random(0)
    for _ in range(1000):
        a = rng.randint(-(10**4), 10**4) or 3
        b = rng.randint(-(10**4), 10**4) or 5
        assert product_formula_check(a, b)


def test_square_class_rationals():
    assert square_class(Fraction(8)).rep == 2
    assert square_class(Fraction(4)).rep == 1
    assert square_class(Fraction(-12)).rep == -3
    assert square_class(Fraction(9, 2)).rep == 2


def test_square_class_prime_field():
    # oracle: 3^2 = 2 mod 7
    assert 3 * 3 % 7 == 2
    assert square_class(GF(7).from_int(2)).rep == 1
    assert square_class(GF(7).from_int(3)).rep == GF(7).nonresidue


@given(nonzero_small)
@settings(max_examples=60, deadline=None)
def test_square_class_involution(a):
    c = square_class(Fraction(a))
    assert (c * c).is_trivial


def test_square_class_zero_rejected():
    with pytest.raises(ValueError):
        square_class(Fraction(0))


def test_square_class_quadratic_field_unsupported():
    with pytest.raises(UnsupportedBase):
        square_class(QuadElement(1, 1, -5))


# Its least prime, 10^12 + 39, is far beyond what Brent's rho reaches within
# its step budget, and the product is beyond Miller-Rabin.
BEYOND_RHO = (10**12 + 39) * (10**13 + 37)


def test_factor_integer_routes():
    # no factor up to 10^3 and not prime: Brent's rho splits it
    assert factor_integer(1009 * 1013) == {1009: 1, 1013: 1}
    with pytest.raises(FactorBoundExceeded) as e:
        factor_integer(BEYOND_RHO)
    assert e.value.n == BEYOND_RHO
    assert factor_integer(10**13 + 37) == {10**13 + 37: 1}
    assert factor_integer(999983) == {999983: 1}  # below 10^6 with no factor to 10^3
    assert factor_integer(1000003**2) == {1000003: 2}  # the square of a certified prime
    f = factor_integer(360)
    assert f == {2: 3, 3: 2, 5: 1}
    f[2], f[7] = 99, 1  # the memoised factorisation is not handed out
    assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
    assert squarefree_part(-360) == -10


def test_factor_error_names_the_unsplit_piece():
    assert factor_integer(100160063) == {10007: 1, 10009: 1}
    assert factor_integer(100160063) == {10007: 1, 10009: 1}  # from the memo
    # trial division finds 5 and rho finds 10007; the rest is beyond rho
    for small in (5, 10007, 5 * 10007):
        with pytest.raises(FactorBoundExceeded) as e:
            factor_integer(small * BEYOND_RHO)
        assert e.value.n == BEYOND_RHO


def _reference_trial_division(n, bound):
    """The trial division factor_integer ran before it certified cofactors:
    it gives up on every cofactor above bound**2, prime or not."""
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    q = 5
    while q * q <= n and q <= bound:
        for p in (q, q + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        q += 6
    if n > 1:
        if n <= bound * bound:
            out[n] = out.get(n, 0) + 1
        else:
            raise FactorBoundExceeded(n)
    return out


def _primes_above(m, k):
    out = []
    while len(out) < k:
        m += 1
        if is_prime(m):
            out.append(m)
    return out


def test_certified_cofactors_match_the_reference():
    # the reference gives up on every cofactor above bound**2; factor_integer
    # has no bound, and raises only on a piece beyond Brent's rho
    rng = random.Random(19)
    outcomes = Counter()
    for bound in (10, 10**3, 10**6):
        p1, p2, p3 = _primes_above(bound, 3)
        samples = [rng.randint(2**35, 2**40) for _ in range(30)]  # product-formula size
        samples += [rng.randint(1, 1300) for _ in range(30)]  # witt-q entries and discriminants
        samples += [p1 * p2, p2 * p3, 6 * p1 * p3, p1 * p1, 35 * p2 * p2, p1**3, (p1 * p2) ** 2]
        if bound == 10**3:
            samples.append(BEYOND_RHO)
        for n in samples:
            try:
                want = _reference_trial_division(n, bound)
            except FactorBoundExceeded as e:
                try:
                    got = factor_integer(n)
                except FactorBoundExceeded as mine:
                    assert mine.n == e.n
                    outcomes["still raises"] += 1
                else:  # certified, or split by Brent's rho; ascending, as trial division gives
                    assert all(is_prime(p) for p in got), (n, bound, got)
                    assert math.prod(p**k for p, k in got.items()) == n
                    assert list(got) == sorted(got)
                    outcomes["now factored"] += 1
            else:
                assert list(factor_integer(n).items()) == list(want.items())
                outcomes["same"] += 1
    assert set(outcomes) == {"same", "still raises", "now factored"}, outcomes


def _sympy_samples(rng, count):
    """count integers of at most 60 bits, products of primes in [2, 10^7];
    about two in three have a prime in (10^3, 10^6] that trial division
    to 10^3 leaves to Brent's rho."""
    from sympy import nextprime

    out = []
    while len(out) < count:
        n = math.prod(nextprime(rng.randint(1, 100)) for _ in range(rng.randint(0, 4)))
        if rng.random() < 2 / 3:
            n *= nextprime(rng.randint(10**3, 10**6 - 100))
        while True:
            p = nextprime(rng.randint(1, 10**7 - 100))
            if (n * p).bit_length() > 60:
                break
            n *= p
        out.append(n)
    return out


def test_factor_integer_matches_sympy():
    from sympy import factorint

    rng = random.Random(29)
    medium = 0
    for n in _sympy_samples(rng, 300):
        got = factor_integer(n)
        assert list(got.items()) == sorted(factorint(n).items()), n
        medium += any(10**3 < p <= 10**6 for p in got)
    assert medium >= 180, medium


def test_product_formula_on_primes_above_bound_squared():
    # both 40-bit primes above 10**12, which Miller-Rabin certifies
    assert product_formula_check(1016501061517, 1099315886569)


def test_product_formula_on_two_primes_just_above_the_bound():
    # a 40-bit pair of arith's product cases (seed 706): one of the two has
    # two primes just above 10^6, which Brent's rho splits
    a, b = -1081519358461, -1036333953549
    assert product_formula_check(a, b)
    for n in (a, b):
        f = factor_integer(n)
        assert math.prod(p**k for p, k in f.items()) == -n and all(map(is_prime, f))


def test_rho_splits_what_trial_division_leaves():
    assert factor_integer((10**9 + 7) * (10**10 + 19)) == {10**9 + 7: 1, 10**10 + 19: 1}
    assert factor_integer(1000003**2 * 1000033 * 35) == {5: 1, 7: 1, 1000003: 2, 1000033: 1}
    # four 7-digit primes: 27 digits, beyond Miller-Rabin until rho splits it
    ps = [3162283, 3162317, 3162319, 3162331]
    assert factor_integer(math.prod(ps)) == dict.fromkeys(ps, 1)


def _entry_tuples():
    """Seeded entry tuples: four entries whose numerators share primes just
    above 10^6, over small denominators; and eight entries of witt-q size."""
    rng = random.Random(23)
    big = _primes_above(10**6, 5)
    small = [x for x in range(-9, 10) if x]

    def shared_entry(shared):
        num = rng.choice(small) * rng.randint(1, 40) * math.prod(rng.sample(shared, rng.randint(1, 2)))
        return Fraction(num, rng.randint(1, 12))

    out = []
    for _ in range(6):
        shared = rng.sample(big, 3)
        out.append(tuple(shared_entry(shared) for _ in range(4)))
    for _ in range(6):
        out.append(tuple(Fraction(rng.choice(small) * rng.choice(small) * rng.choice(small)) for _ in range(8)))
    return out


def _rational_class(x):
    """(s, P) of the nonzero rational x, its numerator and denominator
    factored one at a time."""
    primes = {p for p, e in factor_integer(x.numerator).items() if e % 2}
    if x.denominator != 1:
        primes ^= {p for p, e in factor_integer(x.denominator).items() if e % 2}
    return (-1 if x < 0 else 1) * math.prod(primes), frozenset(primes)


def test_coprime_base_reads_every_entry():
    for entries in _entry_tuples():
        ints = [m for a in entries for m in (abs(a.numerator), a.denominator)]
        base = coprime_base(ints)
        assert all(math.gcd(b, c) == 1 for b, c in combinations(base, 2)), base
        for m in ints:  # m = prod b^(v_b(m)) over the base
            for b in base:
                while m % b == 0:
                    m //= b
            assert m == 1
        classes = rational_classes(entries)
        for a, c in zip(entries, classes):
            try:
                want = _rational_class(a)
            except FactorBoundExceeded:
                continue
            assert c == want, (entries, a)


def test_is_prime():
    def trial_division(m):
        return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))

    for m in range(10**5 + 1):
        assert is_prime(m) == trial_division(m), m
    assert not is_prime(3825123056546413051)  # strong pseudoprime to the bases 2..23
    assert is_prime(10**12 + 39)
    assert not is_prime((10**12 + 39) * (10**12 + 61))
    # strong pseudoprimes to the bases 2..37, and to 2..41 (decided by sympy)
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1)


def test_sqrt_mod_p_canonical():
    r = sqrt_mod_p(2, 7)
    assert r in (3, 4) and r == 3  # canonical root is min(r, p-r)
    assert sqrt_mod_p(3, 7) is None
    for p in (5, 13, 17, 41):
        for a in range(1, p):
            r = sqrt_mod_p(a, p)
            if r is not None:
                assert (r * r - a) % p == 0


def test_quadratic_field_sqrt():
    k = QuadraticNumberField(-5)
    w = QuadElement(Fraction(2), Fraction(3), -5)
    sq = w * w
    r = k.sqrt(sq)
    assert r is not None and r * r == sq
    assert k.sqrt(QuadElement(1, 1, -5)) is None
    assert k.sqrt(k.from_int(4)) == k.from_int(2)
    assert k.sqrt(QuadElement(-5, 0, -5)) == QuadElement(0, 1, -5)


def test_quadratic_field_arithmetic():
    k = QuadraticNumberField(2)
    x = QuadElement(1, 1, 2)
    assert x * x == QuadElement(3, 2, 2)
    assert (x / x) == k.one()
    assert x.norm() == -1


def test_quad_element_product_matches_schoolbook():
    # the rational-factor shortcut of __mul__ against (a + b√d)(c + e√d)
    rng = random.Random(17)
    d = -5

    def rational():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    def element(irrational):
        b = rational() if irrational else 0
        while irrational and not b:
            b = rational()
        return QuadElement(rational(), b, d)

    for x_irr, y_irr in ((False, False), (False, True), (True, False), (True, True)):
        for _ in range(50):
            x, y = element(x_irr), element(y_irr)
            got = x * y
            assert got.a == x.a * y.a + d * x.b * y.b
            assert got.b == x.a * y.b + x.b * y.a
            assert type(got.a) is Fraction and type(got.b) is Fraction
            assert got == y * x
    for c in (3, Fraction(-2, 7)):
        got = QuadElement(Fraction(1, 2), 3, d) * c
        assert (got.a, got.b) == (Fraction(1, 2) * c, 3 * c)
        assert type(got.a) is Fraction and type(got.b) is Fraction
        assert c * QuadElement(Fraction(1, 2), 3, d) == got


def test_quad_element_hash_agrees_with_equality():
    two = QuadElement(2, 0, -5)
    half = QuadElement(Fraction(1, 2), 0, -5)
    w = QuadElement(0, 1, -5)
    assert two == 2 and half == Fraction(1, 2)
    assert 2 in {two} and two in {2}
    assert Fraction(1, 2) in {half, w} and w in {half, w}
    table = {two: "two", Fraction(1, 2): "half", w: "w"}
    assert table[2] == "two" and table[half] == "half" and table[QuadElement(0, 1, -5)] == "w"
    assert len({two, 2, Fraction(2), QuadElement(Fraction(2), Fraction(0), -5)}) == 1


def test_rational_function_field():
    ff = RationalFunctionField(QQ)
    t = ff.t()
    a = (t * t - 1) / (t + 1)
    assert a == t - 1
    c, g = square_class(t**3).rep
    assert c == 1 and g == Poly.from_int_coeffs([0, 1], QQ)
    c2, g2 = square_class(ff.from_int(-8) * t * t).rep
    assert c2 == -2 and g2.degree == 0


def test_square_class_function_field_over_fp():
    ff = RationalFunctionField(GF(5))
    t = ff.t()
    c, g = square_class(t * t * ff.from_int(4)).rep
    assert c == 1 and g.degree == 0
    c3, g3 = square_class(t * ff.from_int(2)).rep
    assert g3 == Poly.from_int_coeffs([0, 1], GF(5))


def _rebuilt(const, factors, field):
    out = Poly.const(const, field)
    for f, e in factors:
        assert f.leading() == field.one(), f  # every factor is monic
        for _ in range(e):
            out = out * f
    return out


def test_square_class_group_laws_and_factor_poly():
    # Seeded values over every field with canonical square classes: classes
    # multiply like their scalars, a class is the class of its value and has
    # order 2, a square is exactly a scalar of trivial class, and factor_poly
    # gives back its input as const * prod f^e.
    rng = random.Random(23)
    fields = [QQ, *map(GF, (3, 5, 7, 11, 13)), RationalFunctionField(QQ), RationalFunctionField(GF(5))]
    for field in fields:
        function_field = isinstance(field, RationalFunctionField)
        coeffs = field.base if function_field else field
        for _ in range(25):
            a, b = random_nonzero(field, rng), random_nonzero(field, rng)
            if function_field:
                a, b = a / random_nonzero(field, rng), b * b / random_nonzero(field, rng)
            ca, cb = square_class(a), square_class(b)
            assert ca * cb == square_class(a * b), (field, a, b)
            assert square_class(ca.value()) == ca, (field, a)
            assert (ca * ca).is_trivial and (ca * cb * cb) == ca
            for x in (a, b, a * a, a * a * b):
                assert field.is_square(x) == square_class(x).is_trivial, (field, x)
            polys = [a.num, a.den, (a * b).num] if function_field else [
                Poly([random_nonzero(coeffs, rng) for _ in range(rng.randint(1, 6))], coeffs)
            ]
            for p in polys:
                assert _rebuilt(*factor_poly(p), coeffs) == p, (field, p)


def test_poly_sqrt():
    p = Poly.from_int_coeffs([4, 12, 9], QQ)
    r = poly_sqrt(p)
    assert r is not None and r * r == p
    assert poly_sqrt(Poly.from_int_coeffs([1, 1, 1], QQ)) is None
    f7 = GF(7)
    q = Poly.from_int_coeffs([3, 1, 5], f7)
    sq = q * q
    r2 = poly_sqrt(sq)
    assert r2 is not None and r2 * r2 == sq


def test_place_parsing_and_order():
    places = [Place.parse(s) for s in ("5", "inf", "2")]
    assert sorted(places, key=lambda v: v.sort_key()) == [
        Place.finite(2),
        Place.finite(5),
        INFINITY,
    ]
    with pytest.raises(ValueError):
        Place.parse("6")


def test_place_strings_are_shared_and_round_trip():
    from cliffinv.brauer import BrauerClass2

    assert str(Place.finite(11)) is str(Place.finite(11))
    assert str(Place.finite(1000003)) is str(Place.finite(1000003))
    c = BrauerClass2.from_strs(["11", "1000003", "2", "inf"])
    names = c.to_json()["ramified"]
    assert names == ["2", "11", "1000003", "inf"]
    assert BrauerClass2.from_strs(names) == c
    assert all(Place.parse(str(v)) == v for v in c.places)


def test_scalar_serialisation_round_trips():
    assert QQ.elt_from_str(QQ.elt_to_str(Fraction(-3, 4))) == Fraction(-3, 4)
    f7 = GF(7)
    assert f7.elt_from_str(f7.elt_to_str(f7.from_int(5))) == f7.from_int(5)
    k = QuadraticNumberField(-5)
    x = QuadElement(Fraction(1, 2), Fraction(-3), -5)
    assert k.elt_from_str(k.elt_to_str(x)) == x
    ff = RationalFunctionField(QQ)
    y = (ff.t() ** 2 - 1) / (ff.t() + 2)
    assert ff.elt_from_str(ff.elt_to_str(y)) == y


def test_shared_constants_and_residue_strings():
    assert QQ.one() is QQ.one()
    assert QQ.zero() == 0 and QQ.one() == 1
    f7 = GF(7)
    assert f7.elt_to_str(f7.from_int(3)) is f7.elt_to_str(f7.from_int(10))
    assert QQ.elt_to_str(QQ.zero()) is QQ.elt_to_str(Fraction(0))
    assert QQ.elt_to_str(Fraction(-6, 8)) is QQ.elt_to_str(Fraction(-3, 4))
    for x in (Fraction(0), Fraction(1), Fraction(-3, 4), Fraction(10**20, 7)):
        assert QQ.elt_from_str(QQ.elt_to_str(x)) == x
