import math
import random
from fractions import Fraction

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
    factor_integer,
    hilbert_symbol,
    is_prime,
    legendre,
    poly_sqrt,
    product_formula_check,
    rational_sqrt,
    sqrt_mod_p,
    square_class,
    squarefree_part,
    support_places,
)

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
    assert square_class(GF(7).from_int(3)).rep == GF(7).nonresidue().v


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


def test_factor_bound():
    with pytest.raises(FactorBoundExceeded):
        factor_integer(10**13 + 37, bound=10**3)
    f = factor_integer(360)
    assert f == {2: 3, 3: 2, 5: 1}
    f[2], f[7] = 99, 1  # the memoised factorisation is not handed out
    assert factor_integer(360) == {2: 3, 3: 2, 5: 1}
    assert squarefree_part(-360) == -10


def test_factor_bound_applies_after_a_memoised_factorisation(monkeypatch):
    assert factor_integer(1000003) == {1000003: 1}
    monkeypatch.setenv("QF_FACTOR_BOUND", "10")
    with pytest.raises(FactorBoundExceeded):
        factor_integer(1000003)
    monkeypatch.delenv("QF_FACTOR_BOUND")
    assert factor_integer(1000003) == {1000003: 1}


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
