import random
from fractions import Fraction
from itertools import product

import pytest

from cliffinv.forms import DiagonalForm
from cliffinv.polys import Poly, QuotientField
from cliffinv.residues import (
    INFINITE_PLACE,
    _is_square_in_quotient,
    certify_extended_from_base,
    is_witt_trivial_entries,
    milnor_reciprocity_check,
    reciprocity_total,
    residue_places,
    second_residue,
    specialize,
)
from cliffinv.scalars import GF, QQ, RationalFunctionField, poly_is_irreducible

Qt = RationalFunctionField(QQ)
T = Qt.t()
ONE = Qt.one()


def poly(*coeffs):
    return Poly.from_int_coeffs(coeffs, QQ)


def test_second_residue_at_t():
    pi = poly(0, 1)
    r = second_residue(DiagonalForm((T,), Qt), pi)
    assert r.rank == 1 and r.entries[0].coeffs == (Fraction(1),)
    # units have no residue
    assert second_residue(DiagonalForm((T + 1,), Qt), pi).rank == 0
    # <a t> -> <a>
    r3 = second_residue(DiagonalForm((Qt.from_int(7) * T,), Qt), pi)
    assert r3.entries[0].coeffs == (Fraction(7),)
    # the residue field supplies the off-diagonal zeros of a Gram matrix
    g = second_residue(DiagonalForm((T, Qt.from_int(5) * T), Qt), pi).to_quadratic()
    assert [[x.coeffs for x in row] for row in g.gram] == [[(Fraction(1),), ()], [(), (Fraction(5),)]]


def test_second_residue_rejects_reducible():
    with pytest.raises(ValueError):
        second_residue(DiagonalForm((T,), Qt), poly(0, 0, 1))


def test_second_residue_at_infinity():
    r = second_residue(DiagonalForm((T,), Qt), INFINITE_PLACE)
    assert r.entries == (Fraction(1),)
    assert second_residue(DiagonalForm((T * T,), Qt), INFINITE_PLACE).rank == 0


def test_residue_places():
    q = DiagonalForm((T * (T - ONE), Qt.from_int(5)), Qt)
    pis = residue_places(q)
    assert [p.coeffs for p in pis] == [poly(-1, 1).coeffs, poly(0, 1).coeffs]


def test_reciprocity_simple_cases():
    assert milnor_reciprocity_check(DiagonalForm((Qt.from_int(3), Qt.from_int(-5)), Qt))
    assert milnor_reciprocity_check(DiagonalForm((T, -T), Qt))
    assert milnor_reciprocity_check(DiagonalForm((T,), Qt))
    assert milnor_reciprocity_check(DiagonalForm((T * T * T,), Qt))
    assert milnor_reciprocity_check(DiagonalForm((T * (T - ONE),), Qt))


def test_reciprocity_needs_the_derivative_twist():
    # residue at t^2 - 2 transfers to a hyperbolic plane only with the
    # derivative-twisted convention: the total must vanish
    q = DiagonalForm((T * T - Qt.from_int(2),), Qt)
    total = reciprocity_total(q)
    assert len(total) == 2
    assert is_witt_trivial_entries(total, QQ)
    assert milnor_reciprocity_check(q)
    assert milnor_reciprocity_check(DiagonalForm((T * T + Qt.from_int(1),), Qt))


def test_reciprocity_random_forms():
    rng = random.Random(43)
    for _ in range(20):
        entries = []
        for _ in range(rng.randint(1, 4)):
            while True:
                coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                if any(coeffs):
                    break
            entries.append(Qt.from_poly(Poly.from_int_coeffs(coeffs, QQ)))
        assert milnor_reciprocity_check(DiagonalForm(tuple(entries), Qt))


def test_reciprocity_over_prime_function_fields():
    rng = random.Random(45)
    for p in (3, 5, 7):
        ff = RationalFunctionField(GF(p))
        t = ff.t()
        assert milnor_reciprocity_check(DiagonalForm((t, -t), ff))
        for _ in range(6):
            entries = []
            for _ in range(rng.randint(1, 3)):
                while True:
                    coeffs = [rng.randint(0, p - 1) for _ in range(rng.randint(1, 4))]
                    if any(coeffs):
                        break
                entries.append(ff.from_poly(Poly.from_int_coeffs(coeffs, GF(p))))
            assert milnor_reciprocity_check(DiagonalForm(tuple(entries), ff))


def test_specialize():
    q = DiagonalForm((T * T + Qt.from_int(1), Qt.from_int(3)), Qt)
    s = specialize(q, Fraction(2))
    assert s.entries == (Fraction(5), Fraction(3))
    with pytest.raises(ValueError):
        specialize(DiagonalForm((T,), Qt), Fraction(0))


def test_extension_certificates():
    assert certify_extended_from_base(DiagonalForm((Qt.from_int(2), Qt.from_int(-3), Qt.from_int(5)), Qt))
    assert certify_extended_from_base(DiagonalForm((T, -T), Qt))
    assert not certify_extended_from_base(DiagonalForm((T, T), Qt))
    q = DiagonalForm(((T * T + ONE), -(T * T + ONE)), Qt)
    assert certify_extended_from_base(q)
    # -1 is a square in Q(i), so <2(t^2+1), 2(t^2+1)> has vanishing residue
    q2 = DiagonalForm((Qt.from_int(2) * (T * T + ONE), Qt.from_int(2) * (T * T + ONE)), Qt)
    assert certify_extended_from_base(q2)
    # over Q(sqrt 2): 2 is a square, so <t^2-2, -2(t^2-2)> works
    q3 = DiagonalForm(((T * T - Qt.from_int(2)), Qt.from_int(-2) * (T * T - Qt.from_int(2))), Qt)
    assert certify_extended_from_base(q3)
    # but <t^2-2, 2(t^2-2)> has -1/2 not a square in Q(sqrt 2)
    q4 = DiagonalForm(((T * T - Qt.from_int(2)), Qt.from_int(2) * (T * T - Qt.from_int(2))), Qt)
    assert not certify_extended_from_base(q4)


@pytest.mark.parametrize(
    "p, irreducible_extended, linear_extended",
    [(5, False, False), (7, True, False), (11, True, True)],
)
def test_extension_certificates_over_prime_function_fields(p, irreducible_extended, linear_extended):
    # <u, 2u> has vanishing residue at u exactly when -2 is a square in the
    # residue field.  For u = t^2 + 1 over F_7 and F_11 that field is F_p^2,
    # where every element of F_p is a square (Euler's criterion in the
    # quotient decides it); over F_5, t^2 + 1 splits and -2 = 3 is not a
    # square, so <4, 3> is anisotropic.  For u = t the field is F_p, and -2
    # is a square mod 11 only.
    ff = RationalFunctionField(GF(p))
    t, two = ff.t(), ff.from_int(2)
    for u, extended in ((t * t + ff.one(), irreducible_extended), (t, linear_extended)):
        q = DiagonalForm((u, two * u), ff)
        assert certify_extended_from_base(q) is extended
        assert milnor_reciprocity_check(q)


def test_witt_trivial_entries():
    assert is_witt_trivial_entries([Fraction(1), Fraction(-1)], QQ)
    assert is_witt_trivial_entries([Fraction(2), Fraction(-2), Fraction(3), Fraction(-3)], QQ)
    assert not is_witt_trivial_entries([Fraction(1), Fraction(1)], QQ)
    assert not is_witt_trivial_entries([Fraction(1), Fraction(-2)], QQ)
    f7 = GF(7)
    assert is_witt_trivial_entries([f7.from_int(1), f7.from_int(-1)], f7)
    assert not is_witt_trivial_entries([f7.from_int(1), f7.from_int(-3)], f7)


def test_quotient_field_traces():
    pi = poly(1, 0, 1)  # t^2 + 1
    quot = QuotientField(QQ, pi)
    assert quot.trace(quot.one()) == 2
    assert quot.trace(Poly.from_int_coeffs([0, 1], QQ)) == 0
    assert quot.mul(Poly.from_int_coeffs([0, 1], QQ), Poly.from_int_coeffs([0, 1], QQ)).coeffs == (Fraction(-1),)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_residue_field_squares_exhaustive(p, k):
    # pi is the first monic irreducible of degree k, its lower coefficients
    # in lexicographic order; every residue is tested against the squares
    f = GF(p)
    monic = (Poly.from_int_coeffs(list(cs) + [1], f) for cs in product(range(p), repeat=k))
    pi = next(m for m in monic if poly_is_irreducible(m))
    quot = QuotientField(f, pi)
    residues = [Poly.from_int_coeffs(cs, f) for cs in product(range(p), repeat=k)]
    squares = {quot.mul(x, x).coeffs for x in residues}
    assert len(squares) == (p**k + 1) // 2
    for w in residues:
        assert _is_square_in_quotient(quot, w) == (w.coeffs in squares)
