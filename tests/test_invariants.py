import random
from fractions import Fraction

import pytest

from cliffinv import invariants
from cliffinv.brauer import BrauerClass2, class_of_algebra, class_of_quaternion, quaternion_from_class
from cliffinv.errors import CliffinvError, FactorBoundExceeded
from cliffinv.forms import (
    DiagonalForm,
    diagonalize,
    hyperbolic,
    orthogonal_sum,
    twist,
    witt_decompose,
)
from cliffinv.invariants import (
    TotalWittElement,
    clifford_invariant_class,
    construct_preimage,
    e0,
    e1,
    e2,
    e2_additivity_check,
    e2_of_form,
)
from cliffinv.scalars import GF, QQ, square_class

from random_forms import random_nonzero

F = QQ


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def diag(*xs):
    return DiagonalForm(frac(*xs), F)


def rand_i2_rank4(rng):
    vals = [x for x in range(-9, 10) if x]
    a, b, c = (Fraction(rng.choice(vals)) for _ in range(3))
    return DiagonalForm((a, b, c, a * b * c), F)


def test_e0():
    assert e0(TotalWittElement.from_form(diag(1, -1))) == 0
    assert e0(TotalWittElement.from_form(diag(1, 1, 1))) == 1
    assert e0(TotalWittElement.from_form(hyperbolic(2))) == 0
    two = TotalWittElement({"a": witt_decompose(diag(1, 2, 3)), "b": witt_decompose(diag(1, 5))})
    assert e0(two) == 1


def test_e1_examples():
    a, b = Fraction(7), Fraction(3)
    assert e1(TotalWittElement.from_form(DiagonalForm((F.one(), -a), F))) == square_class(a)
    s = orthogonal_sum(DiagonalForm((F.one(), -a), F), DiagonalForm((F.one(), -b), F))
    assert e1(TotalWittElement.from_form(s)) == square_class(a * b)
    assert e1(TotalWittElement.from_form(hyperbolic(3))).is_trivial
    with pytest.raises(ValueError):
        e1(TotalWittElement.from_form(diag(1, 2, 3)))


def test_e1_additive_random():
    rng = random.Random(33)
    for _ in range(100):
        q1 = DiagonalForm(tuple(random_nonzero(F, rng) for _ in range(2 * rng.randint(1, 2))), F)
        q2 = DiagonalForm(tuple(random_nonzero(F, rng) for _ in range(2 * rng.randint(1, 2))), F)
        w1 = TotalWittElement.from_form(q1)
        w2 = TotalWittElement.from_form(q2)
        ws = TotalWittElement.from_form(orthogonal_sum(q1, q2))
        assert e1(ws) == e1(w1) * e1(w2)


def test_e2_examples():
    assert e2_of_form(hyperbolic(2)).is_trivial()
    assert e2_of_form(diag(1, 1, 1, 1)).to_json()["ramified"] == ["2", "inf"]
    assert e2_of_form(diag(1, 1, -3, -3)).to_json()["ramified"] == ["2", "3"]
    # the product of the entries, 9 * 1000003^2, is beyond the factor bound
    assert e2_of_form(diag(1, -1000003, -3, 3000009)).to_json()["ramified"] == ["2", "1000003"]


def test_e2_with_a_squared_prime_above_the_factor_bound():
    # class_of_quaternion factors a split-table parameter divisible by
    # 1000003^2; _e2_checked compares with the symbol dictionary
    q = diag(-1000003, 3000009, 5, -15)
    c = e2_of_form(q)
    assert c == BrauerClass2.from_strs(["2", "3", "5", "1000003"])
    assert c == clifford_invariant_class(q.entries)


def test_two_primes_above_the_factor_bound_still_raise():
    # 1000003 * 1000033 = 1000036000099 has no factor up to 10^6 and is
    # neither prime nor a square: that needs a factor-refining method
    with pytest.raises(FactorBoundExceeded):
        quaternion_from_class(BrauerClass2.from_strs(["1000003", "1000033"]))
    with pytest.raises(FactorBoundExceeded):
        e2_of_form(diag(1, -1000003, -1000033, 1000036000099))


def test_e2_requires_i2():
    with pytest.raises(ValueError):
        e2_of_form(diag(1, 2, 3, 5))  # nontrivial discriminant
    with pytest.raises(ValueError):
        e2_of_form(diag(1, 1, 1))  # odd rank


def test_e2_trivial_over_prime_fields():
    f5 = GF(5)
    q = DiagonalForm((f5.from_int(1), f5.from_int(4)), f5)
    assert e2(TotalWittElement.from_form(q)).is_trivial()


def test_e2_definite_kernels_of_rank_8_and_12():
    # anisotropic I2 kernels beyond rank 4 split off <a1, a2, a3, a1a2a3>
    cases = (
        ((1,) * 8, []),
        ((1,) * 12, ["2", "inf"]),
        ((1, 1, 1, 1, 1, 1, 3, 3), ["2", "3"]),
    )
    for entries, ramified in cases:
        q = diag(*entries)
        want = BrauerClass2.from_strs(ramified)
        assert e2_of_form(q) == want
        assert e2(TotalWittElement.from_form(q)) == want
    assert e2_additivity_check(diag(1, 1, 1, 1), diag(1, 1, 3, 3))


def test_e2_rank6_by_witt_reduction():
    # Albert form of (-1,-1) and (-1,3): expected class {3, inf}
    q = diag(-1, -1, -1, 1, -3, -3)
    expected = class_of_quaternion(-1, -1) + class_of_quaternion(-1, 3)
    assert e2_of_form(q) == expected


def test_structural_equals_symbol_dictionary():
    rng = random.Random(35)
    for _ in range(40):
        q = rand_i2_rank4(rng)
        assert e2_of_form(q) == clifford_invariant_class(q.entries)


def test_e2_twist_invariance():
    rng = random.Random(37)
    for _ in range(15):
        q = rand_i2_rank4(rng)
        n = random_nonzero(F, rng)
        assert e2_of_form(twist(q, n)) == e2_of_form(q)


def test_e2_additivity_spec_cases():
    h = diagonalize(hyperbolic(2))[0]
    assert e2_additivity_check(diag(1, 1, 1, 1), h)
    assert e2_additivity_check(diag(1, 1, 1, 1), diag(1, 1, -3, -3))
    s = e2_of_form(diag(1, 1, 1, 1)) + e2_of_form(diag(1, 1, -3, -3))
    assert s == BrauerClass2.from_strs(["3", "inf"])
    q = diag(1, 1, 1, 1)
    assert e2_additivity_check(q, q)
    assert (e2_of_form(q) + e2_of_form(q)).is_trivial()


def test_e2_additivity_random():
    # the acceptance suite runs 50 of these; a handful here keeps the
    # module tests quick
    rng = random.Random(39)
    for _ in range(8):
        assert e2_additivity_check(rand_i2_rank4(rng), rand_i2_rank4(rng))


def test_e2_of_form_witt_reduces_rank4(monkeypatch):
    # a hyperbolic rank-4 form is H + H: its class is trivial without C0
    calls = []

    def counting(alg):
        calls.append(alg)
        return class_of_algebra(alg)

    monkeypatch.setattr(invariants, "class_of_algebra", counting)
    assert e2_of_form(diag(1, -1, 2, -2)).is_trivial()
    assert e2_of_form(diag(3, -3, 5, -5)).is_trivial()
    assert calls == []
    assert e2_of_form(diag(1, 1, 1, 1)) == BrauerClass2.from_strs(["2", "inf"])
    assert len(calls) == 2


def test_dictionary_checks_the_callers_entries(monkeypatch):
    real = invariants.clifford_invariant_class
    seen = []

    def skewed(entries):
        seen.append(tuple(entries))
        return real(entries) + BrauerClass2.from_strs(["3", "5"])

    monkeypatch.setattr(invariants, "clifford_invariant_class", skewed)
    h1, h2 = diag(1, -1, 2, -2), diag(3, -3, 5, -5)
    for q in (h1, diag(1, 1, 1, 1, 1, -1)):
        with pytest.raises(CliffinvError):
            e2_of_form(q)
        assert seen.pop() == q.entries
    # right on the summands, wrong on their sum
    monkeypatch.setattr(
        invariants, "clifford_invariant_class", lambda es: skewed(es) if len(es) == 8 else real(es)
    )
    with pytest.raises(CliffinvError):
        e2_additivity_check(h1, h2)
    assert seen == [h1.entries + h2.entries]


def test_e2_homomorphism_via_components():
    # two-component total elements add componentwise into the class group
    rng = random.Random(41)
    for _ in range(10):
        q1, q2 = rand_i2_rank4(rng), rand_i2_rank4(rng)
        w = TotalWittElement({"a": witt_decompose(q1), "b": witt_decompose(q2)})
        assert e2(w) == e2_of_form(q1) + e2_of_form(q2)


def test_construct_preimage():
    q0 = construct_preimage(BrauerClass2.trivial())
    assert e2_of_form(q0).is_trivial()
    assert q0.entries == frac(1, -1, -1, 1)
    for names in (["2", "inf"], ["2", "3"], ["3", "5"], ["2", "5", "7", "inf"]):
        c = BrauerClass2.from_strs(names)
        q = construct_preimage(c)
        assert e2_of_form(q) == c
        assert q.rank == 4


def test_preimage_of_minus_one_minus_one():
    c = BrauerClass2.from_strs(["2", "inf"])
    q = construct_preimage(c)
    assert q.entries == frac(1, 1, 1, 1)
