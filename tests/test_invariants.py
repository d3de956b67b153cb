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
    is_isotropic,
    isometric_diagonal,
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
from cliffinv.scalars import GF, QQ, is_prime, square_class

from random_forms import random_nonzero, random_regular_gram

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


def test_e1_of_the_zero_element_names_no_field():
    from cliffinv.dedekind import QuadOrder, total_witt_element

    zero = TotalWittElement({})
    assert e0(zero) == 0 and e2(zero).is_trivial()
    for w in (zero, total_witt_element(QuadOrder(-5), [])):
        with pytest.raises(ValueError, match="no component to name a field"):
            e1(w)


def test_e2_examples():
    assert e2_of_form(hyperbolic(2)).is_trivial()
    assert e2_of_form(diag(1, 1, 1, 1)).to_json()["ramified"] == ["2", "inf"]
    assert e2_of_form(diag(1, 1, -3, -3)).to_json()["ramified"] == ["2", "3"]
    # the product of the entries, 9 * 1000003^2, squares a prime above 10^6
    assert e2_of_form(diag(1, -1000003, -3, 3000009)).to_json()["ramified"] == ["2", "1000003"]


def test_e2_with_a_squared_prime_above_the_factor_bound():
    # class_of_quaternion factors a split-table parameter divisible by
    # 1000003^2; _e2_checked compares with the symbol dictionary
    q = diag(-1000003, 3000009, 5, -15)
    c = e2_of_form(q)
    assert c == BrauerClass2.from_strs(["2", "3", "5", "1000003"])
    assert c == clifford_invariant_class(q.entries)


def test_two_primes_above_the_factor_bound_still_raise():
    # p * q is beyond Miller-Rabin, and p = 10^12 + 39 is far beyond what
    # Brent's rho reaches within its step budget; no other entry shows p
    p, q = 10**12 + 39, 10**13 + 37
    with pytest.raises(FactorBoundExceeded):
        quaternion_from_class(BrauerClass2.from_strs([str(p), str(q)]))
    with pytest.raises(FactorBoundExceeded):
        e2_of_form(diag(1, -1, -p * q, p * q))


def test_two_primes_above_the_factor_bound_evaluate():
    # 1000036000099 = 1000003 * 1000033: the other entries show both primes
    q = diag(1, -1000003, -1000033, 1000036000099)
    c = BrauerClass2.from_strs(["1000003", "1000033"])
    assert e2_of_form(q) == clifford_invariant_class(q.entries) == c
    # the class check factors a = 1000036000099 alone: Brent's rho splits it
    a, b = quaternion_from_class(c)
    assert a == 1000036000099 and class_of_quaternion(a, b) == c


# Norm forms of arith at seed 901 whose entry ab has two primes above 10^6.
NORM_FORM_PAIRS = [
    (-3628322, -3826138),
    (1343899, 2246977),
    (-3434069, 2356883),
    (-3305963, 1139849),
    (3405494, 1569983),
    (-1964987, 1667213),
    (2493229, -3441129),
    (-3712474, 3503811),
]


@pytest.mark.parametrize("a, b", NORM_FORM_PAIRS)
def test_norm_forms_with_two_large_primes_in_ab(a, b):
    q = diag(1, -a, -b, a * b)
    assert e2_of_form(q) == class_of_quaternion(a, b) == clifford_invariant_class(q.entries)


def test_rank7_gram_forms_witt_reduce():
    # one of these 19 has the leading minor 231998191715503 = 13156993 * 17633071
    rng = random.Random(5)
    for _ in range(19):
        g = random_regular_gram(rng, F, 7)
        entries = diagonalize(g)[0].entries
        w = witt_decompose(g)
        assert w.rank == 7 and not is_isotropic(DiagonalForm(w.kernel, F))
        assert isometric_diagonal(entries, tuple(w.kernel) + frac(1, -1) * w.index, F)


def _seeded_class(rng, lo, hi, k):
    primes = set()
    while len(primes) < k:
        m = rng.randrange(lo, hi)
        if is_prime(m):
            primes.add(m)
    return BrauerClass2.from_strs([str(p) for p in primes])


@pytest.mark.parametrize("lo, hi, k", [(10**6, 10**7, 4), (10**9, 10**10, 2)])
def test_preimages_of_classes_with_large_primes(lo, hi, k):
    rng = random.Random(k)
    for _ in range(3):
        c = _seeded_class(rng, lo, hi, k)
        q = construct_preimage(c)
        assert e2_of_form(q) == clifford_invariant_class(q.entries) == c


def test_e2_requires_i2():
    with pytest.raises(ValueError):
        e2_of_form(diag(1, 2, 3, 5))  # nontrivial discriminant
    with pytest.raises(ValueError):
        e2_of_form(diag(1, 1, 1))  # odd rank


def test_e2_trivial_over_prime_fields():
    f5 = GF(5)
    q = DiagonalForm((f5.from_int(1), f5.from_int(4)), f5)
    assert e2(TotalWittElement.from_form(q)).is_trivial()


def test_e2_over_prime_fields_on_seeded_i2_forms():
    # F_p's witt_reduce leaves no kernel on an I2 form, so e2 is trivial with
    # no branch on the field; isometry agrees with equality of Witt classes
    rng = random.Random(32)
    outcomes = set()
    for p in (3, 5, 7, 11, 13):
        f = GF(p)
        for rank in (2, 4, 6, 8):
            for _ in range(6):
                head = [random_nonzero(f, rng) for _ in range(rank - 1)]
                last = f.from_int(-1 if rank * (rank - 1) // 2 % 2 else 1) * random_nonzero(f, rng) ** 2
                for a in head:
                    last = last / a
                q = DiagonalForm((*head, last), f)
                assert witt_decompose(q).kernel == ()
                assert e2_of_form(q).is_trivial() and e2(TotalWittElement.from_form(q)).is_trivial()
                other = DiagonalForm(tuple(random_nonzero(f, rng) for _ in range(rank)), f)
                same = isometric_diagonal(q.entries, other.entries, f)
                assert same == (witt_decompose(q) == witt_decompose(other))
                outcomes.add(same)
    assert outcomes == {True, False}


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
