import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffinv.brauer import (
    BrauerClass2,
    class_of_algebra,
    class_of_quaternion,
    index,
    quaternion_from_class,
)
from cliffinv.algebras import StructureAlgebra, matrix_algebra, quaternion
from cliffinv.clifford import even_clifford, split_components
from cliffinv.errors import SearchExhausted
from cliffinv.forms import DiagonalForm
from cliffinv.invariants import construct_preimage
from cliffinv.scalars import QQ, Place, is_prime, product_formula_check

nonzero = st.integers(min_value=-60, max_value=60).filter(lambda x: x != 0)


def frac(*xs):
    return tuple(Fraction(x) for x in xs)


def test_even_cardinality_enforced():
    with pytest.raises(ValueError):
        BrauerClass2({Place.finite(3)})


def test_class_examples():
    assert class_of_quaternion(1, 7).is_trivial()
    assert class_of_quaternion(-1, -1).to_json()["ramified"] == ["2", "inf"]
    assert class_of_quaternion(-1, 3).to_json()["ramified"] == ["2", "3"]


def test_group_law():
    c = class_of_quaternion(-1, -1)
    c2 = class_of_quaternion(-1, 3)
    assert (c + c).is_trivial()
    assert (c + c2).to_json()["ramified"] == ["3", "inf"]
    rng = random.Random(1)
    for _ in range(30):
        xs = [class_of_quaternion(rng.randint(1, 40), -rng.randint(1, 40)) for _ in range(3)]
        assert (xs[0] + xs[1]) + xs[2] == xs[0] + (xs[1] + xs[2])
        assert xs[0] + xs[1] == xs[1] + xs[0]


@given(nonzero, nonzero)
@settings(max_examples=100, deadline=None)
def test_classes_have_even_cardinality(a, b):
    assert len(class_of_quaternion(a, b)) % 2 == 0


@given(nonzero, nonzero, nonzero)
@settings(max_examples=60, deadline=None)
def test_symbol_bilinearity_on_classes(a, b, b2):
    assert class_of_quaternion(a, b) + class_of_quaternion(a, b2) == class_of_quaternion(a, b * b2)


def test_realization_examples():
    assert quaternion_from_class(BrauerClass2.trivial()) == (1, 1)
    classes = [["2", "inf"], ["2", "3"], ["5", "7"], ["2", "3", "5", "inf"], ["2", "1009"]]
    classes.append(["2", "3", "5", "7", "11", "13", "17", "19", "23", "inf"])
    for names in classes:
        c = BrauerClass2.from_strs(names)
        a, b = quaternion_from_class(c)
        assert class_of_quaternion(a, b) == c


def test_realization_full_even_subsets():
    names = ["2", "3", "5", "7", "11", "inf"]
    for r in range(0, 7, 2):
        for combo in combinations(names, r):
            c = BrauerClass2.from_strs(combo)
            a, b = quaternion_from_class(c)
            assert class_of_quaternion(a, b) == c


def test_realization_cap():
    c = BrauerClass2.from_strs(["2", "3", "5", "7", "11", "inf"])
    with pytest.raises(SearchExhausted):
        quaternion_from_class(c, cap=3)


def test_realization_at_scale():
    primes = [str(p) for p in range(2, 10**4) if is_prime(p)]
    rng = random.Random(12)

    def draw(most):
        names = rng.sample(primes, rng.randint(1, most))
        return BrauerClass2.from_strs(names + ["inf"] * (len(names) % 2))

    for _ in range(100):
        c = draw(24)
        a, b = quaternion_from_class(c)
        assert class_of_quaternion(a, b) == c
    for _ in range(20):
        c = draw(7)
        q = construct_preimage(c)  # checks e2(q) = c structurally
        assert q.rank == 4


def test_index():
    assert index(BrauerClass2.trivial()) == 1
    assert index(class_of_quaternion(-1, -1)) == 2
    assert index(BrauerClass2.from_strs(["3", "5"])) == 2
    # index 1 iff the realizing quaternion is split
    from cliffinv.algebras import is_split_quaternion

    for names in ([], ["2", "inf"], ["3", "7"]):
        c = BrauerClass2.from_strs(names)
        a, b = quaternion_from_class(c)
        q = quaternion(Fraction(a), Fraction(b), QQ)
        assert (index(c) == 1) == is_split_quaternion(q)


def test_class_of_algebra():
    ec = even_clifford(DiagonalForm(frac(1, 1, 1), QQ))
    assert class_of_algebra(ec.algebra).to_json()["ramified"] == ["2", "inf"]
    assert class_of_algebra(matrix_algebra(2, QQ)).is_trivial()
    sc = split_components(DiagonalForm(frac(1, 1, 1, 1), QQ))
    assert class_of_algebra(sc.plus).to_json()["ramified"] == ["2", "inf"]


def test_class_of_algebra_mul_count(monkeypatch):
    # two candidate squares, six anticommutant products and x*y: the trace
    # is read off the table and each product is formed once
    sc = split_components(DiagonalForm(frac(1, 2, 3, 6), QQ))
    mul = StructureAlgebra.mul
    calls = []

    def counted(self, x, y):
        calls.append(None)
        return mul(self, x, y)

    monkeypatch.setattr(StructureAlgebra, "mul", counted)
    assert class_of_algebra(sc.plus).to_json()["ramified"] == ["2", "inf"]
    assert len(calls) <= 9


def test_roundtrip_class_level():
    rng = random.Random(6)
    for _ in range(20):
        a = Fraction(rng.choice([x for x in range(-30, 31) if x]))
        b = Fraction(rng.choice([x for x in range(-30, 31) if x]))
        c = class_of_quaternion(a, b)
        a2, b2 = quaternion_from_class(c)
        assert class_of_quaternion(a2, b2) == c


def test_quaternion_parameters_share_one_coprime_base():
    # p * q is beyond Brent's rho and never factored: b = p shows p, and the
    # gcd leaves q, which Miller-Rabin certifies
    p, q = 10**12 + 39, 10**13 + 37
    c = class_of_quaternion(p * q, p)
    assert c == class_of_quaternion(p, -1) + class_of_quaternion(q, p)
    assert c.to_json()["ramified"] == ["2", str(p)]
    assert product_formula_check(p * q, -p)
