import random
from fractions import Fraction

import pytest

from cliffinv.algebras import quaternion
from cliffinv.brauer import class_of_quaternion, index
from cliffinv.errors import CliffinvError
from cliffinv.exceptional import (
    albert_form,
    norm_roundtrip_check,
    pfaffian_roundtrip_check,
    pfaffian_space,
    reduced_norm_form,
)
from cliffinv.forms import is_isotropic, signed_discriminant, twist, witt_decompose
from cliffinv.invariants import e2_of_form
from cliffinv.scalars import GF, QQ

F = QQ


def fr(x):
    return Fraction(x)


def test_reduced_norm_form_examples():
    assert reduced_norm_form(fr(1), fr(1)).entries == (fr(1), fr(-1), fr(-1), fr(1))
    assert reduced_norm_form(fr(-1), fr(-1)).entries == (fr(1), fr(1), fr(1), fr(1))
    with pytest.raises(ValueError):
        reduced_norm_form(fr(0), fr(1))


def test_norm_form_discriminant_trivial():
    rng = random.Random(47)
    for _ in range(20):
        a = fr(rng.choice([x for x in range(-30, 31) if x]))
        b = fr(rng.choice([x for x in range(-30, 31) if x]))
        assert signed_discriminant(reduced_norm_form(a, b)).is_trivial


def test_norm_multiplicativity_sampled():
    # the constructor itself verifies q(x p) = Nrd(x) q(p) on samples
    rng = random.Random(49)
    q = quaternion(fr(2), fr(-3), F)
    for _ in range(100):
        x = [F.from_int(rng.randint(-6, 6)) for _ in range(4)]
        y = [F.from_int(rng.randint(-6, 6)) for _ in range(4)]
        nx = x[0] ** 2 - 2 * x[1] ** 2 + 3 * x[2] ** 2 - 6 * x[3] ** 2
        ny = y[0] ** 2 - 2 * y[1] ** 2 + 3 * y[2] ** 2 - 6 * y[3] ** 2
        xy = q.mul(x, y)
        nxy = xy[0] ** 2 - 2 * xy[1] ** 2 + 3 * xy[2] ** 2 - 6 * xy[3] ** 2
        assert nxy == nx * ny


def test_norm_roundtrip():
    assert norm_roundtrip_check(fr(-1), fr(-1))
    assert norm_roundtrip_check(fr(1), fr(7))
    f5 = GF(5)
    assert norm_roundtrip_check(f5.from_int(2), f5.from_int(3))
    rng = random.Random(51)
    for _ in range(10):
        a = fr(rng.choice([x for x in range(-50, 51) if x]))
        b = fr(rng.choice([x for x in range(-50, 51) if x]))
        assert norm_roundtrip_check(a, b)


def test_albert_form():
    af = albert_form(fr(1), fr(1), fr(1), fr(1))
    assert af.entries == (fr(1), fr(1), fr(-1), fr(-1), fr(-1), fr(1))
    assert is_isotropic(af)
    assert signed_discriminant(af).is_trivial
    with pytest.raises(ValueError):
        albert_form(fr(1), fr(0), fr(1), fr(1))


def test_albert_isotropy_matches_index():
    # the class sum has index <= 2 over Q, so Albert forms are isotropic;
    # hyperbolic exactly when the class sum is trivial
    rng = random.Random(53)
    for _ in range(20):
        vals = [fr(rng.choice([x for x in range(-9, 10) if x])) for _ in range(4)]
        af = albert_form(*vals)
        c = class_of_quaternion(vals[0], vals[1]) + class_of_quaternion(vals[2], vals[3])
        assert is_isotropic(af)
        w = witt_decompose(af)
        if index(c) == 1:
            assert w.index == 3 and not w.kernel
        else:
            assert len(w.kernel) == 4


def test_pfaffian_space_dimension():
    ps = pfaffian_space(fr(1), fr(1), fr(1), fr(1))
    assert len(ps) == 6
    assert all(len(v) == 16 for v in ps)  # vectors of the degree-4 algebra
    ps2 = pfaffian_space(fr(-1), fr(-1), fr(-1), fr(3))
    assert len(ps2) == 6
    rng = random.Random(55)
    for _ in range(3):
        vals = [fr(rng.choice([x for x in range(-7, 8) if x])) for _ in range(4)]
        assert len(pfaffian_space(*vals)) == 6


def test_pfaffian_roundtrip_examples():
    assert pfaffian_roundtrip_check(fr(-1), fr(-1), fr(-1), fr(-1))
    assert pfaffian_roundtrip_check(fr(-1), fr(-1), fr(-1), fr(3))
    c = class_of_quaternion(-1, -1) + class_of_quaternion(-1, 3)
    assert c.to_json()["ramified"] == ["3", "inf"]


def test_pfaffian_roundtrip_random():
    rng = random.Random(57)
    for _ in range(4):
        vals = [fr(rng.choice([x for x in range(-9, 10) if x])) for _ in range(4)]
        assert pfaffian_roundtrip_check(*vals)


def test_albert_twist_stability():
    rng = random.Random(59)
    for _ in range(5):
        vals = [fr(rng.choice([x for x in range(-9, 10) if x])) for _ in range(4)]
        af = albert_form(*vals)
        n = F.random_nonzero(rng)
        assert e2_of_form(twist(af, n)) == e2_of_form(af)

