"""Each fact on the e2 path is decided once per input.

Witt reduction decides isotropy itself, a quaternion basis reads a twisted
table once, isotropic_vector diagonalises once, an order computes its
genus once and F_p its least nonresidue once.  Each test counts the calls
of the function that used to decide the fact a second time.
"""

import sys
from fractions import Fraction

from cliffinv import algebras, dedekind, forms, scalars
from cliffinv.clifford import split_components
from cliffinv.dedekind import QuadOrder, genus_label, prime_ideals_above
from cliffinv.forms import DiagonalForm, QuadraticForm, diagonalize, isotropic_vector, orthogonal_sum
from cliffinv.invariants import e2_of_form
from cliffinv.scalars import GF, QQ


def _count(monkeypatch, module, name):
    """The list of argument tuples of the calls of module.name, made under
    any name that a cliffinv module bound to it."""
    fn, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("cliffinv") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _diag(*xs):
    return DiagonalForm(tuple(Fraction(x) for x in xs), QQ)


def test_e2_never_asks_is_isotropic(monkeypatch):
    definite, indefinite = _diag(1, 1, 1, 1), _diag(6, -2, 5, -60)
    calls = _count(monkeypatch, forms, "is_isotropic")
    assert not e2_of_form(definite).is_trivial()
    assert e2_of_form(orthogonal_sum(definite, indefinite)) == e2_of_form(definite) + e2_of_form(indefinite)
    assert calls == []


def test_quaternion_basis_reads_a_twisted_table_once(monkeypatch):
    sc = split_components(_diag(1, 2, 3, 6))
    twisted = _count(monkeypatch, algebras, "twisted_center")
    center = _count(monkeypatch, algebras, "center")
    alpha, beta, _ = algebras.find_quaternion_basis(sc.plus)
    assert alpha and beta
    assert (len(twisted), len(center)) == (1, 0)


def test_isotropic_vector_diagonalises_once(monkeypatch):
    half = Fraction(1, 2)
    q = QuadraticForm(((Fraction(1), half), (half, Fraction(-3, 4))), QQ)
    calls = _count(monkeypatch, forms, "diagonalize")
    v = isotropic_vector(q)
    assert len(calls) == 1
    assert any(v) and sum(v[i] * q.gram[i][j] * v[j] for i in range(2) for j in range(2)) == 0
    assert diagonalize(q)[0].entries == (1, -1)


def test_genus_is_computed_once_per_order(monkeypatch):
    for d in (-5, 15):
        order = QuadOrder(d)
        ideals = [i for p in (2, 3, 5, 7) for i in prime_ideals_above(order, p)][:3]
        calls = _count(monkeypatch, dedekind, "factor_integer")
        labels = [genus_label(i) for i in ideals]
        assert calls == [] and len(labels) == 3
        monkeypatch.undo()


def test_prime_field_finds_its_nonresidue_once(monkeypatch):
    for p, least in ((7, 3), (13, 2), (71, 7)):
        f = GF(p)
        calls = _count(monkeypatch, scalars, "legendre")
        assert f.square_class(f.from_int(least)).rep == f.nonresidue == least
        assert len(calls) == 1  # the class of the entry, not the search
        assert (f.rep_mul(1, least), f.rep_mul(least, least), f.rep_mul(least, 1)) == (least, 1, least)
        assert len(calls) == 1
        monkeypatch.undo()
