"""Rank, discriminant, and Clifford-class invariants on total Witt data.

e0 is total rank mod 2, e1 the product of signed discriminants on the
even-rank part, and e2 sends an even-rank trivial-discriminant class
over Q to the common Brauer class of the two components of its even
Clifford algebra.

e2 is computed structurally: Witt-reduce, split the even Clifford
algebra of the anisotropic kernel, extract a quaternion basis, read its
ramification.  A second, independent route evaluates the classical
local symbol dictionary (Hasse invariant with the mod-8 correction
terms).  Every e2 over Q passes through _e2_checked, which compares the
two on the entries the caller passed: the input form for e2_of_form,
the orthogonal sum for e2_additivity_check, each kernel for e2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brauer import BrauerClass2, class_of_algebra, quaternion_from_class
from .clifford import discriminant_algebra, split_components
from .errors import CliffinvError, UnsupportedBase
from .forms import (
    DiagonalForm,
    WittClass,
    _as_entries,
    hasse_invariant,
    orthogonal_sum,
    signed_discriminant,
    witt_decompose,
)
from .scalars import (
    QQ,
    PrimeField,
    RationalField,
    SquareClass,
    hilbert_symbol,
    square_class,
    support_places,
)

TRIVIAL_LABEL = "trivial"


@dataclass
class TotalWittElement:
    """Witt classes indexed by value-line representatives.

    Over a field there is a single label "trivial"; the Dedekind layer
    supplies class-group representatives.  Absent labels mean zero.
    """

    components: dict

    @classmethod
    def from_form(cls, q, label: str = TRIVIAL_LABEL) -> "TotalWittElement":
        return cls({label: witt_decompose(q)})

    @classmethod
    def from_forms(cls, assignments: dict) -> "TotalWittElement":
        return cls({label: witt_decompose(q) for label, q in assignments.items()})

    def witt_classes(self):
        return list(self.components.values())


def _components(w):
    if isinstance(w, TotalWittElement):
        return w.witt_classes()
    if isinstance(w, WittClass):
        return [w]
    return [witt_decompose(w)]


def e0(w) -> int:
    """Total rank modulo 2."""
    return sum(len(c.kernel) for c in _components(w)) % 2


def e1(w) -> SquareClass:
    """Product of the signed discriminants; needs e0 = 0 componentwise."""
    comps = _components(w)
    field = comps[0].field
    for c in comps:
        if len(c.kernel) % 2:
            raise ValueError("e1 needs even rank on every component")
        if c.field != field:
            raise ValueError("components live over different fields")
    out = square_class(field.one(), field)
    for c in comps:
        if not c.kernel:
            continue
        d = signed_discriminant(DiagonalForm(c.kernel, field))
        if len(c.kernel) <= 6:
            # independent route through the centre of the even Clifford algebra
            da = discriminant_algebra(DiagonalForm(c.kernel, field))
            if square_class(da.delta, field) != d:
                raise CliffinvError("centre discriminant disagrees with the determinant")
        out = out * d
    return out


def _e2_checked(c: WittClass, entries) -> BrauerClass2:
    """e2 of a Witt class, checked against the symbol dictionary on
    entries, a form in the class.  Over F_p every class is trivial."""
    field, kernel = c.field, c.kernel
    if not isinstance(field, (RationalField, PrimeField)):
        raise UnsupportedBase("e2 is computed over Q (and trivially over F_p)")
    if len(kernel) % 2 or not signed_discriminant(DiagonalForm(kernel, field)).is_trivial:
        raise ValueError("form is not an I2 element")
    if isinstance(field, PrimeField):
        return BrauerClass2.trivial()  # the 2-torsion Brauer group of F_p is trivial
    cls = _e2_structural(kernel, field)
    if clifford_invariant_class(entries) != cls:
        raise CliffinvError("structural class disagrees with the symbol dictionary")
    return cls


def _e2_structural(kernel, field) -> BrauerClass2:
    """Brauer class of a component of C0 of an anisotropic I2 kernel.

    A rank-4 kernel is read off its split even Clifford algebra.  A
    kernel <a1, ..., an> with n >= 6 is Witt-equivalent to P + R with
    P = <a1, a2, a3, a1a2a3> and R = <-a1a2a3, a4, ..., an>, both in I2;
    e2 is additive on I2 (C(q1 + q2) is C(q1) tensor C(q2), graded), so
    the class is that of P plus that of the kernel of R.  Over Q an
    anisotropic kernel of rank >= 5 is definite, so P is definite, hence
    anisotropic, R is indefinite and its kernel has rank at most n - 4.
    """
    if not kernel:
        return BrauerClass2.trivial()
    if len(kernel) == 4:
        sc = split_components(DiagonalForm(kernel, field))
        cls = class_of_algebra(sc.plus)
        if class_of_algebra(sc.minus) != cls:
            raise CliffinvError("the two component classes disagree")
        return cls
    a1, a2, a3 = kernel[:3]
    p = a1 * a2 * a3
    rest = witt_decompose(DiagonalForm((-p,) + tuple(kernel[3:]), field)).kernel
    return _e2_structural((a1, a2, a3, p), field) + _e2_structural(rest, field)


def clifford_invariant_local(entries, v) -> int:
    """Local Clifford class via the Hasse invariant and mod-8 corrections.

    For rank n and signed discriminant d the correction multiplies the
    Hasse symbol by (-1,-d) when n is 3 or 4 mod 8, by (-1,-1) when n is
    5 or 6 mod 8, and by (-1,d) when n is 7 or 0 mod 8.
    """
    es = [Fraction(a) for a in entries]
    s = hasse_invariant(es, v)
    n = len(es) % 8
    d = Fraction(1)
    for a in es:
        d *= a
    if (len(es) * (len(es) - 1) // 2) % 2:
        d = -d
    if n in (3, 4):
        s *= hilbert_symbol(-1, -d, v)
    elif n in (5, 6):
        s *= hilbert_symbol(-1, -1, v)
    elif n in (7, 0):
        s *= hilbert_symbol(-1, d, v)
    return s


def clifford_invariant_class(entries) -> BrauerClass2:
    """The symbol-dictionary route to the Clifford Brauer class over Q."""
    es = [Fraction(a) for a in entries]
    ram = [v for v in support_places(*es) if clifford_invariant_local(es, v) == -1]
    return BrauerClass2(ram)


def e2(w) -> BrauerClass2:
    """Brauer class of the even Clifford components, summed over labels.

    Components must have even rank and trivial signed discriminant.
    Over F_p every class is trivial, so the result is the empty set.
    Over Q each component's anisotropic kernel is evaluated
    structurally.
    """
    total = BrauerClass2.trivial()
    for c in _components(w):
        total = total + _e2_checked(c, c.kernel)
    return total


def e2_of_form(q) -> BrauerClass2:
    """e2 of a single even-rank trivial-discriminant form over Q.

    The form is Witt-reduced and its anisotropic kernel evaluated
    structurally; a hyperbolic form never reaches the Clifford algebra.
    """
    entries = _as_entries(q)
    return _e2_checked(witt_decompose(DiagonalForm(entries, q.field)), entries)


def e2_additivity_check(q, q2) -> bool:
    """Does e2 of the orthogonal sum equal the sum of the e2 values?

    The summands and the Witt kernel of the sum are evaluated
    structurally, each checked against the symbol dictionary.  A
    definite rank-8 kernel is split by its own first three entries, not
    along the summands, so the check compares two decompositions.
    """
    c1 = e2_of_form(q)
    c2 = e2_of_form(q2)
    return e2_of_form(orthogonal_sum(q, q2)) == c1 + c2


def construct_preimage(c: BrauerClass2) -> DiagonalForm:
    """A rank-4 I2 form over Q with e2 equal to the given class.

    Realises the class as a quaternion algebra and takes the reduced
    norm form <1, -a, -b, ab>; the postcondition e2 = c is verified
    before returning.
    """
    a, b = quaternion_from_class(c)
    q = DiagonalForm((Fraction(1), -a, -b, a * b), QQ)
    got = e2_of_form(q)
    if got != c:
        raise CliffinvError("norm form fails to hit the requested class")
    return q
