"""Rank, discriminant, and Clifford-class invariants on total Witt data.

e0 is total rank mod 2, e1 the product of signed discriminants on the
even-rank part, and e2 sends an even-rank trivial-discriminant class
over Q to the common Brauer class of the two components of its even
Clifford algebra.

e2 is computed structurally: Witt-reduce, split the even Clifford
algebra of the anisotropic kernel, extract a quaternion basis, read its
ramification.  A second, independent route, the symbol dictionary, asks
the entries' field for the places where the Clifford class is -1: over Q
the Hasse invariant with the mod-8 correction terms on the local
square-class keys of the entries, without forming a Clifford algebra;
over F_p none, as Br(F_p) = 0.  Neither route tests the field's type.
Every e2 passes through _e2_checked, which compares the two on the
entries the caller passed: the input form for e2_of_form, the orthogonal
sum for e2_additivity_check, each kernel for e2.
"""

from __future__ import annotations

from fractions import Fraction

from .brauer import BrauerClass2, class_of_algebra, quaternion_from_class
from .clifford import discriminant_algebra, split_components
from .errors import CliffinvError, UnsupportedBase
from .forms import (
    TRIVIAL_LABEL,
    DiagonalForm,
    Entries,
    WittClass,
    _as_diagonal,
    orthogonal_sum,
    signed_discriminant,
    witt_decompose,
    witt_theory,
)
from .records import record
from .scalars import QQ, SquareClass, field_of, square_class

@record
class TotalWittElement:
    """Witt classes indexed by value-line representatives.

    Over a field there is the single label TRIVIAL_LABEL and each
    component is a WittClass.  Over a quadratic order the labels are the
    classes of Cl/2 and each component is an IdealValuedForm normalised
    to its representative (dedekind.total_witt_element).  Absent labels
    mean zero.
    """

    components: dict

    @classmethod
    def from_form(cls, q) -> "TotalWittElement":
        return cls({TRIVIAL_LABEL: witt_decompose(q)})


def _components(w):
    if isinstance(w, TotalWittElement):
        return list(w.components.values())
    if isinstance(w, WittClass):
        return [w]
    return [witt_decompose(w)]


def _witt_classes(w):
    """The components of w; e1 and e2 are computed on Witt classes over a field only."""
    comps = _components(w)
    if not all(isinstance(c, WittClass) for c in comps):
        raise UnsupportedBase("e1 and e2 of ideal-valued forms are not computed")
    return comps


def e0(w) -> int:
    """Total rank modulo 2."""
    return sum(c.rank for c in _components(w)) % 2


def e1(w) -> SquareClass:
    """Product of the signed discriminants; needs e0 = 0 componentwise."""
    comps = _witt_classes(w)
    if not comps:
        raise ValueError("e1 of the zero element: it has no component to name a field")
    field = comps[0].field
    for c in comps:
        if len(c.kernel) % 2:
            raise ValueError("e1 needs even rank on every component")
        if c.field != field:
            raise ValueError("components live over different fields")
    out = square_class(field.one())
    for c in comps:
        if not c.kernel:
            continue
        d = signed_discriminant(DiagonalForm(c.kernel, field))
        if len(c.kernel) <= 6:
            # independent route through the centre of the even Clifford algebra
            da = discriminant_algebra(DiagonalForm(c.kernel, field))
            if square_class(da.delta) != d:
                raise CliffinvError("centre discriminant disagrees with the determinant")
        out = out * d
    return out


def _e2_checked(c: WittClass, entries) -> BrauerClass2:
    """e2 of a Witt class, checked against the symbol dictionary on
    entries, a form in the class; both read carried classes (forms.Entries)."""
    field, kernel = c.field, c.kernel
    if len(kernel) % 2 or not signed_discriminant(DiagonalForm(kernel, field)).is_trivial:
        raise ValueError("form is not an I2 element")
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


def clifford_invariant_class(entries) -> BrauerClass2:
    """The symbol-dictionary route to the Clifford Brauer class: the places
    the entries' field names (clifford_places: over Q the local Clifford
    classes of scalars.clifford_invariant_local, over F_p none)."""
    if not entries:
        return BrauerClass2.trivial()
    es = Entries(entries)
    return BrauerClass2(witt_theory(field_of(es[0])).clifford_places(es))


def e2(w) -> BrauerClass2:
    """Brauer class of the even Clifford components, summed over labels.

    Components must have even rank and trivial signed discriminant.
    Each component's anisotropic kernel is evaluated structurally and
    checked against its field's clifford_places.  Over F_p the kernel of
    an I2 class is empty (witt_reduce leaves fewer than three entries, and
    a binary I2 form is a plane), so the class is trivial.
    """
    total = BrauerClass2.trivial()
    for c in _witt_classes(w):
        total = total + _e2_checked(c, c.kernel)
    return total


def e2_of_form(q) -> BrauerClass2:
    """e2 of a single even-rank trivial-discriminant form.

    The form is Witt-reduced and its anisotropic kernel evaluated
    structurally; a hyperbolic form never reaches the Clifford algebra.
    """
    d = _as_diagonal(q)
    return _e2_checked(witt_decompose(d), d.entries)


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
