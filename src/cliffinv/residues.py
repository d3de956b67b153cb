"""Second residues and the reciprocity law over rational function fields.

Residues are taken at monic irreducible polynomials (uniformiser pi)
and at the degree place (uniformiser 1/t).  The reciprocity total uses
the field-trace transfer twisted by the derivative of the uniformiser,
which is the normalisation that makes the transfers of all residues of
any class sum to zero in W(F); at the degree place that twist is the
familiar extra factor -1.
"""

from __future__ import annotations

from .errors import CliffinvError, UnsupportedBase
from .forms import DiagonalForm, QuadraticForm, diagonalize, isometric_diagonal
from .polys import Poly, QuotientField, valuation_unit
from .scalars import (
    PrimeField,
    RationalFunctionField,
    factor_poly,
    poly_is_irreducible,
)

INFINITE_PLACE = "inf"


def _function_field_of(q: DiagonalForm) -> RationalFunctionField:
    f = q.field
    if not isinstance(f, RationalFunctionField):
        raise UnsupportedBase("residues need a rational function field base")
    return f


def _residue_entries(q: DiagonalForm, pi: Poly):
    """F[t]/pi and the residues of the entries of odd valuation at pi."""
    quot = QuotientField(pi.field, pi)
    out = []
    for a in q.entries:
        e_num, u_num = valuation_unit(a.num, pi)
        e_den, u_den = valuation_unit(a.den, pi)
        if (e_num - e_den) % 2:
            out.append(quot.mul(quot.reduce(u_num), quot.inv(quot.reduce(u_den))))
    return quot, out


def second_residue(q: DiagonalForm, pi) -> DiagonalForm:
    """Entrywise second residue at pi (or at the degree place for "inf").

    Each entry a = pi^e u contributes the residue of u exactly when e is
    odd; the result is a diagonal form over the residue field F[t]/pi,
    possibly of rank zero.
    """
    ff = _function_field_of(q)
    if pi == INFINITE_PLACE:
        out = [
            a.num.leading() / a.den.leading()
            for a in q.entries
            if (a.den.degree - a.num.degree) % 2
        ]
        return DiagonalForm(tuple(out), ff.base)
    if not isinstance(pi, Poly):
        raise TypeError("pi must be a Poly or the infinite place marker")
    pi = pi.monic()
    if not poly_is_irreducible(pi):
        raise ValueError("residues need an irreducible uniformiser")
    quot, entries = _residue_entries(q, pi)
    return DiagonalForm(tuple(entries), quot)


def _trace_transfer_entries(quot: QuotientField, w: Poly):
    """Diagonal entries over F of the trace form x -> Tr(w x^2)."""
    base = quot.base
    d = quot.degree
    powers = []
    t = Poly.x(base)
    acc = quot.one()
    for _ in range(2 * d - 1):
        powers.append(acc)
        acc = quot.mul(acc, t)
    gram = [
        [quot.trace(quot.mul(w, powers[i + j])) for j in range(d)] for i in range(d)
    ]
    form = QuadraticForm(tuple(tuple(r) for r in gram), base)
    diag, _ = diagonalize(form)
    return diag.entries


def residue_places(q: DiagonalForm):
    """Monic irreducibles where some entry has nonzero valuation."""
    _function_field_of(q)
    seen = {}
    for a in q.entries:
        poly = a.num * a.den  # coprime, so its factors are the places of both
        if poly.degree < 1:
            continue
        _, factors = factor_poly(poly)
        for f, _e in factors:
            seen.setdefault(f.coeffs, f)
    return sorted(seen.values(), key=lambda f: (f.degree, [str(c) for c in f.coeffs]))


def reciprocity_total(q: DiagonalForm):
    """Entries over F of the sum of all transferred residues."""
    total = []
    for pi in residue_places(q):
        quot, entries = _residue_entries(q, pi)
        dpi = quot.reduce(pi.derivative())
        for w in entries:
            total.extend(_trace_transfer_entries(quot, quot.mul(w, dpi)))
    # the degree place carries the extra factor -1
    total.extend(-x for x in second_residue(q, INFINITE_PLACE).entries)
    return total


def is_witt_trivial_entries(entries, field) -> bool:
    """Is the diagonal form hyperbolic (trivial in the Witt group)?

    Exactly when it has even rank 2r and is isometric to <1, -1>^r.
    """
    if len(entries) % 2:
        return False
    plane = (field.one(), -field.one())
    return isometric_diagonal(entries, plane * (len(entries) // 2), field)


def milnor_reciprocity_check(q: DiagonalForm) -> bool:
    """All transferred residues (degree place included) sum to zero."""
    ff = _function_field_of(q)
    total = reciprocity_total(q)
    return is_witt_trivial_entries(total, ff.base)


def specialize(q: DiagonalForm, c) -> DiagonalForm:
    """Evaluate the entries at t = c; c must keep them all nonzero."""
    ff = _function_field_of(q)
    out = []
    for a in q.entries:
        den = a.den.evaluate(c)
        if not den:
            raise ZeroDivisionError("entry has a pole at the chosen point")
        num = a.num.evaluate(c)
        if not num:
            raise ValueError("entry vanishes at the chosen point")
        out.append(num / den)
    return DiagonalForm(tuple(out), ff.base)


def _good_points(q: DiagonalForm, count: int):
    """The first count points where q specialises, among 0, 1, -1, ...,
    +-(2 count + 4) over Q and 0, ..., min(p, 4 count + 8) - 1 over F_p."""
    base = _function_field_of(q).base
    if isinstance(base, PrimeField):
        candidates = range(min(base.p, 4 * count + 8))
    else:
        candidates = [0] + [s * k for k in range(1, 2 * count + 5) for s in (1, -1)]
    found = []
    for cand in candidates:
        x = base.from_int(cand)
        try:
            specialize(q, x)
        except (ZeroDivisionError, ValueError):
            continue
        found.append(x)
        if len(found) == count:
            return found
    raise CliffinvError("not enough good specialisation points")


def certify_extended_from_base(q: DiagonalForm) -> bool:
    """Certificate that the Witt class comes from the constant field.

    Checks that every residue vanishes (so the class is extended) and
    that two independent specialisations agree in W(F), which pins the
    base class down to the evident constant form.
    """
    ff = _function_field_of(q)
    for pi in residue_places(q):
        quot, entries = _residue_entries(q, pi)
        if not _residue_vanishes(quot, entries):
            return False
    inf_entries = second_residue(q, INFINITE_PLACE).entries
    if inf_entries and not is_witt_trivial_entries(inf_entries, ff.base):
        return False
    c1, c2 = _good_points(q, 2)
    s1 = specialize(q, c1)
    s2 = specialize(q, c2)
    diff = tuple(s1.entries) + tuple(-a for a in s2.entries)
    return is_witt_trivial_entries(diff, ff.base)


def _residue_vanishes(quot: QuotientField, entries) -> bool:
    """Witt triviality of a residue form over quot, by greedy pairing.

    Entries are matched into pairs <x>, <y> with -x/y a square in the
    residue field.  This certificate is sufficient but not complete; a
    failure to pair is reported as nonvanishing, which is the
    conservative answer for the curated extension suites.
    """
    if len(entries) % 2:
        return False
    remaining = list(entries)
    while remaining:
        x = remaining.pop()
        hit = None
        for i, y in enumerate(remaining):
            ratio = quot.mul(x, quot.inv(y))
            if _is_square_in_quotient(quot, quot.reduce(-ratio)):
                hit = i
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def _is_square_in_quotient(quot: QuotientField, w: Poly) -> bool:
    """Is w a square in the residue field F[t]/pi?

    Over F_p in every degree, and over Q in degree 1, exactly when its
    norm is a square in the base: in F_q with q = p^k, x^((q-1)/2) =
    N(x)^((p-1)/2), and in degree 1 the norm is w itself.  Degree 2 over Q
    embeds into Q(sqrt(d)), where an exact root solver exists.
    """
    base = quot.base
    if w.is_zero():
        return True
    if isinstance(base, PrimeField) or quot.degree == 1:
        return base.is_square(quot.norm(w))
    if quot.degree == 2:
        return _quad_quotient_is_square(quot, w)
    raise UnsupportedBase("square testing in number-field quotients of degree > 2")


def _quad_quotient_is_square(quot: QuotientField, w: Poly) -> bool:
    """Embed Q[t]/(t^2 + c1 t + c0) into Q(sqrt(d)) and test there."""
    from fractions import Fraction

    from .scalars import QuadElement, QuadraticNumberField, rational_sqrt, squarefree_part

    c1 = quot.modulus.coeffs[1]
    c0 = quot.modulus.coeffs[0]
    disc = c1 * c1 - 4 * c0  # nonzero and not a square: the modulus is irreducible
    d = squarefree_part(disc.numerator * disc.denominator)
    s = rational_sqrt(disc / d)
    # t_bar maps to (-c1 + s sqrt(d)) / 2
    w0 = w.coeffs[0] if len(w.coeffs) > 0 else Fraction(0)
    w1 = w.coeffs[1] if len(w.coeffs) > 1 else Fraction(0)
    k = QuadraticNumberField(d)
    img = QuadElement(w0 - w1 * c1 / 2, w1 * s / 2, d)
    return k.is_square(img)
