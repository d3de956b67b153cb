"""Rank-4 and rank-6 constructions tied to quaternion and biquaternion
algebras: reduced norm forms, Albert (pfaffian) forms, and the round
trips between forms and algebra classes.

Each construction works over the field of its parameters (`field_of`)
and returns a form, or the alternating basis, over that field.
"""

from __future__ import annotations

import random

from . import linalg
from .algebras import StructureAlgebra, find_quaternion_basis, quaternion, reduced_trace, tensor
from .brauer import class_of_quaternion
from .clifford import split_components
from .errors import CliffinvError, UnsupportedBase
from .forms import DiagonalForm, isometric_diagonal, signed_discriminant
from .invariants import clifford_invariant_class, construct_preimage, e2_of_form
from .scalars import RationalField, field_of

NORM_SAMPLES = 20
NORM_SEED = 0


def _norm_value(q: StructureAlgebra, x):
    conj = q.apply_involution(x)
    prod = q.mul(list(x), conj)
    val = q.is_scalar(prod)
    if val is None:
        raise CliffinvError("norm did not land in the scalars")
    return val


def reduced_norm_form(a, b) -> DiagonalForm:
    """<1, -a, -b, ab>, checked against the algebra norm on NORM_SAMPLES
    seeded samples."""
    field = field_of(a)
    if not a or not b:
        raise ValueError("nonzero parameters required")
    q = quaternion(a, b, field)
    form = DiagonalForm((field.one(), -a, -b, a * b), field)
    rng = random.Random(NORM_SEED)
    for _ in range(NORM_SAMPLES):
        x = [field.from_int(rng.randint(-5, 5)) for _ in range(4)]
        p = [field.from_int(rng.randint(-5, 5)) for _ in range(4)]
        lhs = _norm_value(q, q.mul(x, p))
        rhs = _norm_value(q, x) * _norm_value(q, p)
        if lhs != rhs:
            raise CliffinvError("norm multiplicativity failed on a sample")
        # the diagonal form evaluates the norm in coordinates
        direct = x[0] ** 2 - a * x[1] ** 2 - b * x[2] ** 2 + a * b * x[3] ** 2
        if direct != _norm_value(q, x):
            raise CliffinvError("norm form disagrees with the algebra norm")
    if not signed_discriminant(form).is_trivial:
        raise CliffinvError("norm form must have trivial signed discriminant")
    return form


def norm_roundtrip_check(a, b) -> bool:
    """Both components of C0 of the norm form carry the algebra's class:
    each has a quaternion basis whose norm form the field finds isometric
    to that of (a, b), as quaternion algebras are isomorphic exactly when
    their norm forms are isometric (Lam, Ch. III)."""
    form = reduced_norm_form(a, b)
    field, sc = form.field, split_components(form)
    bases = (find_quaternion_basis(comp) for comp in (sc.plus, sc.minus))
    return all(isometric_diagonal((field.one(), -x, -y, x * y), form.entries, field) for x, y, _ in bases)


def albert_form(a, b, c, d) -> DiagonalForm:
    """<a, b, -ab, -c, -d, cd> for the biquaternion pair (a,b), (c,d)."""
    for x in (a, b, c, d):
        if not x:
            raise ValueError("nonzero parameters required")
    form = DiagonalForm((a, b, -(a * b), -c, -d, c * d), field_of(a))
    if not signed_discriminant(form).is_trivial:
        raise CliffinvError("Albert form must have trivial signed discriminant")
    return form


def _goldman_terms(q: StructureAlgebra):
    """Terms (coef, basis index) of the element whose sandwich is the

    trace map x -> Trd(x).1; for a quaternion basis these are the basis
    squares' reciprocals halved.
    """
    field = q.field
    half = field.one() / field.from_int(2)
    coefs = []
    for mu in range(4):
        sq = q.mul(q.basis_vec(mu), q.basis_vec(mu))
        val = q.is_scalar(sq)
        if val is None or not val:
            raise CliffinvError("basis vector square is not an invertible scalar")
        coefs.append(half / val)
    return coefs


def pfaffian_space(a, b, c, d) -> list:
    """A basis of the 6-dimensional alternating space of the biquaternion
    algebra, as vectors in the 16-dimensional product basis.

    Builds A = (a,b) (x) (c,d), realises A (x) A on End(A) by
    u (x) v: x -> u x sigma(v) with sigma the product involution, sends
    the trace element across, and checks the image endomorphism psi is
    an involution with rank(id - psi) = 6; the basis spans im(id - psi).
    """
    field = field_of(a)
    qb = quaternion(a, b, field)
    qc = quaternion(c, d, field)
    amb = tensor(qb, qc)
    coefs_b = _goldman_terms(qb)
    coefs_c = _goldman_terms(qc)
    # trace element of A as sum over the 16 product basis vectors
    terms = [(coefs_b[mu] * coefs_c[nu], mu * 4 + nu) for mu in range(4) for nu in range(4)]
    one, zero = field.one(), field.zero()

    def sandwich(k, signs):
        """sum coef * u e_k (s_u u) over the terms, as {row: coef}: on a
        twisted table each term is one signed monomial."""
        acc = {}
        for coef, idx in terms:
            ux = amb.mul_rows(((idx, coef),), ((k, one),))
            for row, v in amb.mul_rows(ux.items(), ((idx, signs[idx]),)).items():
                acc[row] = acc[row] + v if row in acc else v
        return {row: v for row, v in acc.items() if v}

    # certify: sandwiching without sigma gives the reduced trace map
    for k in range(16):
        tr = reduced_trace(amb, amb.basis_vec(k))
        if sandwich(k, [one] * 16) != {i: tr * u for i, u in enumerate(amb.unit) if tr * u}:
            raise CliffinvError("trace element certification failed")
    # psi(x) = sum coef * u x sigma(u), sigma(u) = s_u u
    psi = {k: sandwich(k, amb.involution) for k in range(16)}
    if linalg.compose(psi, psi) != {k: {k: one} for k in range(16)}:
        raise CliffinvError("trace image is not involutory")
    cols = [[(one if i == k else zero) - psi[k].get(i, zero) for i in range(16)] for k in range(16)]
    alt = linalg.column_space_basis(cols)
    if len(alt) != 6:
        raise CliffinvError(f"alternating space has dimension {len(alt)}, not 6")
    return alt


def pfaffian_roundtrip_check(a, b, c, d) -> bool:
    """e2 of the Albert form equals the sum of the two quaternion classes.

    The class of the rank-6 form is extracted through Witt reduction and
    component splitting; a rank-4 norm-form witness of the expected
    class is produced independently and the two classes compared.  The
    alternating space is certified (`pfaffian_space` raises unless it has
    dimension 6), and the dim-16 components of the rank-6 even Clifford
    algebra are built and dimension-checked along the way.
    """
    if not isinstance(field_of(a), RationalField):
        raise UnsupportedBase("pfaffian round trip over Q")
    form = albert_form(a, b, c, d)
    pfaffian_space(a, b, c, d)
    sc = split_components(form)
    if sc.plus.dim != 16 or sc.minus.dim != 16:
        return False
    expected = class_of_quaternion(a, b) + class_of_quaternion(c, d)
    got = e2_of_form(form)
    if got != expected:
        return False
    witness = construct_preimage(expected)
    return e2_of_form(witness) == got and clifford_invariant_class(form.entries) == got
