"""Even Clifford algebra and Clifford bimodule of a regular form.

Basis monomials e_S, the product of the e_i (i in S) in increasing
order, are indexed by bitmasks: even subsets span the even algebra, odd
subsets the bimodule.  A Clifford element, even or odd, is a {mask: coef}
dict, and `EvenClifford.mul` multiplies any two; the bases and
idempotents of `split_components` are such rows.  An operator on the
exterior algebra of the hyperbolic model is a column map
{mask: {mask: coef}}, composed and combined by `linalg.compose` and
`linalg.combine`, and the model is certified on these operators alone:
parity, independence and one product law.  Monomial products take one
of two paths.

On a diagonal form <a_1, ..., a_n>, e_S e_T = (-1)^sigma(S, T)
a_(S and T) e_(S xor T): a twisted group algebra of (Z/2)^n with one pair
per table entry.  `EvenClifford.mul_masks` is two lookups, the sign in
one parity table per n and a_U among the 2^n subset products of the
form; the bimodule, split_components and sum_isomorphism all use it,
diagonalising a QuadraticForm first.  Gram matrices use
`_mul_masks_gram`, where e_i e_j + e_j e_i = 2 g_ij makes a product a
short sum of monomials; dedekind.even_clifford_order takes this path.
"""

from __future__ import annotations

import functools
from functools import cached_property

from . import linalg
from .algebras import AlgebraMorphism, StructureAlgebra, twisted_center
from .errors import CliffinvError, DegenerateFormError
from .forms import DiagonalForm, QuadraticForm, diagonalize, hyperbolic, signed_det
from .records import record
from .scalars import QQ

MAX_RANK = 7


@functools.cache
def _sign_parity(n: int) -> bytes:
    """sigma(S, T) = #{i in S, j in T, i > j} mod 2 at index S << n | T."""
    out = bytearray(1 << 2 * n)
    for s in range(1 << n):
        above = [(s >> (j + 1)).bit_count() & 1 for j in range(n)]
        for t in range(1, 1 << n):
            low = t & -t
            out[s << n | t] = out[s << n | (t ^ low)] ^ above[low.bit_length() - 1]
    return bytes(out)


def _mul_masks_gram(s: int, t: int, gram, field) -> dict:
    """Product of basis monomials for a Gram matrix, as {mask: coef}.

    With e_i e_i = g_ii and e_i e_j + e_j e_i = 2 g_ij, right
    multiplication of e_S by e_j walks the i in S with i > j from the
    largest down: each adds sign 2 g_ij e_(S-i), then flips the sign.
    It ends with sign g_jj e_(S-j) when j is in S, else sign e_(S+j).
    The sign is carried as a parity, and a term is negated once, when
    it is emitted; zero Gram entries emit nothing.  On a diagonal Gram
    matrix this is `EvenClifford.mul_masks`.
    """
    terms = {s: field.one()}
    while t:
        j = (t & -t).bit_length() - 1
        t &= t - 1
        bit = 1 << j
        pairs = []
        for m, c in terms.items():
            odd = False
            above = m >> (j + 1) << (j + 1)
            while above:
                i = above.bit_length() - 1
                above ^= 1 << i
                g = gram[i][j]
                if g:
                    v = c * (g + g)
                    pairs.append((m ^ (1 << i), -v if odd else v))
                odd = not odd
            if not m & bit:
                pairs.append((m | bit, -c if odd else c))
            elif gram[j][j]:
                v = c * gram[j][j]
                pairs.append((m ^ bit, -v if odd else v))
        terms = {}
        for m, v in pairs:
            terms[m] = terms[m] + v if m in terms else v
        terms = {m: c for m, c in terms.items() if c}
    return terms


def _mask_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _masks_by_parity(n: int, parity: int):
    masks = [m for m in range(1 << n) if m.bit_count() % 2 == parity]
    masks.sort(key=lambda m: (m.bit_count(), m))
    return tuple(masks)


class EvenClifford:
    """dim 2^(n-1) algebra on even-subset monomials of a diagonal form."""

    def __init__(self, form: DiagonalForm):
        if form.rank > MAX_RANK:
            raise ValueError(f"rank {form.rank} beyond supported {MAX_RANK}")
        if form.field.char == 2:
            raise CliffinvError("2 must be invertible in the base")
        self.form = form
        self.field = form.field
        self.n = form.rank
        self.masks = _masks_by_parity(self.n, 0)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.dim = len(self.masks)
        subset = [self.field.one()]  # subset[U] = a_U, the product of a_i over i in U
        for a in form.entries:
            subset += [c * a for c in subset]
        self._signed, self._parity = (subset, [-c for c in subset]), _sign_parity(self.n)
        self._check_generator_relations()

    def _check_generator_relations(self):
        a = self.form.entries
        mul = self.mul_masks
        for i in range(self.n):
            c, m = mul(1 << i, 1 << i)
            if m != 0 or c != a[i]:
                raise CliffinvError("generator square relation failed")
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    c1, m1 = mul((1 << i) | (1 << j), (1 << j) | (1 << k))
                    if m1 != (1 << i) | (1 << k) or c1 != a[j]:
                        raise CliffinvError("pair contraction relation failed")

    def mul_masks(self, s, t):
        """e_S e_T as (coef, S xor T); products share their coefficient objects."""
        return self._signed[self._parity[s << self.n | t]][s & t], s ^ t

    def mul(self, x, y):
        """Product of Clifford elements given as {mask: coef}, even or odd.

        One loop over the pairs of terms serves the even product, both
        bimodule actions and the pairing C1 x C1 -> C0.
        """
        out = {}
        for s, a in x.items():
            for t, b in y.items():
                c, m = self.mul_masks(s, t)
                v = a * b * c
                out[m] = out[m] + v if m in out else v
        return {m: c for m, c in out.items() if c}

    def unit_coords(self):
        v = [self.field.zero()] * self.dim
        v[self.index[0]] = self.field.one()
        return v

    def embed_pair(self, i: int, j: int):
        """The generator image of e_i (x) e_j, as {mask: coef}."""
        if i == j:
            return {0: self.form.entries[i]}
        one = self.field.one()
        return {(1 << i) | (1 << j): one if i < j else -one}

    def generators(self):
        """Coordinate vectors of the e_i e_j with i < j, which `center` takes."""
        zero, one, out = self.field.zero(), self.field.one(), []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                v = [zero] * self.dim
                v[self.index[(1 << i) | (1 << j)]] = one
                out.append(v)
        return out

    @cached_property
    def algebra(self) -> StructureAlgebra:
        n, index, signed, parity = self.n, self.index, self._signed, self._parity
        table = [
            [((index[s ^ t], signed[parity[s << n | t]][s & t]),) for t in self.masks]
            for s in self.masks
        ]
        labels = tuple(_mask_label(m) for m in self.masks)
        return StructureAlgebra(self.field, labels, table, self.unit_coords())

    def top_mask(self) -> int:
        return (1 << self.n) - 1


class CliffordBimodule:
    """Odd-subset monomials.  The two-sided action of the even algebra and
    the pairing C1 x C1 -> C0 (value line trivialised) are `EvenClifford.mul`."""

    def __init__(self, even: EvenClifford):
        self.even = even
        self.field = even.field
        self.n = even.n
        self.masks = _masks_by_parity(self.n, 1)
        self.dim = len(self.masks)

    def embed_vector(self, i: int):
        """The image of the i-th basis vector, as {mask: coef}."""
        return {1 << i: self.field.one()}


def even_clifford(form) -> EvenClifford:
    """Even Clifford algebra; non-diagonal input is diagonalised first."""
    if isinstance(form, QuadraticForm):
        form, _ = diagonalize(form)
    return EvenClifford(form)


def clifford_bimodule(form) -> CliffordBimodule:
    return CliffordBimodule(even_clifford(form))


@record(frozen=True)
class DiscriminantAlgebra:
    """The centre of the even Clifford algebra of an even-rank form."""

    delta: object
    split: bool

    def __repr__(self):
        return f"DiscriminantAlgebra(x^2 - ({self.delta}), split={self.split})"


def discriminant_algebra(form_or_ec) -> DiscriminantAlgebra:
    """Centre presented as F[x]/(x^2 - delta), delta the signed discriminant.

    Takes a form, or an EvenClifford whose algebra table is then reused.
    """
    ec = form_or_ec if isinstance(form_or_ec, EvenClifford) else None
    form = form_or_ec if ec is None else ec.form
    if isinstance(form, QuadraticForm):
        form, _ = diagonalize(form)
    if form.rank % 2:
        raise ValueError("discriminant algebra needs even rank (odd rank has scalar centre)")
    ec = ec or EvenClifford(form)
    delta = signed_det(form)
    # the top monomial squares to exactly the signed determinant
    c, m = ec.mul_masks(ec.top_mask(), ec.top_mask())
    if m != 0 or c != delta:
        raise CliffinvError("centre generator square disagrees with the discriminant")
    cen = twisted_center(ec.algebra)  # the table of an EvenClifford is twisted
    if len(cen) != 2:
        raise CliffinvError("centre of an even-rank even Clifford algebra must have dim 2")
    return DiscriminantAlgebra(delta, bool(form.field.is_square(delta)))


@record
class SplitComponents:
    """The two factors, with their bases and idempotents as {mask: coef}
    rows of the even Clifford algebra."""

    plus: StructureAlgebra
    minus: StructureAlgebra
    plus_basis: list
    minus_basis: list
    idempotent_plus: dict
    idempotent_minus: dict


def split_components(form_or_ec) -> SplitComponents:
    """Cut C0 into its two factors along the split centre.

    The labelling is deterministic: the plus factor contains the
    idempotent (1 + z)/2 where z is the top monomial scaled so z^2 = 1
    by the canonical square root (positive over Q, least residue over
    F_p).

    For r = +-root, e = (1 + e_top/r)/2 has e e_top = r e, so e e_S and
    e e_(top xor S) are proportional; the factor's basis is e e_S for the
    first mask S of each such pair, its table read off monomial products.
    """
    ec = form_or_ec if isinstance(form_or_ec, EvenClifford) else even_clifford(form_or_ec)
    if ec.n % 2:
        raise ValueError("splitting needs even rank")
    delta = signed_det(ec.form)
    root = ec.field.sqrt(delta)
    if root is None or not root:
        raise CliffinvError("centre is nonsplit; discriminant is not a square")
    field = ec.field
    half = field.one() / field.from_int(2)
    top = ec.top_mask()
    firsts = [s for s in ec.masks if ec.index[s] < ec.index[top ^ s]]
    pos = {s: i for i, s in enumerate(firsts)}
    labels = tuple(f"c{i}" for i in range(len(firsts)))
    unit = [field.one()] + [field.zero()] * (len(firsts) - 1)
    comps = []
    bases = []
    for r in (root, -root):
        top_coeff = half / r
        basis = []
        for s in firsts:
            c, m = ec.mul_masks(top, s)
            basis.append({s: half, m: top_coeff * c})
        table = []
        for s in firsts:
            plane = []
            for t in firsts:
                c, u = ec.mul_masks(s, t)
                if u not in pos:
                    # e e_U = (r / c_top) e e_(top xor U), e_top e_(top xor U) = c_top e_U
                    c_top, _ = ec.mul_masks(top, top ^ u)
                    c, u = c * r / c_top, top ^ u
                plane.append(((pos[u], c),))
            table.append(plane)
        comps.append(StructureAlgebra(field, labels, table, unit))
        bases.append(basis)
    # e e_(empty set) is the idempotent itself
    plus_idem, minus_idem = dict(bases[0][0]), dict(bases[1][0])
    return SplitComponents(comps[0], comps[1], bases[0], bases[1], plus_idem, minus_idem)


def base_change(form: DiagonalForm, ring_map) -> DiagonalForm:
    """Entrywise image of the form under a ring map; kills nothing."""
    entries = []
    for a in form.entries:
        img = ring_map.apply(a)
        if not img:
            raise DegenerateFormError("base change sends an entry to zero")
        entries.append(img)
    return DiagonalForm(tuple(entries), ring_map.target)


@record(frozen=True)
class RingMap:
    target: object
    fn: object

    def apply(self, x):
        return self.fn(x)


def tables_commute(form: DiagonalForm, ring_map) -> bool:
    """Does the even Clifford table commute with the base change?"""
    ec = EvenClifford(form)
    ec2 = EvenClifford(base_change(form, ring_map))
    for s in ec.masks:
        for t in ec.masks:
            c, m = ec.mul_masks(s, t)
            c2, m2 = ec2.mul_masks(s, t)
            if m != m2 or ring_map.apply(c) != c2:
                return False
    return True


# ---------------------------------------------------------------------------
# Hyperbolic exterior model


def exterior_operators(r: int, field):
    """Contraction and wedge operators on the full exterior algebra.

    Returns (contractions, wedges) as column maps on the masks of the
    exterior basis: the interior product by the i-th dual basis vector,
    and left exterior multiplication by the i-th basis vector, both
    toggle bit i with the sign of the bits below it.
    """
    one = field.one()
    contract, wedge = [], []
    for i in range(r):
        bit = 1 << i
        signs = {m: -one if (m & (bit - 1)).bit_count() % 2 else one for m in range(1 << r)}
        contract.append({m: {m ^ bit: c} for m, c in signs.items() if m & bit})
        wedge.append({m: {m ^ bit: c} for m, c in signs.items() if not m & bit})
    return contract, wedge


@record
class HyperbolicModel:
    field: object
    even: EvenClifford
    ops: list  # ops[S], the operator of e_S on the exterior algebra

    def phi0(self, x):
        """The operator of the even element x, given as {mask: coef}."""
        return linalg.combine(list(x.values()), [self.ops[m] for m in x])


def hyperbolic_model(r: int) -> HyperbolicModel:
    """Even Clifford algebra of the rank-2r hyperbolic form over Q as
    operators on the parity-graded exterior algebra, with the odd part as
    the two Hom blocks.

    The generator t_i + v_j acts by contraction plus left wedging, so
    squares match the hyperbolic pairing.  Each diagonal generator is
    then a signed monomial map, and so is the operator of each e_S
    (`_operator_products`).  phi0 and phi1 send e_S to op(e_S) for S
    even and odd, and are certified on the operators alone:
    - op(e_S) keeps the exterior parity for |S| even and flips it for
      |S| odd, so phi0 lands in End(L0) x End(L1) and phi1 in the two Hom
      blocks, each of dimension 2^(2r-1), the number of masks of a parity;
    - the even operators are independent, and so are the odd ones, so
      phi0 and phi1 are bijective;
    - op(e_S) op(e_T) = c op(e_(S xor T)) where e_S e_T = c e_(S xor T),
      for every ordered pair with S or T even: phi0 is multiplicative and
      phi1 equivariant on both sides.  At S empty, with phi0 onto, this
      makes op(e_empty) the identity, so phi0 keeps the unit.
    """
    field = QQ
    if r < 1 or r > MAX_RANK // 2:
        raise ValueError(f"rank parameter r must be between 1 and {MAX_RANK // 2}")
    h = hyperbolic(r, field)
    diag, pmat = diagonalize(h)
    ec = EvenClifford(diag)
    bim = CliffordBimodule(ec)
    contract, wedge = exterior_operators(r, field)
    n = 2 * r
    gens = [linalg.combine([row[k] for row in pmat], contract + wedge) for k in range(n)]

    # Clifford relations for the operator assignment
    one = field.one()
    for k in range(n):
        if linalg.compose(gens[k], gens[k]) != {m: {m: diag.entries[k]} for m in range(1 << r)}:
            raise CliffinvError("operator square violates the form")
        for l in range(k + 1, n):
            anti = [linalg.compose(gens[k], gens[l]), linalg.compose(gens[l], gens[k])]
            if linalg.combine([one, one], anti):
                raise CliffinvError("operators fail to anticommute")

    ops = _operator_products(gens, r, field)
    for s, op in enumerate(ops):
        for col, terms in op.items():
            if any((row.bit_count() + col.bit_count() + s.bit_count()) % 2 for row in terms):
                raise CliffinvError("operator mixes parity blocks")
    for name, masks in (("phi0", ec.masks), ("phi1", bim.masks)):
        if not linalg.independent([ops[s] for s in masks], field):
            raise CliffinvError(f"{name} is not bijective")
    for s in range(1 << n):
        for t in range(1 << n):
            if s.bit_count() % 2 and t.bit_count() % 2:
                continue
            c, m = ec.mul_masks(s, t)
            if linalg.compose(ops[s], ops[t]) != linalg.combine([c], [ops[m]]):
                raise CliffinvError(
                    f"operators fail the product law at {_mask_label(s)}, {_mask_label(t)}"
                )
    return HyperbolicModel(field, ec, ops)


def _operator_products(gens, r, field):
    """ops[S], the operator of e_S for every mask S: the operator of S
    minus its top bit composed with that bit's generator operator."""
    ops = [{m: {m: field.one()} for m in range(1 << r)}]
    for s in range(1, 1 << len(gens)):
        top = s.bit_length() - 1
        ops.append(linalg.compose(ops[s ^ (1 << top)], gens[top]))
    return ops


# ---------------------------------------------------------------------------
# Orthogonal sum isomorphism


@record
class SumIsomorphism:
    morphism: AlgebraMorphism


def sum_isomorphism(q1: DiagonalForm, q2: DiagonalForm) -> SumIsomorphism:
    """The canonical map from C0 of an orthogonal sum onto
    C0 (x) C0' + C1 (x) C1', certified as a bijective homomorphism.

    The target multiplication uses the factor products on the even
    block, the bimodule actions between blocks, and the pairing with a
    sign on odd (x) odd times odd (x) odd.
    """
    if q1.field != q2.field:
        raise ValueError("summands must share a base field")
    field = q1.field
    n1, n2 = q1.rank, q2.rank
    total = DiagonalForm(q1.entries + q2.entries, field)
    ec = EvenClifford(total)

    e1, e2 = EvenClifford(q1), EvenClifford(q2)
    b1, b2 = CliffordBimodule(e1), CliffordBimodule(e2)

    # target basis: even (x) even block then odd (x) odd block
    block0 = [(s, t) for s in e1.masks for t in e2.masks]
    block1 = [(s, t) for s in b1.masks for t in b2.masks]
    dim0 = len(block0)
    basis = block0 + block1
    dim = len(basis)
    pos = {p: i for i, p in enumerate(basis)}  # even pairs, then odd pairs
    zero = field.zero()

    # e_(s1 t1) e_(s2 t2) by the factor products; odd (x) odd times odd (x)
    # odd, the pairing, flips the sign, read off the second factor
    (sg1, par1), (sg2, par2) = (e1._signed, e1._parity), (e2._signed, e2._parity)
    odd = [i >= dim0 for i in range(dim)]
    table = [
        [
            ((pos[s1 ^ t1, s2 ^ t2], sg1[par1[s1 << n1 | t1]][s1 & t1]
              * sg2[par2[s2 << n2 | t2] ^ (oi and oj)][s2 & t2]),)
            for (t1, t2), oj in zip(basis, odd)
        ]
        for (s1, s2), oi in zip(basis, odd)
    ]
    unit = [zero] * dim
    unit[pos[(0, 0)]] = field.one()
    labels = tuple(
        f"{_mask_label(s)}(x){_mask_label(t)}" for s, t in block0
    ) + tuple(f"{_mask_label(s)}(x){_mask_label(t)}'" for s, t in block1)
    target = StructureAlgebra(field, labels, table, unit)

    # e_a e_b (a < b) goes to the pair of its bits in q1 and in q2, and e_S
    # to the product of the images of its consecutive pairs of bits
    low, one, cols = (1 << n1) - 1, field.one(), {}
    for col, m in enumerate(ec.masks):
        idxs = [b for b in range(n1 + n2) if m >> b & 1]
        img = {pos[0, 0]: one}
        for a, b in zip(idxs[0::2], idxs[1::2]):
            g = (1 << a) | (1 << b)
            img = target.mul_rows(img.items(), ((pos[g & low, g >> n1], one),))
        cols[col] = img
    morphism = AlgebraMorphism(ec.algebra, target, cols)
    return SumIsomorphism(morphism)
