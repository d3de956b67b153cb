"""Even Clifford algebra and Clifford bimodule of a regular form.

Basis monomials e_S, the product of the e_i (i in S) in increasing
order, are indexed by bitmasks: even subsets span the even algebra, odd
subsets the bimodule.  Monomial products take one of two paths.

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
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebras import AlgebraMorphism, StructureAlgebra, center
from .errors import CliffinvError, DegenerateFormError
from .forms import DiagonalForm, QuadraticForm, diagonalize, hyperbolic, signed_det
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

    def mul_monomial_coords(self, x, x_masks, y, y_masks, index):
        """Product of coordinate vectors on monomial bases; index places the result.

        The even product, both bimodule actions and the pairing are this
        one product with different bases.
        """
        out = [self.field.zero()] * len(index)
        for xi, s in zip(x, x_masks):
            if not xi:
                continue
            for yj, t in zip(y, y_masks):
                if not yj:
                    continue
                c, m = self.mul_masks(s, t)
                k = index[m]
                out[k] = out[k] + xi * yj * c
        return out

    def unit_coords(self):
        v = [self.field.zero()] * self.dim
        v[self.index[0]] = self.field.one()
        return v

    def embed_pair(self, i: int, j: int):
        """Coordinates of the generator image of e_i (x) e_j."""
        v = [self.field.zero()] * self.dim
        if i == j:
            v[self.index[0]] = self.form.entries[i]
        elif i < j:
            v[self.index[(1 << i) | (1 << j)]] = self.field.one()
        else:
            v[self.index[(1 << i) | (1 << j)]] = -self.field.one()
        return v

    def generators(self):
        return [
            self.embed_pair(i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]

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
    """Odd-subset monomials with the two-sided even-algebra action."""

    def __init__(self, even: EvenClifford):
        self.even = even
        self.field = even.field
        self.n = even.n
        self.masks = _masks_by_parity(self.n, 1)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.dim = len(self.masks)

    def embed_vector(self, i: int):
        v = [self.field.zero()] * self.dim
        v[self.index[1 << i]] = self.field.one()
        return v

    def left_act(self, even_coords, odd_coords):
        """x * m with x in the even algebra."""
        ev = self.even
        return ev.mul_monomial_coords(even_coords, ev.masks, odd_coords, self.masks, self.index)

    def right_act(self, odd_coords, even_coords):
        """m . x with x in the even algebra."""
        ev = self.even
        return ev.mul_monomial_coords(odd_coords, self.masks, even_coords, ev.masks, self.index)

    def mult(self, x, y):
        """The pairing m: C1 x C1 -> C0 (value line trivialised)."""
        ev = self.even
        return ev.mul_monomial_coords(x, self.masks, y, self.masks, ev.index)


def even_clifford(form) -> EvenClifford:
    """Even Clifford algebra; non-diagonal input is diagonalised first."""
    if isinstance(form, QuadraticForm):
        form, _ = diagonalize(form)
    return EvenClifford(form)


def clifford_bimodule(form) -> CliffordBimodule:
    return CliffordBimodule(even_clifford(form))


@dataclass(frozen=True)
class DiscriminantAlgebra:
    """The centre of the even Clifford algebra of an even-rank form."""

    field: object
    delta: object
    split: bool

    def __repr__(self):
        return f"DiscriminantAlgebra(x^2 - ({self.delta}), split={self.split})"


def discriminant_algebra(form) -> DiscriminantAlgebra:
    """Centre presented as F[x]/(x^2 - delta), delta the signed discriminant."""
    if isinstance(form, QuadraticForm):
        form, _ = diagonalize(form)
    if form.rank % 2:
        raise ValueError("discriminant algebra needs even rank (odd rank has scalar centre)")
    ec = EvenClifford(form)
    delta = signed_det(form)
    # the top monomial squares to exactly the signed determinant
    c, m = ec.mul_masks(ec.top_mask(), ec.top_mask())
    if m != 0 or c != delta:
        raise CliffinvError("centre generator square disagrees with the discriminant")
    cen = center(ec.algebra, ec.generators())
    if len(cen) != 2:
        raise CliffinvError("centre of an even-rank even Clifford algebra must have dim 2")
    return DiscriminantAlgebra(form.field, delta, bool(form.field.is_square(delta)))


@dataclass
class SplitComponents:
    plus: StructureAlgebra
    minus: StructureAlgebra
    plus_basis: list
    minus_basis: list
    idempotent_plus: list
    idempotent_minus: list


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
            vec = [field.zero()] * ec.dim
            vec[ec.index[s]] = half
            c, m = ec.mul_masks(top, s)
            vec[ec.index[m]] = top_coeff * c
            basis.append(vec)
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
    plus_idem, minus_idem = list(bases[0][0]), list(bases[1][0])
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


@dataclass(frozen=True)
class RingMap:
    source: object
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


def _exterior_matrix(i, masks, index, field, wedge: bool):
    """Left exterior multiplication by the i-th basis vector (wedge), or
    the interior product by the i-th dual basis vector, on the exterior
    algebra: both toggle bit i with the sign of the bits below it."""
    mat = [[field.zero()] * len(masks) for _ in masks]
    for col, m in enumerate(masks):
        if bool(m >> i & 1) != wedge:
            below = (m & ((1 << i) - 1)).bit_count()
            mat[index[m ^ (1 << i)]][col] = field.one() if below % 2 == 0 else -field.one()
    return mat


def exterior_operators(r: int, field):
    """Contraction and wedge matrices on the full exterior algebra.

    Returns (masks, contractions, wedges) with masks ordered by degree
    then value; operator index i refers to the i-th basis vector of the
    underlying rank-r module.
    """
    masks = sorted(range(1 << r), key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(masks)}
    contract = [_exterior_matrix(i, masks, index, field, False) for i in range(r)]
    wedge = [_exterior_matrix(i, masks, index, field, True) for i in range(r)]
    return masks, contract, wedge


def product_algebra(a: StructureAlgebra, b: StructureAlgebra) -> StructureAlgebra:
    """Direct product A x B with componentwise multiplication."""
    if a.field != b.field:
        raise ValueError("product needs a common base field")
    field = a.field
    table = [list(plane) + [()] * b.dim for plane in a.table]
    table += [
        [()] * a.dim + [[(a.dim + k, c) for k, c in row] for row in plane] for plane in b.table
    ]
    labels = tuple(f"L.{x}" for x in a.labels) + tuple(f"R.{x}" for x in b.labels)
    unit = list(a.unit) + list(b.unit)
    return StructureAlgebra(field, labels, table, unit)


@dataclass
class HyperbolicModel:
    rank: int
    field: object
    form: QuadraticForm
    even: EvenClifford
    bimodule: CliffordBimodule
    plus_masks: tuple
    minus_masks: tuple
    clifford_ops: list  # operator matrices of the diagonalised generators
    phi0: AlgebraMorphism
    phi1_matrix: list
    target: StructureAlgebra


def hyperbolic_model(r: int) -> HyperbolicModel:
    """Even Clifford algebra of the rank-2r hyperbolic form over Q as
    operators on the parity-graded exterior algebra, with the odd part as
    the two Hom blocks.

    The generator t_i + v_j acts by contraction plus left wedging, so
    squares match the hyperbolic pairing; the assembled map is certified
    to be a bijective algebra homomorphism before being returned.
    """
    field = QQ
    if r < 1 or r > 4:
        raise ValueError("rank parameter r must be between 1 and 4")
    h = hyperbolic(r, field)
    diag, pmat = diagonalize(h)
    ec = EvenClifford(diag)
    bim = CliffordBimodule(ec)

    all_masks, contract, wedge = exterior_operators(r, field)
    full_index = {m: i for i, m in enumerate(all_masks)}

    n = 2 * r
    ops = []
    for k in range(n):
        acc = [[field.zero()] * (1 << r) for _ in range(1 << r)]
        for i in range(n):
            c = pmat[i][k]
            if not c:
                continue
            base = contract[i] if i < r else wedge[i - r]
            for rr in range(1 << r):
                row = base[rr]
                arow = acc[rr]
                for cc in range(1 << r):
                    if row[cc]:
                        arow[cc] = arow[cc] + c * row[cc]
        ops.append(acc)

    # Clifford relations for the operator assignment
    for k in range(n):
        sq = linalg.matmul(ops[k], ops[k], field)
        expect = diag.entries[k]
        for i in range(1 << r):
            for j in range(1 << r):
                want = expect if i == j else field.zero()
                if sq[i][j] != want:
                    raise CliffinvError("operator square violates the form")
    for k in range(n):
        for l in range(k + 1, n):
            anti = linalg.matmul(ops[k], ops[l], field)
            anti2 = linalg.matmul(ops[l], ops[k], field)
            for i in range(1 << r):
                for j in range(1 << r):
                    if anti[i][j] + anti2[i][j]:
                        raise CliffinvError("operators fail to anticommute")

    plus_masks = tuple(m for m in all_masks if m.bit_count() % 2 == 0)
    minus_masks = tuple(m for m in all_masks if m.bit_count() % 2 == 1)
    plus_pos = {m: i for i, m in enumerate(plus_masks)}
    minus_pos = {m: i for i, m in enumerate(minus_masks)}
    mdim = 1 << (r - 1)

    def op_product(mask):
        mat = linalg.identity(1 << r, field)
        for b in range(n):
            if mask >> b & 1:
                mat = linalg.matmul(mat, ops[b], field)
        return mat

    def even_blocks(mat):
        plus = [[mat[full_index[mi]][full_index[mj]] for mj in plus_masks] for mi in plus_masks]
        minus = [[mat[full_index[mi]][full_index[mj]] for mj in minus_masks] for mi in minus_masks]
        return plus, minus

    def odd_blocks(mat):
        to_minus = [[mat[full_index[mi]][full_index[mj]] for mj in plus_masks] for mi in minus_masks]
        to_plus = [[mat[full_index[mi]][full_index[mj]] for mj in minus_masks] for mi in plus_masks]
        return to_minus, to_plus

    from .algebras import matrix_algebra

    target = product_algebra(matrix_algebra(mdim, field), matrix_algebra(mdim, field))

    cols0 = []
    for m in ec.masks:
        mat = op_product(m)
        for mi in plus_masks:
            for mj in minus_masks:
                if mat[full_index[mi]][full_index[mj]] or mat[full_index[mj]][full_index[mi]]:
                    raise CliffinvError("even operator mixes parity blocks")
        plus, minus = even_blocks(mat)
        flat = [plus[i][j] for i in range(mdim) for j in range(mdim)]
        flat += [minus[i][j] for i in range(mdim) for j in range(mdim)]
        cols0.append(flat)
    phi0_matrix = [[cols0[j][i] for j in range(ec.dim)] for i in range(target.dim)]
    phi0 = AlgebraMorphism(ec.algebra, target, tuple(tuple(r_) for r_ in phi0_matrix))
    if not phi0.is_isomorphism():
        raise CliffinvError("hyperbolic model map failed certification")

    cols1 = []
    for m in bim.masks:
        mat = op_product(m)
        to_minus, to_plus = odd_blocks(mat)
        flat = [to_minus[i][j] for i in range(mdim) for j in range(mdim)]
        flat += [to_plus[i][j] for i in range(mdim) for j in range(mdim)]
        cols1.append(flat)
    phi1_matrix = [[cols1[j][i] for j in range(bim.dim)] for i in range(2 * mdim * mdim)]
    if linalg.rank(phi1_matrix, field) != bim.dim:
        raise CliffinvError("odd-part map is not bijective")

    model = HyperbolicModel(
        rank=r,
        field=field,
        form=h,
        even=ec,
        bimodule=bim,
        plus_masks=plus_masks,
        minus_masks=minus_masks,
        clifford_ops=ops,
        phi0=phi0,
        phi1_matrix=phi1_matrix,
        target=target,
    )
    _certify_phi1_equivariance(model)
    return model


def _phi1_apply(model: HyperbolicModel, odd_coords):
    field = model.field
    out = [field.zero()] * len(model.phi1_matrix)
    for j, c in enumerate(odd_coords):
        if c:
            for i in range(len(out)):
                if model.phi1_matrix[i][j]:
                    out[i] = out[i] + c * model.phi1_matrix[i][j]
    return out


def _certify_phi1_equivariance(model: HyperbolicModel):
    """phi1 of the module actions must match operator composition."""
    field = model.field
    mdim = 1 << (model.rank - 1)
    ec, bim = model.even, model.bimodule

    def blocks(vec):
        """The two mdim x mdim blocks of a flattened image."""
        off = mdim * mdim
        first = [vec[i * mdim : (i + 1) * mdim] for i in range(mdim)]
        return first, [vec[off + i * mdim : off + (i + 1) * mdim] for i in range(mdim)]

    def phi1(odd_coords):
        return blocks(_phi1_apply(model, odd_coords))

    for e in linalg.identity(ec.dim, field):
        pb, mb = blocks(model.phi0.apply(e))
        for o in linalg.identity(bim.dim, field):
            tm, tp = phi1(o)
            # left action: operators compose on the left
            lm, lp = phi1(bim.left_act(e, o))
            if lm != linalg.matmul(mb, tm, field) or lp != linalg.matmul(pb, tp, field):
                raise CliffinvError("odd map fails left equivariance")
            rm, rp = phi1(bim.right_act(o, e))
            if rm != linalg.matmul(tm, pb, field) or rp != linalg.matmul(tp, mb, field):
                raise CliffinvError("odd map fails right equivariance")


# ---------------------------------------------------------------------------
# Orthogonal sum isomorphism


@dataclass
class SumIsomorphism:
    morphism: AlgebraMorphism
    target: StructureAlgebra
    left: EvenClifford
    right: EvenClifford


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

    def gen_image(i, j):
        """Image of the generator e_i e_j (i < j) of the big algebra."""
        v = [zero] * dim
        if j < n1:
            v[pos[((1 << i) | (1 << j), 0)]] = field.one()
        elif i >= n1:
            v[pos[(0, (1 << (i - n1)) | (1 << (j - n1)))]] = field.one()
        else:
            v[pos[(1 << i, 1 << (j - n1))]] = field.one()
        return v

    cols = []
    for m in ec.masks:
        idxs = [b for b in range(n1 + n2) if m >> b & 1]
        img = list(unit)
        for a, b in zip(idxs[0::2], idxs[1::2]):
            img = target.mul(img, gen_image(a, b))
        cols.append(img)
    matrix = tuple(tuple(cols[j][i] for j in range(ec.dim)) for i in range(dim))
    morphism = AlgebraMorphism(ec.algebra, target, matrix)
    return SumIsomorphism(morphism, target, e1, e2)
