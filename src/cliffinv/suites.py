"""Named verification suites behind the acceptance criteria.

Every suite is a pair (generator, runner): the generator expands a seed
into a list of plain-data case payloads, the runner executes one case
and returns None or a failure witness string.  Reports are therefore
reproducible bit for bit from (suite, seed); wall time is measured but
excluded from the canonical serialisation.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import cache

from .records import record


@record
class VerificationReport:
    suite: str
    seed: int
    cases: int
    failures: list
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "cases": self.cases,
            "failures": self.failures,
        }

    def canonical(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


_GENERATORS = {}
_RUNNERS = {}


def _suite(name):
    def deco(genfn):
        _GENERATORS[name] = genfn
        return genfn

    return deco


def _runner(name):
    def deco(runfn):
        _RUNNERS[name] = runfn
        return runfn

    return deco


def suite_names():
    return sorted(_GENERATORS)


def _field_of_tag(tag):
    from .scalars import GF, QQ

    return QQ if tag == 0 else GF(tag)


def _entries_of(tag, ints):
    field = _field_of_tag(tag)
    return tuple(field.from_int(x) for x in ints)


def _rand_entries(rng, tag, rank):
    if tag == 0:
        return [rng.choice([x for x in range(-9, 10) if x]) for _ in range(rank)]
    return [rng.randint(1, tag - 1) for _ in range(rank)]


def _rand_i2_rank4(rng):
    vals = [x for x in range(-9, 10) if x]
    a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
    return [a, b, c, a * b * c]


# --- 1 -----------------------------------------------------------------


@_suite("clifford-dims")
def _gen_dims(seed):
    rng = random.Random(seed)
    fields = [0, 3, 5, 7, 11]
    out = []
    for i in range(200):
        tag = fields[i % len(fields)]
        rank = rng.randint(1, 7)
        out.append((tag, _rand_entries(rng, tag, rank)))
    return out


@_runner("clifford-dims")
def _run_dims(payload):
    from .clifford import CliffordBimodule, EvenClifford
    from .forms import DiagonalForm

    tag, ints = payload
    field = _field_of_tag(tag)
    form = DiagonalForm(_entries_of(tag, ints), field)
    n = form.rank
    ec = EvenClifford(form)
    bim = CliffordBimodule(ec)
    want = 2 ** (n - 1)
    if ec.dim != want or bim.dim != want:
        return f"dims {ec.dim}/{bim.dim} != {want} for {ints}"
    # exchange identity on generators: j(u).i(v@w) = i(u@v)*j(w)
    for u in range(n):
        ju = bim.embed_vector(u)
        for v in range(n):
            for w in range(n):
                lhs = ec.mul(ju, ec.embed_pair(v, w))
                rhs = ec.mul(ec.embed_pair(u, v), bim.embed_vector(w))
                if lhs != rhs:
                    return f"exchange identity fails at ({u},{v},{w}) on {ints}"
    return None


# --- 2 -----------------------------------------------------------------


@_suite("center-law")
def _gen_center(seed):
    rng = random.Random(seed + 1)
    fields = [0, 3, 5, 7, 11]
    out = []
    for i in range(200):
        tag = fields[i % len(fields)]
        rank = rng.randint(1, 7)
        out.append((tag, _rand_entries(rng, tag, rank)))
    return out


@_runner("center-law")
def _run_center(payload):
    from .algebras import center
    from .clifford import EvenClifford, discriminant_algebra
    from .forms import DiagonalForm, signed_discriminant
    from .scalars import square_class

    tag, ints = payload
    field = _field_of_tag(tag)
    form = DiagonalForm(_entries_of(tag, ints), field)
    ec = EvenClifford(form)
    cen = center(ec.algebra)
    support = {ec.index[0]} if ec.n % 2 else {ec.index[0], ec.index[ec.top_mask()]}
    if any(x for v in cen for i, x in enumerate(v) if i not in support):
        return f"centre leaves the span of 1 and the top monomial on {ints}"
    if form.rank % 2:
        return None if len(cen) == 1 else f"odd rank centre dim {len(cen)} on {ints}"
    if len(cen) != 2:
        return f"even rank centre dim {len(cen)} on {ints}"
    da = discriminant_algebra(ec)
    if square_class(da.delta) != signed_discriminant(form):
        return f"centre delta mismatch on {ints}"
    return None


# --- 3 -----------------------------------------------------------------


@_suite("disc-additivity")
def _gen_disc(seed):
    rng = random.Random(seed + 2)
    out = []
    for i in range(100):
        tag = [0, 3, 7][i % 3]
        r1, r2 = 2 * rng.randint(1, 3), 2 * rng.randint(1, 2)
        out.append((tag, _rand_entries(rng, tag, r1), _rand_entries(rng, tag, r2)))
    return out


@_runner("disc-additivity")
def _run_disc(payload):
    from .forms import DiagonalForm, orthogonal_sum, signed_discriminant

    tag, i1, i2 = payload
    field = _field_of_tag(tag)
    q1 = DiagonalForm(_entries_of(tag, i1), field)
    q2 = DiagonalForm(_entries_of(tag, i2), field)
    lhs = signed_discriminant(orthogonal_sum(q1, q2))
    rhs = signed_discriminant(q1) * signed_discriminant(q2)
    return None if lhs == rhs else f"disc additivity fails on {i1} + {i2}"


# --- 4 -----------------------------------------------------------------


@_suite("components-equal")
def _gen_components(seed):
    rng = random.Random(seed + 3)
    return [(_rand_i2_rank4(rng),) for _ in range(50)]


@_runner("components-equal")
def _run_components(payload):
    from .brauer import class_of_algebra
    from .clifford import split_components
    from .forms import DiagonalForm
    from .scalars import QQ

    (ints,) = payload
    form = DiagonalForm(tuple(Fraction(x) for x in ints), QQ)
    sc = split_components(form)
    plus = class_of_algebra(sc.plus)
    minus = class_of_algebra(sc.minus)
    return None if plus == minus else f"component classes differ on {ints}"


# --- 5 -----------------------------------------------------------------


@_suite("e2-additivity")
def _gen_e2add(seed):
    rng = random.Random(seed + 4)
    return [(_rand_i2_rank4(rng), _rand_i2_rank4(rng)) for _ in range(50)]


@_runner("e2-additivity")
def _run_e2add(payload):
    from .forms import DiagonalForm
    from .invariants import e2_additivity_check
    from .scalars import QQ

    i1, i2 = payload
    q1 = DiagonalForm(tuple(Fraction(x) for x in i1), QQ)
    q2 = DiagonalForm(tuple(Fraction(x) for x in i2), QQ)
    return None if e2_additivity_check(q1, q2) else f"e2 additivity fails on {i1}+{i2}"


# --- 6 -----------------------------------------------------------------


@_suite("sum-isomorphism")
def _gen_sumiso(seed):
    rng = random.Random(seed + 5)
    out = []
    for tag in (0, 3):
        for n1 in range(1, 6):
            for n2 in range(1, 7 - n1):
                out.append(
                    (tag, _rand_entries(rng, tag, n1), _rand_entries(rng, tag, n2))
                )
    return out


@_runner("sum-isomorphism")
def _run_sumiso(payload):
    from .clifford import sum_isomorphism
    from .forms import DiagonalForm

    tag, i1, i2 = payload
    field = _field_of_tag(tag)
    q1 = DiagonalForm(_entries_of(tag, i1), field)
    q2 = DiagonalForm(_entries_of(tag, i2), field)
    si = sum_isomorphism(q1, q2)
    if not si.morphism.preserves_unit():
        return f"unit not preserved for {i1}+{i2} (tag {tag})"
    if not si.morphism.is_bijective():
        return f"map not bijective for {i1}+{i2} (tag {tag})"
    if not si.morphism.is_multiplicative():
        return f"map not multiplicative for {i1}+{i2} (tag {tag})"
    return None


# --- 7 -----------------------------------------------------------------


@_suite("metabolic-splitting")
def _gen_metabolic(seed):
    return [(1,), (2,), (3,)]


@_runner("metabolic-splitting")
def _run_metabolic(payload):
    from . import linalg
    from .algebras import is_split_quaternion
    from .brauer import class_of_algebra
    from .clifford import hyperbolic_model, split_components

    (r,) = payload
    hm = hyperbolic_model(r)
    sc = split_components(hm.even)
    mdim = 2 ** (r - 1)
    if sc.plus.dim != mdim * mdim or sc.minus.dim != mdim * mdim:
        return f"component dims wrong at r={r}"
    # the iso onto End x End must send each idempotent to a block identity
    one = hm.field.one()
    ids = [{m: {m: one} for m in range(1 << r) if m.bit_count() % 2 == p} for p in (0, 1)]
    if [hm.phi0(sc.idempotent_plus), hm.phi0(sc.idempotent_minus)] not in (ids, ids[::-1]):
        return f"idempotents do not map to the block identities at r={r}"
    # each component maps bijectively onto its End block
    for basis in (sc.plus_basis, sc.minus_basis):
        if not linalg.independent([hm.phi0(v) for v in basis], hm.field):
            return f"component does not map onto a full End block at r={r}"
    if r == 2:
        if not (is_split_quaternion(sc.plus) and is_split_quaternion(sc.minus)):
            return "rank-4 hyperbolic component not a split quaternion"
        if not class_of_algebra(sc.plus).is_trivial():
            return "rank-4 hyperbolic component has nontrivial class"
    return None


# --- 8 -----------------------------------------------------------------


@_suite("hyperbolic-model")
def _gen_hypmodel(seed):
    rng = random.Random(seed + 7)
    out = []
    for r in (1, 2, 3):
        tvec = [rng.randint(-3, 3) for _ in range(r)]
        vvec = [rng.randint(-3, 3) for _ in range(r)]
        out.append((r, tvec, vvec))
    return out


@_runner("hyperbolic-model")
def _run_hypmodel(payload):
    from . import linalg
    from .clifford import exterior_operators, hyperbolic_model
    from .scalars import QQ

    r, tvec, vvec = payload
    hyperbolic_model(r)  # certifies phi0/phi1 internally
    field = QQ
    contract, wedge = exterior_operators(r, field)
    dt = linalg.combine([field.from_int(c) for c in tvec], contract)
    lv = linalg.combine([field.from_int(c) for c in vvec], wedge)
    if linalg.compose(dt, dt):
        return f"contraction squared nonzero at r={r}"
    if linalg.compose(lv, lv):
        return f"wedge squared nonzero at r={r}"
    s = linalg.combine([field.one()] * 2, [dt, lv])
    pairing = field.zero()
    for tc, vc in zip(tvec, vvec):
        pairing = pairing + field.from_int(tc) * field.from_int(vc)
    want = {m: {m: pairing} for m in range(1 << r)} if pairing else {}
    if linalg.compose(s, s) != want:
        return f"Cartan identity fails at r={r}"
    return None


# --- 9 -----------------------------------------------------------------


@_suite("norm-roundtrip")
def _gen_norm(seed):
    rng = random.Random(seed + 8)
    vals = [x for x in range(-50, 51) if x]
    return [(rng.choice(vals), rng.choice(vals)) for _ in range(20)]


@_runner("norm-roundtrip")
def _run_norm(payload):
    from .exceptional import norm_roundtrip_check

    a, b = payload
    ok = norm_roundtrip_check(Fraction(a), Fraction(b))
    return None if ok else f"norm round trip fails on ({a},{b})"


# --- 10 ----------------------------------------------------------------


@_suite("pfaffian-roundtrip")
def _gen_pfaff(seed):
    rng = random.Random(seed + 9)
    vals = [x for x in range(-9, 10) if x]
    return [tuple(rng.choice(vals) for _ in range(4)) for _ in range(10)]


@_runner("pfaffian-roundtrip")
def _run_pfaff(payload):
    from .exceptional import pfaffian_roundtrip_check

    a, b, c, d = payload
    ok = pfaffian_roundtrip_check(Fraction(a), Fraction(b), Fraction(c), Fraction(d))
    return None if ok else f"pfaffian round trip fails on {payload}"


# --- 11 ----------------------------------------------------------------


@_suite("surjectivity")
def _gen_surj(seed):
    from itertools import combinations

    names = ["2", "3", "5", "7", "11", "inf"]
    out = []
    for r in range(0, 7, 2):
        for combo in combinations(names, r):
            out.append((list(combo),))
    return out


@_runner("surjectivity")
def _run_surj(payload):
    from .brauer import BrauerClass2
    from .invariants import construct_preimage, e2_of_form

    (names,) = payload
    target = BrauerClass2.from_strs(names)
    q = construct_preimage(target)
    got = e2_of_form(q)
    return None if got == target else f"preimage of {names} has class {got!r}"


# --- 12 ----------------------------------------------------------------


@_suite("hilbert-product")
def _gen_hilbert(seed):
    rng = random.Random(seed + 11)
    out = []
    for _ in range(1000):
        a = rng.randint(-(10**4), 10**4) or 3
        b = rng.randint(-(10**4), 10**4) or 5
        out.append((a, b))
    return out


@_runner("hilbert-product")
def _run_hilbert(payload):
    from .scalars import product_formula_check

    a, b = payload
    return None if product_formula_check(a, b) else f"product formula fails on ({a},{b})"


# --- 13 ----------------------------------------------------------------


def _curated_extended():
    """Ten forms over Q(t) with vanishing residues, as coefficient lists.

    Each entry is a list of (num_coeffs, den_coeffs) pairs, low degree
    first.
    """
    one = [1]
    return [
        [([2], one), ([-3], one), ([5], one)],
        [([0, 1], one), ([0, -1], one)],
        [([1, 0, 1], one), ([-1, 0, -1], one)],
        [([5, 0, 5], one), ([-5, 0, -5], one), ([7], one)],
        [([2, 0, 2], one), ([2, 0, 2], one)],  # -1 is a square at t^2+1
        [([6, 0, 3], one), ([12, 0, 6], one)],  # -1/2 ~ -2 square at t^2+2
        [([-2, 0, 1], one), ([4, 0, -2], one)],  # 1/2 ~ 2 square at t^2-2
        [([0, 1], one), ([0, -1], one), ([1, 0, 1], one), ([-1, 0, -1], one)],
        [([6], one), ([-2], one), ([10], one), ([-30], one)],
        [([2, 0, 3, 0, 1], one), ([-2, 0, -3, 0, -1], one)],  # (t^2+1)(t^2+2)
    ]


@_suite("milnor-residues")
def _gen_milnor(seed):
    rng = random.Random(seed + 12)
    out = []
    for _ in range(20):
        rank = rng.randint(1, 4)
        entries = []
        for _ in range(rank):
            deg = rng.randint(0, 3)
            while True:
                coeffs = [rng.randint(-4, 4) for _ in range(deg + 1)]
                if any(coeffs):
                    break
            entries.append((coeffs, [1]))
        out.append(("reciprocity", entries))
    for i in range(len(_curated_extended())):
        out.append(("extended", i))
    return out


@_runner("milnor-residues")
def _run_milnor(payload):
    from .forms import DiagonalForm
    from .polys import Poly
    from .residues import certify_extended_from_base, milnor_reciprocity_check
    from .scalars import QQ, RatFunc, RationalFunctionField

    kind, data = payload
    ff = RationalFunctionField(QQ)
    if kind == "extended":
        data = _curated_extended()[data]
    entries = tuple(
        RatFunc(Poly.from_int_coeffs(num, QQ), Poly.from_int_coeffs(den, QQ))
        for num, den in data
    )
    q = DiagonalForm(entries, ff)
    if kind == "reciprocity":
        return None if milnor_reciprocity_check(q) else f"reciprocity fails on {data}"
    return None if certify_extended_from_base(q) else f"extension certificate fails on case {payload}"


# --- 14 ----------------------------------------------------------------


@cache
def _dedekind_catalog():
    """Deterministic rank <= 4 catalogue of ideal-valued forms (d = -5), built once."""
    from .dedekind import FracIdeal, QuadOrder, hyperbolic_ideal_form, ideal_orthogonal_sum, twist_by_alignment

    order = QuadOrder(-5)
    k = order.field
    one = order.one_ideal()
    p2 = FracIdeal.from_generators(order, [k.from_int(2), order.element(1, 1)])
    p3 = FracIdeal.from_generators(order, [k.from_int(3), order.element(-1, 1)])
    values = [one, p2]
    rank1 = [[one], [p2], [p2.inverse()], [p3]]
    rank2 = [[one, one], [one, p2], [p2, p2], [one, p3], [p2, p3]]
    forms = []
    for value in values:
        for coeffs in rank1 + rank2:
            forms.append(hyperbolic_ideal_form(order, coeffs, value))
    h = hyperbolic_ideal_form(order, [one], one)
    forms.append(ideal_orthogonal_sum(h, h))
    forms.append(twist_by_alignment(h, p2, k.one() / k.from_int(2)))
    forms.append(
        twist_by_alignment(
            hyperbolic_ideal_form(order, [one], p2), p2, k.one() / k.from_int(2)
        )
    )
    return tuple(forms)


@_suite("dedekind-layer")
def _gen_dedekind(seed):
    out = [("clgrp",), ("order-split",), ("normalize",)]
    out.extend(("catalog", i) for i in range(len(_dedekind_catalog())))
    out.extend(("reduction", p) for p in (3, 7, 23))
    out.extend(("semisimple", p) for p in (3, 7, 23, 29, 41, 43, 47))
    return out


@_runner("dedekind-layer")
def _run_dedekind(payload):
    from .algebras import central_idempotents
    from .dedekind import (
        FracIdeal,
        QuadOrder,
        class_group_mod_squares,
        even_clifford_order,
        hyperbolic_ideal_form,
        normalize_to_representative,
        order_reduction_semisimple,
        reduction_commutes,
    )
    from .errors import ClosureViolation

    order = QuadOrder(-5)
    k = order.field
    one = order.one_ideal()
    p2 = FracIdeal.from_generators(order, [k.from_int(2), order.element(1, 1)])
    kind = payload[0]
    if kind == "clgrp":
        labels = [r.label() for r in class_group_mod_squares(order)]
        return None if labels == ["O", "(2,1+1w)"] else f"Cl/2 reps are {labels}"
    if kind == "order-split":
        h = hyperbolic_ideal_form(order, [one], p2)
        co = even_clifford_order(h)
        if co.algebra.dim != 2:
            return "order has wrong dimension"
        ids = central_idempotents(co.algebra)
        if len(ids) != 4:
            return "centre did not split"
        if any(c != one for c in co.coeff_ideals):
            return "coefficient ideals are not trivial"
        # nontrivial idempotents must be integral for the order to be O x O
        unit_like = [e for e in ids if any(e) and e != list(co.algebra.unit)]
        for e in unit_like:
            for coord in e:
                if coord.a.denominator != 1 or coord.b.denominator != 1:
                    return "idempotent is not integral"
        return None
    if kind == "normalize":
        p2cubed = p2 * p2 * p2
        h3 = hyperbolic_ideal_form(order, [one], p2cubed)
        rep, _ = normalize_to_representative(h3, class_group_mod_squares(order))
        return None if rep == p2 else f"p2^3 normalised to {rep.label()}"
    if kind == "catalog":
        try:
            co = even_clifford_order(_dedekind_catalog()[payload[1]])
        except ClosureViolation as e:
            return f"closure violation: {e}"
        return None
    if kind == "reduction":
        h4 = hyperbolic_ideal_form(order, [one, one], p2)
        return None if reduction_commutes(h4, payload[1]) else f"reduction fails at {payload[1]}"
    if kind == "semisimple":
        h4 = hyperbolic_ideal_form(order, [one, one], p2)
        co = even_clifford_order(h4)
        ok = order_reduction_semisimple(co, payload[1])
        return None if ok else f"reduction mod {payload[1]} not semisimple"
    return f"unknown case {payload!r}"


# --- harness -----------------------------------------------------------


def _run_one(runner, payload):
    try:
        return runner(payload)
    except Exception as e:  # a crash is a failure witness, not a crash of the suite
        return f"{type(e).__name__}: {e}"


def run_suite(name: str, seed: int = 0) -> VerificationReport:
    """Run a named suite; deterministic for fixed (name, seed)."""
    if name not in _GENERATORS:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    payloads = _GENERATORS[name](seed)
    t0 = time.perf_counter()
    results = [_run_one(_RUNNERS[name], p) for p in payloads]
    failures = [
        {"case": i, "witness": w} for i, w in enumerate(results) if w is not None
    ]
    return VerificationReport(
        suite=name,
        seed=seed,
        cases=len(payloads),
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )
