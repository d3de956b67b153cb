"""Command-line front end.

One binary, subcommands grouped by module.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 resource bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import jsonio
from .errors import CliffinvError, DegenerateFormError, FactorBoundExceeded, SearchExhausted
from .scalars import GF, QQ


def _parse_base(s: str):
    if s in ("Q", "QQ"):
        return QQ
    if s.startswith("F"):
        return GF(int(s.lstrip("F_")))
    raise jsonio.ParseError("base", f"unknown base {s!r} (use Q or F<p>)")


def _required(args, *names):
    """The values of the options names, as typed ("-a", "--left"); a missing
    one is a usage error that names it."""
    vals = [getattr(args, n.lstrip("-").replace("-", "_")) for n in names]
    missing = [n for n, v in zip(names, vals) if v is None]
    if missing:
        raise ValueError("missing " + ", ".join(missing))
    return vals


def _parse_entries(s: str, field):
    return tuple(field.elt_from_str(tok.strip()) for tok in s.split(","))


def _load_form(args):
    from .forms import DiagonalForm

    if getattr(args, "file", None):
        with open(args.file) as fh:
            return jsonio.form_from_json(json.load(fh))
    field = _parse_base(args.base)
    return DiagonalForm(_parse_entries(*_required(args, "--entries"), field), field)


def _emit(args, obj, text):
    if getattr(args, "json", False):
        payload = obj if isinstance(obj, dict) else jsonio.to_json(obj)
        sys.stdout.write(jsonio.canonical_dumps(payload))
    else:
        print(text)


def _cmd_qf(args):
    from .forms import diagonalize, signed_discriminant, witt_decompose

    q = _load_form(args)
    if args.op == "diag":
        d, _ = diagonalize(q)
        _emit(args, d, jsonio.render_table(d))
    elif args.op == "witt":
        w = witt_decompose(q)
        out = {
            "kernel": [q.field.elt_to_str(a) for a in w.kernel],
            "index": w.index,
        }
        _emit(args, out, f"witt index {w.index}, kernel rank {len(w.kernel)}")
    elif args.op == "disc":
        d = signed_discriminant(q)
        _emit(args, {"square_class": repr(d)}, f"signed discriminant: {d!r}")
    return 0


def _cmd_alg(args):
    from .algebras import center, central_idempotents, quaternion

    if args.op == "quaternion":
        field = _parse_base(args.base)
        a = quaternion(*(field.elt_from_str(x) for x in _required(args, "a", "b")), field)
        _emit(args, a, jsonio.render_table(a))
        return 0
    with open(*_required(args, "--file")) as fh:
        alg = jsonio.algebra_from_json(json.load(fh))
    if args.op == "center":
        c = center(alg)
        out = {"dimension": len(c), "basis": [[alg.field.elt_to_str(x) for x in v] for v in c]}
        _emit(args, out, f"centre dimension {len(c)}")
    elif args.op == "idempotents":
        ids = central_idempotents(alg)
        out = {"count": len(ids), "idempotents": [[alg.field.elt_to_str(x) for x in v] for v in ids]}
        _emit(args, out, f"{len(ids)} central idempotents")
    return 0


def _cmd_cliff(args):
    from .algebras import center
    from .clifford import CliffordBimodule, even_clifford, split_components, sum_isomorphism
    from .forms import DiagonalForm

    if args.op == "sum-check":
        field = _parse_base(args.base)
        left, right = _required(args, "--left", "--right")
        q1 = DiagonalForm(_parse_entries(left, field), field)
        q2 = DiagonalForm(_parse_entries(right, field), field)
        si = sum_isomorphism(q1, q2)
        ok = si.morphism.is_isomorphism()
        _emit(args, {"isomorphism": ok}, f"sum map is{'' if ok else ' NOT'} an isomorphism")
        return 0 if ok else 1
    q = _load_form(args)
    ec = even_clifford(q)
    if args.op == "even":
        _emit(args, ec.algebra, jsonio.render_table(ec.algebra))
    elif args.op == "bimodule":
        bim = CliffordBimodule(ec)
        out = {"dim": bim.dim, "labels": [f"o{m}" for m in bim.masks]}
        _emit(args, out, f"bimodule of dimension {bim.dim}")
    elif args.op == "center":
        c = center(ec.algebra)
        _emit(args, {"dimension": len(c)}, f"centre dimension {len(c)}")
    elif args.op == "split":
        sc = split_components(ec)
        _emit(
            args,
            {"plus": jsonio.algebra_to_json(sc.plus), "minus": jsonio.algebra_to_json(sc.minus)},
            f"components of dimension {sc.plus.dim} and {sc.minus.dim}",
        )
    return 0


def _cmd_br(args):
    from .brauer import BrauerClass2, class_of_quaternion, quaternion_from_class

    if args.op == "class":
        c = class_of_quaternion(*map(QQ.elt_from_str, _required(args, "-a", "-b")))
        _emit(args, c, jsonio.render_table(c))
    elif args.op == "realize":
        c = BrauerClass2.from_strs(args.ramified.split(",")) if args.ramified else BrauerClass2.trivial()
        a, b = quaternion_from_class(c)
        _emit(args, {"a": str(a), "b": str(b)}, f"quaternion ({a}, {b})")
    return 0


def _cmd_inv(args):
    from .brauer import BrauerClass2
    from .invariants import TotalWittElement, construct_preimage, e0, e1, e2_of_form

    if args.op == "preimage":
        c = BrauerClass2.from_strs(args.ramified.split(",")) if args.ramified else BrauerClass2.trivial()
        q = construct_preimage(c)
        _emit(args, q, jsonio.render_table(q))
        return 0
    if args.op == "reciprocity":
        from .forms import DiagonalForm
        from .polys import Poly
        from .residues import milnor_reciprocity_check
        from .scalars import RationalFunctionField

        base = _parse_base(args.base)
        ff = RationalFunctionField(base)
        entries = []
        for tok in _required(args, "--entries")[0].split(";"):
            coeffs = [int(x) for x in tok.split(",")]
            entries.append(ff.from_poly(Poly.from_int_coeffs(coeffs, base)))
        ok = milnor_reciprocity_check(DiagonalForm(tuple(entries), ff))
        _emit(args, {"reciprocity": ok}, f"reciprocity {'holds' if ok else 'FAILS'}")
        return 0 if ok else 1
    q = _load_form(args)
    w = TotalWittElement.from_form(q)
    if args.op == "e0":
        _emit(args, {"e0": e0(w)}, f"e0 = {e0(w)}")
    elif args.op == "e1":
        v = e1(w)
        _emit(args, {"e1": repr(v)}, f"e1 = {v!r}")
    elif args.op == "e2":
        c = e2_of_form(q)
        _emit(args, c, jsonio.render_table(c))
    return 0


_EXC_ARITY = {"norm": (2,), "albert": (4,), "roundtrip": (2, 4)}


def _cmd_exc(args):
    from .exceptional import (
        albert_form,
        norm_roundtrip_check,
        pfaffian_roundtrip_check,
        reduced_norm_form,
    )

    vals = [QQ.elt_from_str(x) for x in args.params]
    arity = _EXC_ARITY[args.op]
    if len(vals) not in arity:
        raise jsonio.ParseError("params", f"{args.op} takes {' or '.join(map(str, arity))} parameters")
    if args.op == "roundtrip":
        ok = (norm_roundtrip_check if len(vals) == 2 else pfaffian_roundtrip_check)(*vals)
        _emit(args, {"roundtrip": ok}, f"round trip {'holds' if ok else 'FAILS'}")
        return 0 if ok else 1
    form = (reduced_norm_form if args.op == "norm" else albert_form)(*vals)
    _emit(args, form, jsonio.render_table(form))
    return 0


def _parse_ideal(order, tok: str):
    from .dedekind import prime_ideals_above

    tok = tok.strip()
    inverse = tok.endswith("^-1")
    if inverse:
        tok = tok[:-3]
    if tok == "O":
        out = order.one_ideal()
    elif tok.startswith("P"):
        body = tok[1:]
        conj = body.endswith("b")
        p = int(body[:-1] if conj else body)
        primes = prime_ideals_above(order, p)
        if not primes:
            raise jsonio.ParseError("ideal", f"{p} is inert in this order")
        out = primes[-1] if conj and len(primes) > 1 else primes[0]
    else:
        raise jsonio.ParseError("ideal", f"cannot parse ideal token {tok!r}")
    return out.inverse() if inverse else out


def _cmd_ded(args):
    from .dedekind import (
        QuadOrder,
        class_group_mod_squares,
        even_clifford_order,
        hyperbolic_ideal_form,
    )

    order = QuadOrder(args.d)
    if args.op == "clgrp":
        reps = class_group_mod_squares(order)
        out = {"representatives": [r.label() for r in reps]}
        _emit(args, out, "Cl/2 representatives: " + ", ".join(r.label() for r in reps))
        return 0
    coeffs = [_parse_ideal(order, tok) for tok in args.coeff_ideals.split(",")]
    value = _parse_ideal(order, args.value)
    h = hyperbolic_ideal_form(order, coeffs, value)
    if args.op == "hyp":
        out = {
            "rank": h.rank,
            "coefficient_ideals": [c.label() for c in h.coeff_ideals],
            "value": h.value.label(),
        }
        _emit(args, out, f"hyperbolic form of rank {h.rank} valued in {h.value.label()}")
        return 0
    co = even_clifford_order(h)
    out = {
        "dim": co.algebra.dim,
        "coefficient_ideals": [c.label() for c in co.coeff_ideals],
    }
    _emit(args, out, f"even Clifford order of dimension {co.algebra.dim}, closure verified")
    return 0


def _cmd_suite(args):
    from .suites import run_suite

    rep = run_suite(args.name, seed=args.seed)
    if args.json:
        sys.stdout.write(jsonio.canonical_dumps(rep.to_json()))
    else:
        status = "ok" if rep.ok else f"{len(rep.failures)} FAILURES"
        print(f"suite {rep.suite}: {rep.cases} cases, {status} ({rep.wall_time:.1f}s, seed {rep.seed})")
        for f in rep.failures[:10]:
            print(f"  case {f['case']}: {f['witness']}")
    return 0 if rep.ok else 1


def _cmd_convert(args):
    with open(args.infile) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise jsonio.ParseError(f"{args.infile}:{e.lineno}:{e.colno}", e.msg)
    obj = jsonio.from_json(data)
    if args.to == "json":
        text = jsonio.canonical_dumps(jsonio.to_json(obj))
    else:
        text = jsonio.render_table(obj) + "\n"
    if args.outfile == "-":
        sys.stdout.write(text)
    else:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with a dash and a digit, such as -1/2
    or -1,2, as a value; no option looks like that.  Subparsers are of the
    same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cliffinv", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_form_args(sp):
        sp.add_argument("--entries", help="comma-separated diagonal entries")
        sp.add_argument("--base", default="Q", help="Q or F<p>")
        sp.add_argument("--file", help="JSON form file")
        sp.add_argument("--json", action="store_true")

    qf = sub.add_parser("qf", help="quadratic form operations")
    qf.add_argument("op", choices=["diag", "witt", "disc"])
    add_form_args(qf)
    qf.set_defaults(fn=_cmd_qf)

    alg = sub.add_parser("alg", help="structure algebra operations")
    alg.add_argument("op", choices=["center", "idempotents", "quaternion"])
    alg.add_argument("a", nargs="?")
    alg.add_argument("b", nargs="?")
    alg.add_argument("--base", default="Q")
    alg.add_argument("--file")
    alg.add_argument("--json", action="store_true")
    alg.set_defaults(fn=_cmd_alg)

    cl = sub.add_parser("cliff", help="even Clifford algebra operations")
    cl.add_argument("op", choices=["even", "bimodule", "center", "split", "sum-check"])
    add_form_args(cl)
    cl.add_argument("--left", help="left summand entries (sum-check)")
    cl.add_argument("--right", help="right summand entries (sum-check)")
    cl.set_defaults(fn=_cmd_cliff)

    br = sub.add_parser("br", help="Brauer class operations")
    br.add_argument("op", choices=["class", "realize"])
    br.add_argument("-a")
    br.add_argument("-b")
    br.add_argument("--ramified", default="", help="comma-separated places, e.g. 2,3,inf")
    br.add_argument("--json", action="store_true")
    br.set_defaults(fn=_cmd_br)

    inv = sub.add_parser("inv", help="invariant tower")
    inv.add_argument("op", choices=["e0", "e1", "e2", "preimage", "reciprocity"])
    add_form_args(inv)
    inv.add_argument("--ramified", default="")
    inv.set_defaults(fn=_cmd_inv)

    exc = sub.add_parser("exc", help="norm and pfaffian constructions")
    exc.add_argument("op", choices=["norm", "albert", "roundtrip"])
    exc.add_argument("params", nargs="+")
    exc.add_argument("--json", action="store_true")
    exc.set_defaults(fn=_cmd_exc)

    ded = sub.add_parser("ded", help="ideal-valued layer")
    ded.add_argument("op", choices=["clgrp", "hyp", "clifford-order"])
    ded.add_argument("-d", type=int, default=-5)
    ded.add_argument("--coeff-ideals", default="O")
    ded.add_argument("--value", default="O")
    ded.add_argument("--json", action="store_true")
    ded.set_defaults(fn=_cmd_ded)

    st = sub.add_parser("suite", help="run a named verification suite")
    st.add_argument("name")
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--json", action="store_true")
    st.set_defaults(fn=_cmd_suite)

    cv = sub.add_parser("convert", help="JSON and table rendering")
    cv.add_argument("infile")
    cv.add_argument("outfile")
    cv.add_argument("--to", choices=["json", "table"], default="json")
    cv.set_defaults(fn=_cmd_convert)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.fn(args)
    except (FactorBoundExceeded, SearchExhausted) as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except (jsonio.ParseError, DegenerateFormError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CliffinvError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
