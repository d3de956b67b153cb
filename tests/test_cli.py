import hashlib
import json
import time
from fractions import Fraction

import pytest

from cliffinv import jsonio
from cliffinv.cli import main
from cliffinv.forms import DiagonalForm, QuadraticForm
from cliffinv.scalars import GF, QQ
from cliffinv.suites import run_suite, suite_names


def test_all_suite_names_present():
    assert suite_names() == [
        "center-law",
        "clifford-dims",
        "components-equal",
        "dedekind-layer",
        "disc-additivity",
        "e2-additivity",
        "hilbert-product",
        "hyperbolic-model",
        "metabolic-splitting",
        "milnor-residues",
        "norm-roundtrip",
        "pfaffian-roundtrip",
        "sum-isomorphism",
        "surjectivity",
    ]


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nonexistent")


def test_suite_reports_reproducible():
    r1 = run_suite("hilbert-product", seed=42)
    r2 = run_suite("hilbert-product", seed=42)
    assert r1.canonical() == r2.canonical()
    r3 = run_suite("hilbert-product", seed=43)
    assert r3.canonical() != r1.canonical() or r3.seed != r1.seed


def test_cli_basic_commands(capsys):
    assert main(["qf", "witt", "--entries", "1,-1,2"]) == 0
    out = capsys.readouterr().out
    assert "witt index 1" in out
    assert main(["br", "class", "-a", "-1", "-b", "3"]) == 0
    assert "2, 3" in capsys.readouterr().out
    assert main(["inv", "e2", "--entries", "1,1,1,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ramified"] == ["2", "inf"]
    assert main(["exc", "roundtrip", "--", "-1", "-1"]) == 0
    assert main(["ded", "clgrp", "-d", "-5"]) == 0
    assert "(2,1+1w)" in capsys.readouterr().out.replace("Cl/2 representatives: O, ", "(2,1+1w)")


def test_cli_reciprocity(capsys):
    assert main(["inv", "reciprocity", "--entries", "0,1;0,-1"]) == 0
    assert "holds" in capsys.readouterr().out


def test_cli_suite_exit_codes(capsys):
    assert main(["suite", "metabolic-splitting"]) == 0
    assert main(["suite", "never-heard-of-it"]) == 2
    assert main(["suite", "metabolic-splitting", "--parallelism", "2"]) == 2


def test_cli_factor_bound_exit(capsys):
    # (10^12 + 39)(10^13 + 37): beyond Miller-Rabin, and its least prime is
    # beyond what Brent's rho reaches within its step budget
    start = time.perf_counter()
    assert main(["br", "class", "-a", str((10**12 + 39) * (10**13 + 37)), "-b", "7"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "cannot factor" in capsys.readouterr().err


def test_cli_e2_with_two_primes_above_the_factor_bound(capsys):
    # 1000036000099 = 1000003 * 1000033, both shown by the other entries
    assert main(["inv", "e2", "--entries", "1,-1000003,-1000033,1000036000099"]) == 0
    assert "{1000003, 1000033}" in capsys.readouterr().out


def test_cli_bare_fp_entries(capsys):
    # a bare integer is its residue mod p, spelled either way
    outputs = []
    for entries in ("1,2,3,5", "1 mod 7,2 mod 7,3 mod 7,5 mod 7", "8,-5,10,12"):
        assert main(["cliff", "even", "--entries", entries, "--base", "F7", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]
    assert GF(7).elt_from_str("-1") == GF(7).from_int(6)
    with pytest.raises(ValueError):
        GF(7).elt_from_str("1 mod 5")


def test_cli_fp_witt(capsys):
    # <1, 2, 3> over F_7 is <1, -1, -6>: one plane, kernel of square class 1
    assert main(["qf", "witt", "--base", "F7", "--entries", "1,2,3", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["index"] == 1 and len(out["kernel"]) == 1
    assert GF(7).is_square(GF(7).elt_from_str(out["kernel"][0]))


def test_cli_usage_error():
    assert main(["qf"]) == 2


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["br", "class"], "-a, -b"),
        (["br", "class", "-a", "3"], "-b"),
        (["qf", "diag"], "--entries"),
        (["inv", "e2", "--base", "Q"], "--entries"),
        (["alg", "quaternion"], "a, b"),
        (["alg", "quaternion", "1"], "b"),
        (["cliff", "sum-check", "--base", "Q", "--left", "1,1"], "--right"),
        (["inv", "reciprocity", "--base", "F5"], "--entries"),
        (["alg", "center"], "--file"),
    ],
)
def test_cli_missing_operand_is_a_usage_error(capsys, argv, missing):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: missing {missing}\n")


@pytest.mark.parametrize(
    "spaced, joined",
    [
        (["qf", "disc", "--entries", "-1,2"], ["qf", "disc", "--entries=-1,2"]),
        (["br", "class", "-a", "-1/2", "-b", "3"], ["br", "class", "-a=-1/2", "-b=3"]),
        (
            ["cliff", "sum-check", "--left", "-1,2", "--right", "-3,5"],
            ["cliff", "sum-check", "--left=-1,2", "--right=-3,5"],
        ),
    ],
)
def test_cli_values_starting_with_minus(capsys, spaced, joined):
    assert main(spaced) == 0
    out = capsys.readouterr().out
    assert main(joined) == 0
    assert capsys.readouterr().out == out
    if spaced[1] == "disc":
        assert out == "signed discriminant: SquareClass(2)\n"


@pytest.mark.parametrize("cmd", [["exc", "norm"], ["alg", "quaternion"]])
def test_cli_positional_values_starting_with_minus(capsys, cmd):
    assert main(cmd + ["--", "-1/2", "3"]) == 0
    out = capsys.readouterr().out
    assert main(cmd + ["-1/2", "3"]) == 0
    assert out and capsys.readouterr().out == out


def test_cli_class_group_beyond_enumeration(capsys):
    assert main(["ded", "clgrp", "-d", "-10007"]) == 0
    assert capsys.readouterr().out == "Cl/2 representatives: O\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["exc", "norm", "1", "2", "3"], "norm takes 2 parameters"),
        (["exc", "norm", "2"], "norm takes 2 parameters"),
        (["exc", "albert", "1", "2", "3", "4", "5"], "albert takes 4 parameters"),
    ],
)
def test_cli_exc_arity_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["qf", "witt", "--entries", "0,1"], ["inv", "e2", "--entries", "1,0,1,1"]],
)
def test_cli_degenerate_form_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "diagonal entry is zero" in err and "verification failure" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["qf", "diag", "--entries", "1/0,2"],
        ["br", "class", "-a", "1/0", "-b", "2"],
        ["exc", "norm", "1/0", "2"],
        ["alg", "quaternion", "1/0", "2"],
        ["inv", "e2", "--entries", "1,2,3,6/0"],
    ],
)
def test_cli_zero_denominator_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "zero denominator" in err


@pytest.mark.parametrize(
    "base, entry",
    [
        ({"field": "Q"}, "1/0"),
        ({"field": "Qsqrt", "d": -5}, "1/0"),
        ({"field": "Qsqrt", "d": -5}, "1+3/0*sqrt(-5)"),
    ],
)
def test_convert_zero_denominator_is_a_usage_error(tmp_path, capsys, base, entry):
    src = tmp_path / "form.json"
    src.write_text(json.dumps({"kind": "form", "base": base, "entries": [entry, "2"]}))
    assert main(["convert", str(src), "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and "zero denominator" in err


def test_convert_round_trip(tmp_path, capsys):
    q = QuadraticForm(
        ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))), QQ
    )
    src = tmp_path / "form.json"
    src.write_text(jsonio.canonical_dumps(jsonio.form_to_json(q)))
    mid = tmp_path / "mid.json"
    out = tmp_path / "out.json"
    assert main(["convert", str(src), str(mid), "--to", "json"]) == 0
    assert main(["convert", str(mid), str(out), "--to", "json"]) == 0
    assert mid.read_bytes() == out.read_bytes()
    assert main(["convert", str(src), "-", "--to", "table"]) == 0
    assert "[ 0  1 ]" in capsys.readouterr().out


def test_convert_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"kind":"form","base":{"field":"Q"},"gram":[["0","1"],["1"]],"value_label":"trivial"}'
    )
    assert main(["convert", str(bad), "-"]) == 2


@pytest.mark.parametrize("op", ["even", "bimodule", "center", "split"])
def test_cli_cliff_reads_gram_form_files(tmp_path, capsys, op):
    # the Gram matrix diagonalises to <1, -1>
    src = tmp_path / "form.json"
    src.write_text('{"kind":"form","base":{"field":"Q"},"gram":[["1","1/2"],["1/2","-3/4"]]}')
    assert main(["cliff", op, "--base", "Q", "--entries", "1,-1", "--json"]) == 0
    want = capsys.readouterr().out
    assert main(["cliff", op, "--file", str(src), "--json"]) == 0
    assert capsys.readouterr().out == want


def test_form_files_take_only_the_trivial_value_label(tmp_path, capsys):
    src = tmp_path / "form.json"
    src.write_text('{"kind":"form","base":{"field":"Q"},"gram":[["1"]],"value_label":"L"}')
    assert main(["qf", "diag", "--file", str(src)]) == 2
    assert "value_label" in capsys.readouterr().err
    with pytest.raises(jsonio.ParseError):
        jsonio.form_from_json({"base": {"field": "Q"}, "entries": ["1"], "value_label": "L"})


def test_convert_inconsistent_algebra(tmp_path, capsys):
    # dim, labels and unit disagree; nothing may be built from the table
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "algebra",
                "base": {"field": "Q"},
                "dim": 2,
                "labels": ["1"],
                "table": ["1", "0", "0", "1", "0", "1", "1", "0"],
                "unit": ["1", "0", "5"],
            }
        )
    )
    assert main(["convert", str(bad), "-"]) == 2
    assert capsys.readouterr().out == ""
    too_big = {"base": {"field": "Q"}, "dim": 65, "labels": [], "table": [], "unit": []}
    with pytest.raises(jsonio.ParseError):
        jsonio.algebra_from_json(too_big)


def test_json_round_trips_forms_and_algebras():
    f7 = GF(7)
    q = DiagonalForm((f7.from_int(3), f7.from_int(5)), f7)
    d = jsonio.form_to_json(q)
    q2 = jsonio.form_from_json(json.loads(json.dumps(d)))
    assert q2.entries == q.entries and q2.field == q.field
    from cliffinv.algebras import quaternion

    from cliffinv.clifford import EvenClifford, split_components

    f5 = GF(5)
    c0 = EvenClifford(DiagonalForm(tuple(f5.from_int(x) for x in (1, 2, 3, 4)), f5)).algebra
    plus = split_components(DiagonalForm(tuple(Fraction(x) for x in (1, 2, 3, 6)), QQ)).plus
    # sha256 of the canonical dumps: the serialised format is frozen
    digests = {
        "c0": "6e42f38980a374bb01e9bf62e1f9f3d76a25e012802c28fde12a077f8a977bac",
        "plus": "ba7f66bd888b2cc9ca4595b6b44984027e7c25d4f641c8162e5020a2a593ec80",
    }
    a = quaternion(Fraction(-1), Fraction(3), QQ)
    for name, alg in (("quaternion", a), ("c0", c0), ("plus", plus)):
        d2 = jsonio.algebra_to_json(alg)
        if name in digests:
            dumped = jsonio.canonical_dumps(d2).encode()
            assert hashlib.sha256(dumped).hexdigest() == digests[name]
        a2 = jsonio.algebra_from_json(json.loads(json.dumps(d2)))
        assert a2.table == alg.table and a2.unit == alg.unit


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["qf", "diag", "--entries", "1,2,3"],
            0,
            "quadratic form over QQ\n  diagonal: <1, 2, 3>\n  value label: trivial\n",
            "",
        ),
        (["br", "realize", "--ramified", "2,3"], 0, "quaternion (3, 2)\n", ""),
        (
            ["inv", "preimage", "--ramified", "3,inf", "--json"],
            0,
            '{"base":{"field":"Q"},"entries":["1","3","1","3"],"kind":"form","value_label":"trivial"}\n',
            "",
        ),
        (["inv", "e0", "--entries", "1,2,3"], 0, "e0 = 1\n", ""),
        (["inv", "e1", "--entries=-1,2,3,-6"], 0, "e1 = SquareClass(1)\n", ""),
        (
            ["ded", "hyp", "--coeff-ideals", "P3,P3b", "--value", "P2", "--json"],
            0,
            '{"coefficient_ideals":["(6,1+1w)/3","(6,5+1w)/3","(3,2+1w)","(3,1+1w)"],'
            '"rank":4,"value":"(2,1+1w)"}\n',
            "",
        ),
        (
            ["ded", "clifford-order", "--coeff-ideals", "O,P2^-1", "--value", "P2"],
            0,
            "even Clifford order of dimension 8, closure verified\n",
            "",
        ),
        (["ded", "hyp", "--coeff-ideals", "P11"], 2, "", "error: at ideal: 11 is inert in this order\n"),
    ],
)
def test_cli_subcommand_outputs(capsys, argv, code, out, err):
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


def test_cli_algebra_file_commands(tmp_path, capsys):
    assert main(["alg", "quaternion", "-1", "-1", "--json"]) == 0
    src = tmp_path / "q.json"
    src.write_text(capsys.readouterr().out)
    assert main(["alg", "center", "--file", str(src), "--json"]) == 0
    assert capsys.readouterr().out == '{"basis":[["1","0","0","0"]],"dimension":1}\n'
    # a central simple algebra has only the idempotents 0 and 1
    assert main(["alg", "idempotents", "--file", str(src)]) == 0
    assert capsys.readouterr().out == "2 central idempotents\n"
