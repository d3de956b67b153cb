"""The traced benchmark run patches package names by string; keep them alive.

perfbench/spans.py wraps public functions, methods and one cached property
of the package.  A rename or removal in the package breaks the traced run
only when it is executed, so enter the tracer here and drive a small
computation through the hooked names.
"""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from cliffinv import algebras, clifford, dedekind, invariants
from cliffinv.algebras import StructureAlgebra
from cliffinv.brauer import BrauerClass2
from cliffinv.clifford import EvenClifford
from cliffinv.forms import DiagonalForm
from cliffinv.scalars import QQ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve_and_record():
    spans = _load_spans()
    mul = StructureAlgebra.__dict__["mul"]
    tracer = spans.Tracer()
    with tracer.installed():
        q = DiagonalForm(tuple(Fraction(x) for x in (1, 2, 3, 6)), QQ)
        ec = EvenClifford(q)
        # the sum map multiplies sparse rows, so the dense product is driven here
        g = ec.generators()[0]
        assert ec.algebra.mul(ec.unit_coords(), g) == g
        # through the modules: the tracer rebinds module attributes
        algebras.center(ec.algebra)
        clifford.split_components(ec)
        left = DiagonalForm((Fraction(1), Fraction(2)), QQ)
        right = DiagonalForm((Fraction(3),), QQ)
        assert clifford.sum_isomorphism(left, right).morphism.is_isomorphism()
        order = dedekind.QuadOrder(-5)
        one = order.one_ideal()
        assert dedekind.even_clifford_order(dedekind.hyperbolic_ideal_form(order, [one], one)).algebra.dim == 2
        assert [r.label() for r in dedekind.class_group_mod_squares(order)] == ["O", "(2,1+1w)"]
        p2 = dedekind.prime_ideals_above(dedekind.QuadOrder(3), 2)[0]
        assert dedekind.principal_generator(p2) is not None
        # arith reads dedekind.reduction_commutes.self_s
        assert dedekind.reduction_commutes(dedekind.hyperbolic_ideal_form(order, [one, one], one), 29)
    assert StructureAlgebra.__dict__["mul"] is mul
    for name in (
        "algebras.StructureAlgebra.mul.q",
        "algebras.AlgebraMorphism.is_multiplicative",
        "algebras.center.q",
        "clifford.EvenClifford.algebra.q",
        "clifford.split_components",
        "clifford.sum_isomorphism",
        "dedekind.even_clifford_order",
        "dedekind.class_group_mod_squares",
        "dedekind.principal_generator",
        "dedekind.reduction_commutes",
    ):
        assert tracer.calls[name] > 0, name
    assert set(tracer.metrics(0.0)) == set(spans.metric_units())


def test_tracer_sees_preimage_construction():
    # brauer.pairs_per_class reads the edge from quaternion_from_class
    # to class_of_quaternion
    spans = _load_spans()
    tracer = spans.Tracer()
    c = BrauerClass2.from_strs(["29", "31", "37", "41", "43", "47"])
    with tracer.installed():
        assert invariants.construct_preimage(c).rank == 4
    for name in (
        "brauer.quaternion_from_class",
        "brauer.class_of_quaternion",
        "invariants.construct_preimage",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.edges["brauer.quaternion_from_class", "brauer.class_of_quaternion"] > 0


def test_tracer_sees_witt_reduction():
    # a rank-8 sum goes through Witt reduction, which the traced witt-q
    # workload measures through these names
    spans = _load_spans()
    tracer = spans.Tracer()
    left = DiagonalForm(tuple(Fraction(x) for x in (6, -2, 5, -60)), QQ)
    right = DiagonalForm(tuple(Fraction(x) for x in (-3, 7, -3, 63)), QQ)
    with tracer.installed():
        assert invariants.e2_additivity_check(left, right)
    for name in ("forms.witt_decompose", "forms.is_isotropic", "scalars.rational_sqrt"):
        assert tracer.calls[name] > 0, name
    assert tracer.planes == 2


def test_benchmark_smoke():
    # every workload at a tiny size, traced and untraced, answers checked
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "smoke.py")],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
