"""What importing and running the package pulls in.

sympy is imported lazily, only where polynomials are factored.  A
module-level `import sympy` adds about 32 MB of peak RSS to every run,
so the Witt, Clifford, Brauer and Dedekind paths must not load it.  The
check runs in a fresh interpreter, where no other test has imported it.

No module reads the environment: every bound is a constant or an
argument, so a run depends on its inputs alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cliffinv

SCRIPT = """
import sys
from fractions import Fraction

from cliffinv.brauer import BrauerClass2
from cliffinv.clifford import discriminant_algebra
from cliffinv.dedekind import QuadOrder, class_group_mod_squares
from cliffinv.forms import DiagonalForm
from cliffinv.invariants import construct_preimage, e2_of_form
from cliffinv.scalars import GF, QQ

e2_of_form(DiagonalForm(tuple(Fraction(a) for a in (1, -2, -3, 6)), QQ))
f7 = GF(7)
discriminant_algebra(DiagonalForm(tuple(f7.from_int(a) for a in (1, 2, 3, 5)), f7))
construct_preimage(BrauerClass2.from_strs(["2", "inf"]))
construct_preimage(BrauerClass2.from_strs(["29", "31", "37", "41", "43", "47"]))
class_group_mod_squares(QuadOrder(-5))
class_group_mod_squares(QuadOrder(10))
print("sympy" in sys.modules)
"""


def test_core_paths_do_not_import_sympy():
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# A cofactor of _MR_EXACT_BELOW or more is beyond deterministic Miller-Rabin:
# trial division gives up on it without asking sympy's isprime.
FACTOR_SCRIPT = """
import sys

from cliffinv.errors import FactorBoundExceeded
from cliffinv.scalars import _MR_EXACT_BELOW, factor_integer

n = (10**12 + 39) * (10**13 + 37)
assert n > _MR_EXACT_BELOW
try:
    factor_integer(n, bound=10**3)
except FactorBoundExceeded as e:
    assert e.n == n
else:
    raise AssertionError("factored a cofactor beyond Miller-Rabin")
print("sympy" in sys.modules)
"""


def test_factoring_beyond_miller_rabin_does_not_import_sympy():
    src = str(Path(cliffinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", FACTOR_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_package_reads_no_environment_variables():
    pkg = Path(cliffinv.__file__).resolve().parent
    hits = [
        f"{path.name}:{n}"
        for path in sorted(pkg.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "os.environ" in line or "getenv" in line
    ]
    assert hits == []


# The scalar layer asks each field object for its square classes, square
# roots and sympy conversions; a type test on a field class picks a route the
# field should own.  Only equality and RationalFunctionField's input check
# may test a field's class.
FIELD_CLASSES = {"RationalField", "PrimeField", "QuadraticNumberField", "RationalFunctionField"}
FIELD_TYPE_TESTS_ALLOWED = {
    ("RationalField", "__eq__"),
    ("PrimeField", "__eq__"),
    ("QuadraticNumberField", "__eq__"),
    ("RationalFunctionField", "__eq__"),
    ("RationalFunctionField", "__init__"),
}


def _field_type_tests(tree):
    """(class, function, line) of each isinstance call naming a field class."""
    hits = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)} & FIELD_CLASSES
        ):
            hits.append((cls, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return hits


def test_scalars_routes_by_field_methods_not_field_types():
    path = Path(cliffinv.__file__).resolve().parent / "scalars.py"
    hits = _field_type_tests(ast.parse(path.read_text()))
    assert [h for h in hits if h[:2] not in FIELD_TYPE_TESTS_ALLOWED] == []
    assert {h[:2] for h in hits} == FIELD_TYPE_TESTS_ALLOWED  # the walk sees the allowed ones


# Every name a module imports is read in the scope that imports it: a
# module-level import somewhere in the module, a local import in its
# function.  `__future__` imports and the re-exports named in `__all__` are
# exempt.
def _unread_imports(tree):
    """(name, line) of each imported name that its scope never reads."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    hits = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and name not in exported:
                    hits.append((name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, tree)
    return hits


def test_every_import_is_read():
    pkg = Path(cliffinv.__file__).resolve().parent
    hits = [
        f"{path.name}:{line} {name}"
        for path in sorted(pkg.glob("*.py"))
        for name, line in _unread_imports(ast.parse(path.read_text()))
    ]
    assert hits == []


# Every parameter with a default, as module.qualname.parameter.  A default
# stays only where callers outside the tests pass two values, or where a
# test needs a small bound to reach an error cheaply; a parameter that the
# other inputs decide, or that no caller sets, has none.
DEFAULTED_PARAMETERS = {
    "algebras.StructureAlgebra.__init__.involution": "None for plain tables, signs from quaternion and tensor",
    "algebras.center.generators": "unused; perfbench's clifford workload passes EvenClifford.generators() (ROADMAP item 6)",
    "brauer.quaternion_from_class.cap": "test-only bound that reaches SearchExhausted cheaply",
    "cli.main.argv": "None reads sys.argv for the console script; tests pass lists",
    "forms.hyperbolic.field": "QQ for hyperbolic_model, the order's field for hyperbolic_ideal_form",
    "records.record.cls": "None when used as @record(frozen=True), the class when bare",
    "records.record.frozen": "True for hashable value records, False for the rest",
    "scalars.class_mul.sign": "1 for products, -1 where forms negates the product",
    "scalars.factor_integer.bound": "test-only bound that reaches FactorBoundExceeded cheaply",
    "suites.run_suite.seed": "0 for the frozen reports, --seed from the command line",
}


def _defaulted_parameters(tree, module):
    """module.qualname.parameter of each parameter with a default."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, name = child.args, ".".join([module, *prefix, child.name])
                positional = a.posonlyargs + a.args
                out.update(f"{name}.{p.arg}" for p in positional[len(positional) - len(a.defaults):])
                out.update(f"{name}.{p.arg}" for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, prefix + [child.name])

    visit(tree, [])
    return out


def test_every_default_is_allowlisted():
    pkg = Path(cliffinv.__file__).resolve().parent
    found = set()
    for path in sorted(pkg.glob("*.py")):
        found |= _defaulted_parameters(ast.parse(path.read_text()), path.stem)
    assert found == set(DEFAULTED_PARAMETERS)
