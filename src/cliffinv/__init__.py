"""Exact arithmetic for quadratic forms, even Clifford algebras, and the
rank/discriminant/Clifford invariant tower into 2-torsion Brauer classes.

The package is pure exact arithmetic (no floating point): rationals,
odd prime fields, quadratic number fields and rational function fields,
with a Dedekind layer of fractional-ideal-valued forms over quadratic
maximal orders.  The `suites` module bundles the named verification
runs behind the acceptance criteria; `cli` exposes everything as the
`cliffinv` command.
"""

from .brauer import BrauerClass2, class_of_quaternion, quaternion_from_class
from .clifford import (
    CliffordBimodule,
    EvenClifford,
    clifford_bimodule,
    discriminant_algebra,
    even_clifford,
    hyperbolic_model,
    split_components,
    sum_isomorphism,
)
from .forms import (
    DiagonalForm,
    QuadraticForm,
    WittClass,
    diagonalize,
    hyperbolic,
    is_isotropic,
    orthogonal_sum,
    signed_discriminant,
    twist,
    witt_decompose,
)
from .invariants import (
    TotalWittElement,
    construct_preimage,
    e0,
    e1,
    e2,
    e2_additivity_check,
    e2_of_form,
)
from .scalars import GF, QQ, Place, hilbert_symbol, legendre, product_formula_check, square_class

__version__ = "0.1.0"

__all__ = [
    "BrauerClass2",
    "CliffordBimodule",
    "DiagonalForm",
    "EvenClifford",
    "GF",
    "Place",
    "QQ",
    "QuadraticForm",
    "TotalWittElement",
    "WittClass",
    "class_of_quaternion",
    "clifford_bimodule",
    "construct_preimage",
    "diagonalize",
    "discriminant_algebra",
    "e0",
    "e1",
    "e2",
    "e2_additivity_check",
    "e2_of_form",
    "even_clifford",
    "hilbert_symbol",
    "hyperbolic",
    "hyperbolic_model",
    "is_isotropic",
    "legendre",
    "orthogonal_sum",
    "product_formula_check",
    "quaternion_from_class",
    "run_suite",
    "signed_discriminant",
    "split_components",
    "square_class",
    "sum_isomorphism",
    "twist",
    "witt_decompose",
]


def __getattr__(name):
    # The suites load on first use: a process that only computes would
    # otherwise hold about 0.3 MB more, their code and the parser memory
    # left from compiling them.
    if name == "run_suite":
        from .suites import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
