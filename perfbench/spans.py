"""Per-layer spans for the traced run of the cliffinv benchmark.

The tracer replaces the package's public functions by wrappers: in the
module that defines them and under every name that another module bound
with ``from ... import``, so calls from one layer into another are seen
too.  Each wrapper opens a span whose parent is the innermost open span;
a span's self time is its duration minus the durations of its children.
Only totals per name are kept: calls, self seconds, calls that raised,
and calls per (parent, child) pair.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property, wraps

LAYERS = ("scalars", "forms", "algebras", "linalg", "clifford", "brauer", "invariants", "dedekind")

# Module-level functions: (defining module, attribute, split by field).
# A split name ends in .q for fields of characteristic 0 and .fp for F_p.
FUNCTIONS = (
    ("scalars", "factor_integer", False),
    ("scalars", "hilbert_symbol", False),
    ("forms", "witt_decompose", False),
    ("forms", "diagonalize", False),
    ("forms", "is_isotropic", False),
    ("forms", "isotropic_vector", False),
    ("algebras", "center", True),
    ("algebras", "find_quaternion_basis", False),
    ("linalg", "matvec", False),
    ("linalg", "rank", False),
    ("linalg", "nullspace", False),
    ("linalg", "column_space_basis", False),
    ("clifford", "split_components", False),
    ("clifford", "sum_isomorphism", False),
    ("brauer", "quaternion_from_class", False),
    ("brauer", "class_of_algebra", False),
    ("brauer", "class_of_quaternion", False),
    ("invariants", "e2_of_form", False),
    ("invariants", "e2_additivity_check", False),
    ("invariants", "construct_preimage", False),
    ("invariants", "clifford_invariant_class", False),
    ("dedekind", "class_group_mod_squares", False),
    ("dedekind", "even_clifford_order", False),
    ("dedekind", "principal_generator", False),
    ("dedekind", "reduction_commutes", False),
)
# Methods and cached properties: (module, class, attribute, split by field).
METHODS = (
    ("algebras", "StructureAlgebra", "mul", True),
    ("algebras", "AlgebraMorphism", "is_multiplicative", False),
    ("clifford", "EvenClifford", "algebra", True),
)
# rational_sqrt is counted only through the name forms imported: those
# are the Witt-reduction probes.
FORMS_SQRT = "scalars.rational_sqrt"
RATIOS = {
    "forms.sqrt_probes_per_split": "probe/split",
    "forms.kernel_bits_max": "bit",
    "brauer.pairs_per_class": "pair/class",
}
STATS = {"calls": "count", "self_s": "s", "errors": "count"}


def span_names():
    """Every span name the tracer can record, in a fixed order."""
    names = []
    for module, attr, split in FUNCTIONS:
        names += _variants(f"{module}.{attr}", split)
    for module, cls, attr, split in METHODS:
        names += _variants(f"{module}.{cls}.{attr}", split)
    names.append(FORMS_SQRT)
    return names


def metric_units():
    """Name -> unit of every per-layer metric, in output order."""
    units = {f"{name}.{stat}": unit for name in span_names() for stat, unit in STATS.items()}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(RATIOS)
    units["trace.overhead_s"] = "s"
    return units


def _variants(name, split):
    return [f"{name}.q", f"{name}.fp"] if split else [name]


def _field_suffix(name):
    return lambda args: name + (".q" if args[0].field.char == 0 else ".fp")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.planes = 0
        self.kernel_bits_max = 0
        self._stack = []  # [name, seconds spent in child spans]

    def wrap(self, fn, name_of, on_result=None):
        stack, calls, edges = self._stack, self.calls, self.edges

        @wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            calls[name] += 1
            edges[stack[-1][0] if stack else None, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _witt_result(self, w):
        self.planes += w.index
        for x in w.kernel:
            if isinstance(x, Fraction):
                bits = max(x.numerator.bit_length(), x.denominator.bit_length())
                self.kernel_bits_max = max(self.kernel_bits_max, bits)

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        undo = []
        package = [m for n, m in list(sys.modules.items()) if n == "cliffinv" or n.startswith("cliffinv.")]
        try:
            for module, attr, split in FUNCTIONS:
                name = f"{module}.{attr}"
                orig = getattr(importlib.import_module(f"cliffinv.{module}"), attr)
                name_of = _field_suffix(name) if split else (lambda args, n=name: n)
                hook = self._witt_result if name == "forms.witt_decompose" else None
                wrapper = self.wrap(orig, name_of, hook)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, orig))
            for module, cls_name, attr, split in METHODS:
                cls = getattr(importlib.import_module(f"cliffinv.{module}"), cls_name)
                orig = cls.__dict__[attr]
                name = f"{module}.{cls_name}.{attr}"
                name_of = _field_suffix(name) if split else (lambda args, n=name: n)
                if isinstance(orig, cached_property):
                    wrapper = cached_property(self.wrap(orig.func, name_of))
                    wrapper.__set_name__(cls, attr)
                else:
                    wrapper = self.wrap(orig, name_of)
                setattr(cls, attr, wrapper)
                undo.append((cls, attr, orig))
            forms = importlib.import_module("cliffinv.forms")
            orig = forms.rational_sqrt
            forms.rational_sqrt = self.wrap(orig, lambda args: FORMS_SQRT)
            undo.append((forms, "rational_sqrt", orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def metrics(self, overhead_s):
        """Every per-layer metric as {name: {"value", "unit"}}."""
        values = {}
        for name in span_names():
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
            values[f"{name}.errors"] = self.errors[name]
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.split(".")[0] == layer
            )
        values["forms.sqrt_probes_per_split"] = self.calls[FORMS_SQRT] / max(self.planes, 1)
        values["forms.kernel_bits_max"] = self.kernel_bits_max
        values["brauer.pairs_per_class"] = self.edges[
            "brauer.quaternion_from_class", "brauer.class_of_quaternion"
        ] / max(self.calls["brauer.quaternion_from_class"], 1)
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_units().items()}
