"""JSON round-tripping for forms, algebras and Brauer classes.

Scalars travel as strings in each field's format; the canonical dump is
byte-stable (sorted keys, fixed separators) so convert round trips are
exact.  An algebra's table travels flat and dense, dim^3 strings in
(i, j, k) order; the sparse rows are expanded only on output.
"""

from __future__ import annotations

import json

from .algebras import MAX_DIM, StructureAlgebra, sparse_row
from .brauer import BrauerClass2
from .forms import TRIVIAL_LABEL, DiagonalForm, QuadraticForm
from .scalars import field_from_json


class ParseError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"at {path}: {message}")
        self.path = path


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def form_to_json(q) -> dict:
    f = q.field
    if isinstance(q, DiagonalForm):
        body = {"entries": [f.elt_to_str(a) for a in q.entries]}
    else:
        body = {"gram": [[f.elt_to_str(x) for x in row] for row in q.gram]}
    return {"kind": "form", "base": f.to_json(), **body, "value_label": TRIVIAL_LABEL}


def form_from_json(d):
    try:
        field = field_from_json(d["base"])
    except (KeyError, ValueError) as e:
        raise ParseError("base", str(e))
    label = d.get("value_label", TRIVIAL_LABEL)
    if label != TRIVIAL_LABEL:
        raise ParseError("value_label", f"expected {TRIVIAL_LABEL!r}, got {label!r}")
    if "entries" in d:
        try:
            entries = tuple(field.elt_from_str(s) for s in d["entries"])
        except ValueError as e:
            raise ParseError("entries", str(e))
        return DiagonalForm(entries, field)
    gram = d.get("gram")
    if gram is None:
        raise ParseError("gram", "missing gram or entries")
    n = len(gram)
    rows = []
    for i, row in enumerate(gram):
        if len(row) != n:
            raise ParseError(f"gram[{i}]", "gram is not square")
        try:
            rows.append(tuple(field.elt_from_str(s) for s in row))
        except ValueError as e:
            raise ParseError(f"gram[{i}]", str(e))
    return QuadraticForm(tuple(rows), field)


def algebra_to_json(a: StructureAlgebra) -> dict:
    f = a.field
    zero = f.elt_to_str(f.zero())
    flat = []
    for plane in a.table:
        for row in plane:
            dense = [zero] * a.dim
            for k, c in row:
                dense[k] = f.elt_to_str(c)
            flat += dense
    return {
        "kind": "algebra",
        "base": f.to_json(),
        "dim": a.dim,
        "labels": list(a.labels),
        "table": flat,
        "unit": [f.elt_to_str(u) for u in a.unit],
    }


def algebra_from_json(d) -> StructureAlgebra:
    try:
        field = field_from_json(d["base"])
    except (KeyError, ValueError) as e:
        raise ParseError("base", str(e))
    dim = d["dim"]
    if not isinstance(dim, int) or not 0 <= dim <= MAX_DIM:
        raise ParseError("dim", f"expected an integer from 0 to {MAX_DIM}, got {dim!r}")
    for key in ("labels", "unit"):
        if not isinstance(d[key], list) or len(d[key]) != dim:
            raise ParseError(key, f"expected a list of {dim} entries, got {d[key]!r}")
    flat = d["table"]
    if len(flat) != dim**3:
        raise ParseError("table", f"expected {dim**3} entries, got {len(flat)}")
    try:
        vals = [field.elt_from_str(s) for s in flat]
    except ValueError as e:
        raise ParseError("table", str(e))
    table = [
        [sparse_row(vals[(i * dim + j) * dim : (i * dim + j + 1) * dim]) for j in range(dim)]
        for i in range(dim)
    ]
    unit = [field.elt_from_str(s) for s in d["unit"]]
    return StructureAlgebra(field, d["labels"], table, unit)


def class_to_json(c: BrauerClass2) -> dict:
    d = c.to_json()
    d["kind"] = "brauer-class"
    return d


def class_from_json(d) -> BrauerClass2:
    return BrauerClass2.from_strs(d["ramified"])


def to_json(obj) -> dict:
    if isinstance(obj, (DiagonalForm, QuadraticForm)):
        return form_to_json(obj)
    if isinstance(obj, StructureAlgebra):
        return algebra_to_json(obj)
    if isinstance(obj, BrauerClass2):
        return class_to_json(obj)
    raise TypeError(f"no JSON form for {type(obj)!r}")


def from_json(d):
    kind = d.get("kind")
    if kind == "form":
        return form_from_json(d)
    if kind == "algebra":
        return algebra_from_json(d)
    if kind == "brauer-class":
        return class_from_json(d)
    raise ParseError("kind", f"unknown kind {kind!r}")


def render_table(obj) -> str:
    """Human-readable rendering of a serialisable object."""
    if isinstance(obj, (DiagonalForm, QuadraticForm)):
        d = form_to_json(obj)
        lines = [f"quadratic form over {obj.field!r}"]
        if "entries" in d:
            lines.append("  diagonal: <" + ", ".join(d["entries"]) + ">")
        else:
            for row in d["gram"]:
                lines.append("  [ " + "  ".join(row) + " ]")
        lines.append(f"  value label: {d['value_label']}")
        return "\n".join(lines)
    if isinstance(obj, StructureAlgebra):
        lines = [f"algebra of dimension {obj.dim} over {obj.field!r}"]
        f = obj.field
        for i in range(obj.dim):
            for j in range(obj.dim):
                terms = [f"{f.elt_to_str(c)}*{obj.labels[k]}" for k, c in obj.table[i][j]]
                rhs = " + ".join(terms) if terms else "0"
                lines.append(f"  {obj.labels[i]} * {obj.labels[j]} = {rhs}")
        return "\n".join(lines)
    if isinstance(obj, BrauerClass2):
        places = ", ".join(str(v) for v in obj.sorted_places())
        return f"Brauer class ramified at {{{places}}}" if places else "trivial Brauer class"
    raise TypeError(f"no rendering for {type(obj)!r}")
