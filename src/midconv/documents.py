"""Canonical document format for systems, data, and reports.

Documents are JSON with a fixed key order, rationals as "p/q" strings
(denominator always present and positive), Gaussian scalars as {re, im}
objects, and matrices as row lists.  Serialization of a parsed canonical
document is byte-identical; parts and blocks are kept sorted by point, so
the canonical form is unambiguous.
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction

import midconv as lib  # Block, Datum and OkuboTriple, looked up at call time
from .errors import ParseError, ValidationError
from .exactalg import _DIGITS_BOUND, _MAX_DIGITS, GaussianRational, Matrix, gr
from .systems import PrincipalPart, System

__all__ = [
    "DOCUMENT_KINDS",
    "dumps_canonical",
    "parse_document",
    "serialize_document",
    "system_to_document",
    "system_from_document",
    "datum_to_document",
    "datum_from_document",
    "okubo_from_document",
    "normal_form_to_document",
    "trace_to_document",
    "scalar_to_json",
    "scalar_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "parse_scalar_flag",
]


# documents refuse integers CPython would not convert to or from str by
# default, so that every version refuses them with one error
_TOO_LONG = f"integers in documents are limited to {_MAX_DIGITS} decimal digits"


def _int_from_str(text: str) -> int:
    """int(text), refusing more than _MAX_DIGITS digits as CPython counts them."""
    if len(text) > _MAX_DIGITS and sum(map(str.isdigit, text)) > _MAX_DIGITS:
        raise ValidationError(_TOO_LONG)
    return int(text)


def _fraction_to_str(f: Fraction) -> str:
    if not (-_DIGITS_BOUND < f.numerator < _DIGITS_BOUND and f.denominator < _DIGITS_BOUND):
        raise ValidationError(_TOO_LONG)
    return f"{f.numerator}/{f.denominator}"


def _fraction_from_str(s) -> Fraction:
    if not isinstance(s, str) or "/" not in s:
        raise ValidationError(f"rational values must be 'p/q' strings, got {s!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(_int_from_str(num), _int_from_str(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {s!r}: {exc}") from None


def _count(value, field: str) -> int:
    if type(value) is not int or value < 0:
        raise ValidationError(f"{field} must be a non-negative integer, got {value!r}")
    return value


def _list(value, field: str, of: type = object) -> list:
    if not isinstance(value, list) or not all(isinstance(e, of) for e in value):
        raise ValidationError(f"{field} must be a list" + (" of objects" if of is dict else ""))
    return value


def scalar_to_json(x: GaussianRational) -> dict:
    return {"re": _fraction_to_str(x.re), "im": _fraction_to_str(x.im)}


def scalar_from_json(obj) -> GaussianRational:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ValidationError(f"scalar must be an object with re and im, got {obj!r}")
    return GaussianRational(_fraction_from_str(obj["re"]), _fraction_from_str(obj["im"]))


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(obj, rows=None, cols=None) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValidationError("matrix must be a list of rows")
    grid = [[scalar_from_json(e) for e in row] for row in obj]
    r = len(grid)
    c = len(grid[0]) if grid else (cols if cols is not None else 0)
    if any(len(row) != c for row in grid):
        raise ValidationError("matrix rows have unequal lengths")
    if rows is not None and r != rows:
        raise ValidationError(f"matrix has {r} rows, expected {rows}")
    if cols is not None and c != cols:
        raise ValidationError(f"matrix has {c} columns, expected {cols}")
    if r == 0 or c == 0:
        return Matrix.zeros(rows if rows is not None else r, cols if cols is not None else c)
    return Matrix.from_rows(grid)


def system_to_document(sys: System) -> dict:
    doc = {"kind": "system"}
    doc["dimension"] = sys.dimension
    doc["constant"] = matrix_to_json(sys.constant)
    doc["parts"] = [
        {
            "point": scalar_to_json(p.point),
            "coefficients": [matrix_to_json(c) for c in p.coefficients],
        }
        for p in sys.parts
    ]
    if sys.declaration is not None:
        doc["declarations"] = {
            "points": [scalar_to_json(s) for s, _ in sys.declaration],
            "orders": [l for _, l in sys.declaration],
        }
    return doc


def system_from_document(doc) -> System:
    if not isinstance(doc, dict) or doc.get("kind") != "system":
        raise ValidationError("expected a document of kind 'system'")
    try:
        n = _count(doc["dimension"], "dimension")
        constant = matrix_from_json(doc["constant"], rows=n, cols=n)
        parts = []
        for entry in _list(doc.get("parts", []), "parts", dict):
            point = scalar_from_json(entry["point"])
            coeffs = _list(entry["coefficients"], "coefficients")
            parts.append(PrincipalPart(point, tuple(matrix_from_json(c, n, n) for c in coeffs)))
        declaration = None
        if "declarations" in doc:
            decl = doc["declarations"]
            if not isinstance(decl, dict):
                raise ValidationError("declarations must be an object")
            pts = [scalar_from_json(s) for s in _list(decl["points"], "points")]
            orders = [_count(l, "order") for l in _list(decl["orders"], "orders")]
            if len(pts) != len(orders):
                raise ValidationError("declaration points and orders differ in length")
            declaration = tuple(zip(pts, orders))
    except KeyError as exc:
        raise ValidationError(f"missing document field {exc}") from None
    return System(n, constant, tuple(parts), declaration)


def datum_to_document(d: lib.Datum) -> dict:
    blocks = [
        {
            "point": scalar_to_json(b.point),
            "nilpotent": matrix_to_json(b.nilpotent),
            "q": matrix_to_json(b.q),
            "p": matrix_to_json(b.p),
        }
        for b in d.blocks
    ]
    return {"kind": "datum", "dimension": d.dim_v, "constant": matrix_to_json(d.s_matrix), "blocks": blocks}


def datum_from_document(doc) -> lib.Datum:
    if not isinstance(doc, dict) or doc.get("kind") != "datum":
        raise ValidationError("expected a document of kind 'datum'")
    try:
        n = _count(doc["dimension"], "dimension")
        constant = matrix_from_json(doc["constant"], rows=n, cols=n)
        blocks = []
        for entry in _list(doc.get("blocks", []), "blocks", dict):
            point = scalar_from_json(entry["point"])
            nil = matrix_from_json(entry["nilpotent"])
            w = nil.rows
            q = matrix_from_json(entry["q"], rows=n, cols=w)
            p = matrix_from_json(entry["p"], rows=w, cols=n)
            blocks.append(lib.Block(point, nil, q, p))
    except KeyError as exc:
        raise ValidationError(f"missing document field {exc}") from None
    return lib.Datum(n, tuple(blocks), constant)


def okubo_from_document(doc) -> lib.OkuboTriple:
    if not isinstance(doc, dict) or doc.get("kind") != "okubo":
        raise ValidationError("expected a document of kind 'okubo'")
    try:
        w = _count(doc["dimension"], "dimension")
        t = matrix_from_json(doc["t_matrix"], rows=w, cols=w)
        r = matrix_from_json(doc["r_matrix"], rows=w, cols=w)
    except KeyError as exc:
        raise ValidationError(f"missing document field {exc}") from None
    return lib.OkuboTriple(t, r)


def normal_form_to_document(nf, point) -> dict:
    doc = {"kind": "normal_form", "point": scalar_to_json(gr(point)), "order_bound": nf.k}
    doc["spectra"] = [
        {
            "coefficients": [scalar_to_json(c) for c in b.tail],
            "dimension": b.dim,
            "residue": matrix_to_json(b.gamma),
        }
        for b in nf.blocks
    ]
    return doc


def trace_to_document(trace) -> dict:
    return {
        "kind": "trace",
        "steps": [
            {
                "alpha": system_to_document(s.alpha),
                "lambda": scalar_to_json(s.lam),
                "rank_before": s.rank_before,
                "rank_after": s.rank_after,
                "result": system_to_document(s.result),
            }
            for s in trace.steps
        ],
    }


def dumps_canonical(obj) -> str:
    """The one true textual form: two-space indent, fixed key order as
    constructed, trailing newline."""
    return json.dumps(obj, indent=2, ensure_ascii=True) + "\n"


# the "kind" field of an input document -> the name of its Python type in
# the package, so that reading a system loads neither datum nor functors,
# and its reader
DocumentKind = namedtuple("DocumentKind", "type_name read")
DOCUMENT_KINDS = {
    "system": DocumentKind("System", system_from_document),
    "datum": DocumentKind("Datum", datum_from_document),
    "okubo": DocumentKind("OkuboTriple", okubo_from_document),
}


def parse_document(text: str):
    """JSON text -> typed document object, dispatching on 'kind'."""
    try:
        obj = json.loads(text, parse_int=_int_from_str)
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), line=exc.lineno, column=exc.colno) from None
    if not isinstance(obj, dict):
        raise ValidationError("document must be a JSON object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in DOCUMENT_KINDS:
        raise ValidationError(f"unknown document kind {kind!r}")
    return DOCUMENT_KINDS[kind].read(obj)


def serialize_document(sys: System) -> str:
    return dumps_canonical(system_to_document(sys))


def _flag_rational(text: str) -> Fraction:
    """An integer or 'p/q'; int() refuses exponents, which Fraction() expands in full."""
    num, slash, den = text.partition("/")
    return Fraction(_int_from_str(num), _int_from_str(den) if slash else 1)


def parse_scalar_flag(text: str) -> GaussianRational:
    """Lenient scalar syntax for CLI flags: 're' or 're,im', each part an
    integer or 'p/q'."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValidationError(f"bad scalar {text!r}")
    try:
        re = _flag_rational(parts[0])
        im = _flag_rational(parts[1]) if len(parts) == 2 else Fraction(0)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad scalar {text!r}: {exc}") from None
    return GaussianRational(re, im)
