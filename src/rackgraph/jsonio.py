"""JSON schemas for the structures the command line reads and writes.

Every document carries "schema": 1 and a "kind" tag.  Loading validates
shapes manually and reports the offending location as a JSON-pointer-like
path; structural axioms (rack identities, group associativity, ...) are NOT
checked here, that is the job of each kind's check, which the validate
command prints and every command refuses on, so a well-shaped but wrong
table loads fine and fails its check downstream.  Only a matrix_lm_lie
document imports `lierack`, and with it numpy, when it is loaded.

Canonical output: sorted keys, two-space indent, ASCII only with json's
escapes, trailing newline, floats rounded to 12 significant digits and
written as float repr (NaN, Infinity, -Infinity as json spells them), exact
rationals as integers or "p/q" strings.  The layout is that of
json.dumps(..., sort_keys=True, indent=2, ensure_ascii=True); one recursive
writer normalises as it emits, since json's C encoder does not indent.  Two
runs over the same exact data produce byte-identical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .liealg import LMLieAlgebra
from .racks import AugmentedRack, FiniteGroup, FiniteRack
from .graphs import GroupLikeGraph

SCHEMA_VERSION = 1

KINDS = ("rack", "augmented_rack", "graph", "lm_lie", "matrix_lm_lie")


class SchemaError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# canonical serialization


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_json(data) -> str:
    """The canonical text of a document built from dicts, lists, tuples,
    str, int, bool, None, float and Fraction."""
    out: list[str] = []
    _write(data, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out: list, nl: str) -> None:
    """Append the text of `value` to `out`; `nl` is a newline followed by
    the indent of the line `value` starts on.  Lists, ints, strings and
    dicts, nearly every node of a report, are found first by their exact
    type; None, bools, floats, Fractions and subclasses come after them."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, value)) == _INT_ONLY:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is str:
        out.append(_string(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        # keys become strings first: 1 and "1" are one key, the later value wins
        items = sorted({str(k): v for k, v in value.items()}.items())
        sep = "{" + inner
        for key, item in items:
            out.append(sep + _string(key) + ": ")
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(_string(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = repr(float(f"{value:.12g}"))
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, Fraction):
        out.append(
            int.__repr__(value.numerator)
            if value.denominator == 1
            else f'"{value.numerator}/{value.denominator}"'
        )
    elif isinstance(value, dict):
        _write(dict(value), out, nl)
    elif isinstance(value, (list, tuple)):
        _write(list(value), out, nl)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


_INT_ONLY = {int}


# ---------------------------------------------------------------------------
# shape helpers


def _need(obj, key, path):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing")
    return obj[key]


def _int_value(v, path) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, "expected an integer")
    return v


def _int_below(hi):
    """Value reader for `_matrix`: an integer in [0, hi)."""

    def read(v, path) -> int:
        x = _int_value(v, path)
        if not 0 <= x < hi:
            raise SchemaError(path, f"value {x} out of range [0, {hi})")
        return x

    return read


def _number_value(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, "expected a number")
    x = float(v)
    if x != x or x in (float("inf"), float("-inf")):
        raise SchemaError(path, "expected a finite number")
    return x


def _rational_value(v, path) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(path, "expected an integer or 'p/q' string")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"bad rational {v!r}") from None
    raise SchemaError(path, "expected an integer or 'p/q' string")


def _matrix(v, path, value_of, rows=None, cols=None):
    if not isinstance(v, list):
        raise SchemaError(path, "expected a list of rows")
    if rows is not None and len(v) != rows:
        raise SchemaError(path, f"expected {rows} rows, got {len(v)}")
    out = []
    width = cols
    for i, row in enumerate(v):
        if not isinstance(row, list):
            raise SchemaError(f"{path}/{i}", "expected a row list")
        if width is None:
            width = len(row)
        if len(row) != width:
            raise SchemaError(f"{path}/{i}", f"expected {width} entries, got {len(row)}")
        try:
            out.append([value_of(x, path) for x in row])
        except SchemaError:
            # read the row again entry by entry, so the error names the bad one
            for j, x in enumerate(row):
                value_of(x, f"{path}/{i}/{j}")
            raise
    return out


def _check_header(doc, path=""):
    schema = _need(doc, "schema", path)
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}/schema", f"unsupported version {schema!r}")
    kind = _need(doc, "kind", path)
    if kind not in KINDS:
        raise SchemaError(f"{path}/kind", f"unknown kind {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# per-kind dump/load


def dump_group(g: FiniteGroup) -> dict:
    return {"mul": [list(r) for r in g.mul], "identity": g.identity}


def load_group(doc, path) -> FiniteGroup:
    mul = _need(doc, "mul", path)
    n = len(mul) if isinstance(mul, list) else 0
    table = _matrix(mul, f"{path}/mul", _int_below(max(n, 1)), cols=n)
    if len(table) != n:
        raise SchemaError(f"{path}/mul", "must be square")
    identity = _int_value(_need(doc, "identity", path), f"{path}/identity")
    if not (0 <= identity < n):
        raise SchemaError(f"{path}/identity", "out of range")
    try:
        return FiniteGroup.make(table, identity)
    except ValueError as exc:
        # shape is fine; the table is not a group, which is a check failure
        raise TableNotGroup(str(exc)) from None


class TableNotGroup(ValueError):
    """Well-shaped multiplication table without group structure."""


def dump_rack(r: FiniteRack) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": "rack", "op": [list(row) for row in r.op]}


def load_rack(doc) -> FiniteRack:
    op_raw = _need(doc, "op", "")
    n = len(op_raw) if isinstance(op_raw, list) else 0
    op = _matrix(op_raw, "/op", _int_below(max(n, 1)), cols=n)
    if not op:
        raise SchemaError("/op", "a rack needs at least one element")
    return FiniteRack.make(op)


def dump_augmented(a: AugmentedRack) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "augmented_rack",
        "group": dump_group(a.group),
        "action": [list(row) for row in a.action],
        "pi": list(a.pi),
    }


def load_augmented(doc) -> AugmentedRack:
    group = load_group(_need(doc, "group", ""), "/group")
    action_raw = _need(doc, "action", "")
    nx = len(action_raw) if isinstance(action_raw, list) else 0
    action = _matrix(action_raw, "/action", _int_below(max(nx, 1)), cols=group.order)
    pi_raw = _need(doc, "pi", "")
    if not isinstance(pi_raw, list) or len(pi_raw) != nx:
        raise SchemaError("/pi", f"expected {nx} entries")
    pi = []
    for i, v in enumerate(pi_raw):
        v = _int_value(v, f"/pi/{i}")
        if not (0 <= v < group.order):
            raise SchemaError(f"/pi/{i}", "out of range")
        pi.append(v)
    return AugmentedRack.make(group, action, pi)


def dump_graph(q: GroupLikeGraph) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "graph",
        "vertex_group": dump_group(q.vertex_group),
        "arrows": [list(p) for p in q.arrows],
        "left_act": [list(row) for row in q.left_act],
        "right_act": [list(row) for row in q.right_act],
    }


def load_graph(doc) -> GroupLikeGraph:
    group = load_group(_need(doc, "vertex_group", ""), "/vertex_group")
    n = group.order
    arrows_raw = _need(doc, "arrows", "")
    arrows = _matrix(arrows_raw, "/arrows", _int_below(n), cols=2)
    na = len(arrows)
    arrow = _int_below(max(na, 1))
    left = _matrix(_need(doc, "left_act", ""), "/left_act", arrow, rows=n, cols=na)
    right = _matrix(_need(doc, "right_act", ""), "/right_act", arrow, rows=n, cols=na)
    return GroupLikeGraph(
        group, tuple(map(tuple, arrows)), tuple(map(tuple, left)), tuple(map(tuple, right))
    )


def dump_lm_lie(l: LMLieAlgebra) -> dict:
    def dense(rows, n):
        return [[row.get(k, 0) for k in range(n)] for row in rows]

    return {
        "schema": SCHEMA_VERSION,
        "kind": "lm_lie",
        "c": [dense(plane, l.dim_g) for plane in l.c],
        "rho": [dense(mat, l.dim_m) for mat in l.rho],
        "f": dense(l.f, l.dim_g),
    }


def load_lm_lie(doc) -> LMLieAlgebra:
    c_raw = _need(doc, "c", "")
    if not isinstance(c_raw, list):
        raise SchemaError("/c", "expected a list")
    ng = len(c_raw)
    c = [_matrix(p, f"/c/{i}", _rational_value, rows=ng, cols=ng) for i, p in enumerate(c_raw)]
    rho_raw = _need(doc, "rho", "")
    if not isinstance(rho_raw, list) or len(rho_raw) != ng:
        raise SchemaError("/rho", f"expected {ng} matrices")
    f_raw = _need(doc, "f", "")
    if not isinstance(f_raw, list):
        raise SchemaError("/f", "expected a list of rows")
    nm = len(f_raw)
    rho = [_matrix(mat, f"/rho/{a}", _rational_value, rows=nm, cols=nm) for a, mat in enumerate(rho_raw)]
    f = _matrix(f_raw, "/f", _rational_value, rows=nm, cols=ng)
    try:
        return LMLieAlgebra.make(c, rho, f, dim_g=ng, dim_m=nm)
    except ValueError as exc:
        raise SchemaError("", str(exc)) from None


def dump_matrix_lm_lie(l) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "matrix_lm_lie",
        "basis": [[list(map(float, row)) for row in mat] for mat in l.basis],
        "rho": [[list(map(float, row)) for row in mat] for mat in l.rho],
        "f": [list(map(float, row)) for row in l.f],
    }


def load_matrix_lm_lie(doc):
    """A `lierack.MatrixLMLie`; the only loader that imports numpy."""
    from .lierack import MatrixLMLie

    basis_raw = _need(doc, "basis", "")
    if not isinstance(basis_raw, list) or not basis_raw:
        raise SchemaError("/basis", "expected a nonempty list of matrices")
    m = len(basis_raw[0]) if isinstance(basis_raw[0], list) else 0
    basis = [_matrix(mat, f"/basis/{i}", _number_value, rows=m, cols=m) for i, mat in enumerate(basis_raw)]
    ng = len(basis)
    rho_raw = _need(doc, "rho", "")
    if not isinstance(rho_raw, list) or len(rho_raw) != ng:
        raise SchemaError("/rho", f"expected {ng} matrices")
    nx = len(rho_raw[0]) if rho_raw and isinstance(rho_raw[0], list) else 0
    rho = [_matrix(mat, f"/rho/{a}", _number_value, rows=nx, cols=nx) for a, mat in enumerate(rho_raw)]
    f = _matrix(_need(doc, "f", ""), "/f", _number_value, rows=nx, cols=ng)
    try:
        return MatrixLMLie.make(basis, rho, f)
    except ValueError as exc:
        raise SchemaError("", str(exc)) from None


_LOADERS = {
    "rack": load_rack,
    "augmented_rack": load_augmented,
    "graph": load_graph,
    "lm_lie": load_lm_lie,
    "matrix_lm_lie": load_matrix_lm_lie,
}


def load_document(doc):
    """Parse a structure document; returns (kind, object)."""
    kind = _check_header(doc)
    return kind, _LOADERS[kind](doc)


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError("", f"no such file: {path}") from None
    except OSError as exc:
        raise SchemaError("", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError("", f"not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:
        # a decode error, or an integer over the interpreter's digit limit
        raise SchemaError("", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("", "not valid JSON: nested too deeply") from None
    return load_document(doc)
