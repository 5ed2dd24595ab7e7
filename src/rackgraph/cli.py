"""Command line around the library.

Subcommands take one structure file (see jsonio for the document kinds) and
print a canonical JSON report, or with convert the converted structure
itself.  Exit codes: 0 every check passed, 1 a check failed (the report
carries the witnesses), 2 the input or invocation is malformed (the report
carries the offending location).

Reports never embed file paths or floating-point data unless the command is
inherently numeric (validate on matrix data, integrate), so the exact
commands produce byte-identical output on any platform.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from . import jsonio, liealg, lierack
from .cubical import (
    ComplexTooLarge,
    assert_boundary_squares_to_zero,
    betti_numbers_rational,
    bq_chain_complex,
    eq_chain_complex,
    homology,
)
from .graphs import graph_to_rack, rack_to_graph, unit_component, validate_group_like
from .hopf import (
    DepthTooShallow,
    augmentation_filtration,
    build_lm_hopf,
    coinvariant_module,
    verify_connected_lemma,
    verify_graded_structure,
    verify_hopf,
)
from .jsonio import SchemaError, TableNotGroup, canonical_json
from .linalg import FieldSpec
from .racks import (
    abelianization,
    associated_group_presentation,
    inner_group,
    validate_augmented,
    validate_rack,
)


@dataclass
class Manifest:
    """One resolved invocation; run() needs nothing else."""

    command: str
    input_path: str
    field: str = "q"
    max_degree: int | None = None
    complex_kind: str = "bq"
    convention: str = liealg.KOSZUL
    to: str = "graph"
    tol: float | None = None
    seed: int = 0
    samples: int = 100
    out: str | None = None
    golden_update: bool = False


def _check_manifest(m: Manifest) -> None:
    if not os.path.exists(m.input_path):
        raise SchemaError("", f"no such file: {m.input_path}")
    if m.max_degree is not None and m.max_degree < 1:
        raise SchemaError("", "degree bound must be positive")
    if m.tol is not None and m.tol <= 0:
        raise SchemaError("", "tolerance must be positive")
    if m.samples < 1:
        raise SchemaError("", "sample count must be positive")
    try:
        FieldSpec.parse(m.field)
    except ValueError as exc:
        raise SchemaError("", str(exc)) from None


def _report_from(rep) -> dict:
    return {"ok": rep.ok, "checked": rep.checked, "violations": list(rep.violations)}


def _as_augmented(kind, obj):
    """Any rack-like document as an augmented rack."""
    if kind == "augmented_rack":
        return obj
    if kind == "rack":
        return inner_group(obj)[1]
    if kind == "graph":
        return graph_to_rack(obj)
    raise SchemaError("/kind", f"expected a rack-like document, got {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(m: Manifest, kind, obj) -> tuple[int, dict]:
    report: dict = {"schema": jsonio.SCHEMA_VERSION, "command": "validate", "kind": kind}
    if kind == "rack":
        rep = validate_rack(obj)
        report.update(_report_from(rep))
    elif kind == "augmented_rack":
        rep = validate_augmented(obj)
        report.update(_report_from(rep))
    elif kind == "graph":
        rep = validate_group_like(obj)
        report.update(_report_from(rep))
    elif kind == "lm_lie":
        rep = liealg.validate_lm_lie(obj)
        report.update(_report_from(rep))
    else:  # matrix_lm_lie
        rep = lierack.validate_matrix_lm_lie(obj, tol=m.tol if m.tol is not None else 1e-10)
        report.update(
            {"ok": rep.ok, "violations": list(rep.violations), "residuals": dict(rep.residuals)}
        )
    return (0 if report["ok"] else 1), report


def _cmd_convert(m: Manifest, kind, obj) -> tuple[int, dict]:
    if m.to == "graph":
        if kind == "graph":
            return 0, jsonio.dump_graph(obj)
        return 0, jsonio.dump_graph(rack_to_graph(_as_augmented(kind, obj)))
    if m.to == "rack":
        if kind == "graph":
            return 0, jsonio.dump_augmented(graph_to_rack(obj))
        if kind == "augmented_rack":
            return 0, jsonio.dump_augmented(obj)
        if kind == "rack":
            return 0, jsonio.dump_rack(obj)
    raise SchemaError("", f"cannot convert {kind!r} to {m.to!r}")


def _cmd_homology(m: Manifest, kind, obj) -> tuple[int, dict]:
    a = _as_augmented(kind, obj)
    top = (m.max_degree if m.max_degree is not None else 3) + 1
    build = bq_chain_complex if m.complex_kind == "bq" else eq_chain_complex
    try:
        complex_ = build(a, max_degree=top)
    except ComplexTooLarge as exc:
        raise SchemaError("", str(exc)) from None
    assert_boundary_squares_to_zero(complex_)
    result = homology(complex_)
    rational = betti_numbers_rational(complex_)
    ok = tuple(rational) == tuple(result.betti)
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "command": "homology",
        "complex": m.complex_kind,
        "max_degree": top - 1,
        "chain_ranks": list(complex_.ranks),
        "degrees": [
            {"betti": b, "torsion": list(t)} for b, t in zip(result.betti, result.torsion)
        ],
        "ok": ok,
    }
    if not ok:
        report["violations"] = [
            f"rational Betti numbers {list(rational)} disagree with {list(result.betti)}"
        ]
    return (0 if ok else 1), report


def _cmd_hopf(m: Manifest, kind, obj) -> tuple[int, dict]:
    a = _as_augmented(kind, obj)
    q = obj if kind == "graph" else rack_to_graph(a)
    field = FieldSpec.parse(m.field)
    b = build_lm_hopf(q, field)
    hopf_rep = verify_hopf(b)
    try:
        filt = augmentation_filtration(b, depth=m.max_degree)
        coinv = coinvariant_module(a, field, depth=m.max_degree)
    except DepthTooShallow as exc:
        raise SchemaError("", str(exc)) from None
    lemma_rep = verify_connected_lemma(b, filt)
    graded_rep = verify_graded_structure(b, filt, coinv)
    _, connected = unit_component(q)
    ok = hopf_rep.ok and lemma_rep.ok and graded_rep.ok
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "command": "hopf",
        "field": field.label(),
        "connected": connected,
        "group_dim": b.group.order,
        "arrow_dim": b.a_dim,
        "filtration_h": [s.dim for s in filt.levels_g],
        "filtration_a": [s.dim for s in filt.levels_a],
        "coinvariant_dims": list(coinv.p_dims),
        "identities": _report_from(hopf_rep),
        "ideal_lemma": _report_from(lemma_rep),
        "graded": _report_from(graded_rep),
        "ok": ok,
    }
    return (0 if ok else 1), report


def _cmd_dgla(m: Manifest, kind, obj) -> tuple[int, dict]:
    if kind != "lm_lie":
        raise SchemaError("/kind", f"expected lm_lie, got {kind!r}")
    base_rep = liealg.validate_lm_lie(obj)
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "command": "dgla",
        "convention": m.convention,
        "input_check": _report_from(base_rep),
    }
    if not base_rep.ok:
        report["ok"] = False
        return 1, report
    top = m.max_degree if m.max_degree is not None else 3
    t = liealg.e_functor(obj, top, convention=m.convention)
    ver = liealg.verify_e_truncation(t, obj)
    report["dims"] = list(t.dims)
    report["truncation_check"] = _report_from(ver)
    report["ok"] = ver.ok
    return (0 if ver.ok else 1), report


def _cmd_integrate(m: Manifest, kind, obj) -> tuple[int, dict]:
    if kind != "matrix_lm_lie":
        raise SchemaError("/kind", f"expected matrix_lm_lie, got {kind!r}")
    val = lierack.validate_matrix_lm_lie(obj, tol=1e-10)
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "command": "integrate",
        "validation": {
            "ok": val.ok,
            "violations": list(val.violations),
            "residuals": dict(val.residuals),
        },
    }
    if not val.ok:
        report["ok"] = False
        return 1, report
    rack = lierack.LinearLieRack(obj)
    ver = lierack.verify_rack_numeric(
        rack, samples=m.samples, seed=m.seed, tol=m.tol if m.tol is not None else 1e-9
    )
    report["rack_checks"] = {
        "ok": ver.ok,
        "violations": list(ver.violations),
        "residuals": dict(ver.residuals),
    }
    report["ok"] = ver.ok
    return (0 if ver.ok else 1), report


def _cmd_presentation(m: Manifest, kind, obj) -> tuple[int, dict]:
    a = _as_augmented(kind, obj)
    r = obj if kind == "rack" else a.derived_rack()
    p = associated_group_presentation(r)
    rank, divisors = abelianization(p)
    report = {
        "schema": jsonio.SCHEMA_VERSION,
        "command": "presentation",
        "generators": list(p.generator_names),
        "relations": p.words_as_strings(),
        "abelianization": {"rank": rank, "torsion": list(divisors)},
        "ok": True,
    }
    return 0, report


_COMMANDS = {
    "validate": _cmd_validate,
    "convert": _cmd_convert,
    "homology": _cmd_homology,
    "hopf": _cmd_hopf,
    "dgla": _cmd_dgla,
    "integrate": _cmd_integrate,
    "presentation": _cmd_presentation,
}


def run(m: Manifest) -> tuple[int, dict]:
    """Execute one manifest; returns (exit code, report document)."""
    try:
        _check_manifest(m)
        kind, obj = jsonio.load_path(m.input_path)
        return _COMMANDS[m.command](m, kind, obj)
    except SchemaError as exc:
        report = {
            "schema": jsonio.SCHEMA_VERSION,
            "command": m.command,
            "ok": False,
            "error": {"path": exc.path, "message": exc.message},
        }
        return 2, report
    except TableNotGroup as exc:
        report = {
            "schema": jsonio.SCHEMA_VERSION,
            "command": m.command,
            "ok": False,
            "violations": [f"multiplication table is not a group: {exc}"],
        }
        return 1, report


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rackgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **flags):
        p = sub.add_parser(name)
        p.add_argument("input", help="structure file (JSON)")
        if flags.get("field"):
            p.add_argument("--field", default="q", help="q, f2, f3, or f<p>")
        if flags.get("degree"):
            p.add_argument("--max-degree", type=int, default=None)
        if flags.get("complex"):
            p.add_argument("--complex", choices=("bq", "eq"), default="bq")
        if flags.get("convention"):
            p.add_argument(
                "--convention", choices=(liealg.KOSZUL, liealg.PLAIN), default=liealg.KOSZUL
            )
        if flags.get("to"):
            p.add_argument("--to", choices=("graph", "rack"), required=True)
        if flags.get("tol"):
            p.add_argument("--tol", type=float, default=None)
        if flags.get("sampling"):
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--samples", type=int, default=100)
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument(
            "--golden-update",
            action="store_true",
            help="allow --out to overwrite a file whose content differs",
        )
        return p

    add("validate", tol=True)
    add("convert", to=True)
    add("homology", degree=True, complex=True)
    add("hopf", field=True, degree=True)
    add("dgla", degree=True, convention=True)
    add("integrate", tol=True, sampling=True)
    add("presentation")
    return parser


def manifest_from_args(argv) -> Manifest:
    ns = _build_parser().parse_args(argv)
    m = Manifest(command=ns.command, input_path=ns.input)
    for name in ("field", "complex", "convention", "to", "tol", "seed", "samples", "out"):
        if hasattr(ns, name):
            attr = "complex_kind" if name == "complex" else name
            setattr(m, attr, getattr(ns, name))
    if hasattr(ns, "max_degree"):
        m.max_degree = ns.max_degree
    m.golden_update = ns.golden_update
    return m


def render(argv) -> tuple[int, str, Manifest]:
    """Parse, run, serialize; shared by main(), tests, and the golden script."""
    m = manifest_from_args(argv)
    code, report = run(m)
    return code, canonical_json(report), m


def main(argv=None) -> int:
    code, text, m = render(sys.argv[1:] if argv is None else argv)
    if m.out is None:
        sys.stdout.write(text)
        return code
    if os.path.exists(m.out) and not m.golden_update:
        with open(m.out, "r", encoding="utf-8") as fh:
            if fh.read() != text:
                sys.stderr.write(
                    f"refusing to overwrite {m.out} with different content"
                    " (pass --golden-update to allow)\n"
                )
                return 2
    with open(m.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
