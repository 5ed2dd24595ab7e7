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
import functools
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
    level_at,
    verify_connected_lemma,
    verify_graded_structure,
    verify_hopf,
)
from .jsonio import SchemaError, TableNotGroup, canonical_json
from .linalg import FieldSpec
from .racks import (
    GroupTooLarge,
    _rack_report,
    abelianization,
    associated_group_presentation,
    inner_group,
    validate_augmented,
    validate_group,
    validate_rack,
)


# Largest --max-degree that homology and hopf accept.  The longest hopf
# filtration on the corpus has 10 levels, and a complex on two or more rack
# elements is over the size cap from degree 20; past this, a one-element
# rack only costs time, and hopf only lengthens its lists.
MAX_DEGREE = 64

# Largest --samples that integrate accepts.  Every sample holds a few
# matrices of each stage at once, so time and memory grow with the count:
# so(3) on R^3 at the limit takes about 2.5 s and 290 MB on a 2-core Xeon.
MAX_SAMPLES = 100_000

# Largest samples * (m^2 + dim_x^2) that integrate accepts, m the size of
# the Lie algebra's matrices and dim_x that of the module: each sample holds
# a few matrices of both sizes.  so(3) at MAX_SAMPLES costs 1.8e6; a 20 x 20
# input at 4000 samples costs 3.2e6 and takes 2.2 s and 500 MB.
MAX_SAMPLE_COST = 2 * 10**6

# Largest |G| |arrows| = |G|^2 |X| that hopf accepts, the size of the
# group's action tables on the arrows, capped like cubical.SIZE_CAP.  The
# corpus peaks at 512 and S5 on its transpositions (1.4e5) takes 1.6 s;
# S6 on its transpositions (7.8e6) takes 110 s and 785 MB over F2.
MAX_HOPF_SIZE = 10**6


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
    if m.command in ("homology", "hopf") and (m.max_degree or 0) > MAX_DEGREE:
        raise SchemaError("", f"degree bound {m.max_degree} exceeds the limit {MAX_DEGREE}")
    # no residual exceeds nan or inf, so either would pass every check
    if m.tol is not None and not 0 < m.tol < float("inf"):
        raise SchemaError("", "tolerance must be finite and positive")
    if m.seed < 0:
        raise SchemaError("", "seed must be non-negative")
    if m.samples < 1:
        raise SchemaError("", "sample count must be positive")
    if m.samples > MAX_SAMPLES:
        raise SchemaError("", f"sample count {m.samples} exceeds the limit {MAX_SAMPLES}")
    try:
        FieldSpec.parse(m.field)
    except ValueError as exc:
        raise SchemaError("", str(exc)) from None


def _report_from(rep) -> dict:
    return {"ok": rep.ok, "checked": rep.checked, "violations": list(rep.violations)}


class CheckFailed(Exception):
    """A well-formed input fails a check that the command needs before it
    can start; the command exits 1 with these violations."""

    def __init__(self, violations):
        super().__init__(violations)
        self.violations = list(violations)


def _check_rack(r) -> None:
    """Refuse a bare rack that fails validate, with validate's violations."""
    rep = _rack_report(r)
    if not rep.ok:
        raise CheckFailed(rep.violations)


def _as_augmented(kind, obj):
    """Any rack-like document as an augmented rack whose group table is
    associative and whose action is an action, which the hopf filtrations
    need to step by a generating set of the group."""
    if kind == "augmented_rack":
        bad = [*validate_group(obj.group).violations, *validate_augmented(obj).violations]
        if bad:
            raise CheckFailed(bad)
        return obj
    if kind == "rack":
        _check_rack(obj)
        try:
            return inner_group(obj)[1]
        except GroupTooLarge as exc:
            raise SchemaError("", str(exc)) from None
    if kind == "graph":
        rep = validate_group_like(obj)
        if not rep.ok:
            raise CheckFailed(rep.violations)
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
            return 0, jsonio.dump_augmented(_as_augmented(kind, obj))
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


def _dims(levels, length: int) -> list[int]:
    return [level_at(levels, n).dim for n in range(length)]


def _check_hopf_size(kind, obj) -> None:
    """Refuse an augmented rack or graph whose arrow tables are over MAX_HOPF_SIZE."""
    if kind == "graph":
        g, na = obj.vertex_group.order, len(obj.arrows)
        size, factors = g * na, f"|G| |arrows| = {g} * {na}"
    else:
        g, x = obj.group.order, obj.x_size
        size, factors = g * g * x, f"|G|^2 |X| = {g}^2 * {x}"
    if size > MAX_HOPF_SIZE:
        raise SchemaError("", f"hopf size {factors} = {size} exceeds the limit {MAX_HOPF_SIZE}")


def _cmd_hopf(m: Manifest, kind, obj) -> tuple[int, dict]:
    # before the checks, which cost |G|^3 and more; a bare rack has a group
    # only once its inner group is built
    if kind in ("augmented_rack", "graph"):
        _check_hopf_size(kind, obj)
    a = _as_augmented(kind, obj)
    if kind == "rack":
        _check_hopf_size("augmented_rack", a)
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
        # the chains end at their first repeat; the report shows A to the
        # depth and H two levels further, or to its own repeat if later
        "filtration_h": _dims(filt.levels_g, max(len(filt.levels_g) + 1, filt.depth + 3)),
        "filtration_a": _dims(filt.levels_a, filt.depth + 1),
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
    try:
        t = liealg.e_functor(obj, top, convention=m.convention)
    except liealg.TruncationTooLarge as exc:
        raise SchemaError("", str(exc)) from None
    ver = liealg.verify_e_truncation(t, obj)
    report["dims"] = list(t.dims)
    report["truncation_check"] = _report_from(ver)
    report["ok"] = ver.ok
    return (0 if ver.ok else 1), report


def _cmd_integrate(m: Manifest, kind, obj) -> tuple[int, dict]:
    if kind != "matrix_lm_lie":
        raise SchemaError("/kind", f"expected matrix_lm_lie, got {kind!r}")
    cost = m.samples * (obj.m**2 + obj.dim_x**2)
    if cost > MAX_SAMPLE_COST:
        raise SchemaError(
            "",
            f"sample cost samples * (m^2 + dim_x^2) = {m.samples} * ({obj.m}^2 + {obj.dim_x}^2)"
            f" = {cost} exceeds the limit {MAX_SAMPLE_COST}",
        )
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
    if kind == "rack":
        _check_rack(obj)  # the presentation needs no inner group
        r = obj
    else:
        r = _as_augmented(kind, obj).derived_rack()
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
        violations = [f"multiplication table is not a group: {exc}"]
    except CheckFailed as exc:
        violations = exc.violations
    return 1, {
        "schema": jsonio.SCHEMA_VERSION,
        "command": m.command,
        "ok": False,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# argument parsing


# Built on the first command, not at import, which is timed on its own;
# parse_args leaves the parser as it was, so every command shares it.
@functools.cache
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
    try:
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
    except OSError as exc:
        sys.stderr.write(f"cannot write {m.out}: {exc.strerror}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
