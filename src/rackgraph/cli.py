"""Command line around the library: `rackgraph <command> <input> [flags]`.

Subcommands take one structure file (see jsonio for the document kinds) and
print a canonical JSON report, or with convert the converted structure
itself.  Flags are read from one table, with exact names, as `--flag value`
or `--flag=value`; their defaults are Manifest's.  Exit codes: 0 every check
passed, 1 a check failed (the report carries the witnesses), 2 the input or
a flag's value is malformed (the report carries the offending location);
malformed argv also exits 2, with a usage line on stderr and no report.

Reports never embed file paths or floating-point data unless the command is
inherently numeric (validate on matrix data, integrate), so the exact
commands produce byte-identical output on any platform.  Only those two
load `lierack`, and with it numpy, inside the command: importing this module
loads neither.
"""

from __future__ import annotations

import gc
import os
import sys
from dataclasses import dataclass

from . import jsonio, liealg
from .cubical import (
    ComplexTooLarge,
    assert_boundary_squares_to_zero,
    betti_numbers_rational,
    bq_chain_complex,
    check_size,
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
    validate_rack,
)

# Everything allocated so far lives as long as the process: keep it out of
# every later collection.  Without numpy, whose long import used to push the
# start-up objects into the oldest generation, the first generation-1
# collection of a command walks them all: it landed inside `dgla
# sl2_adjoint` (2.40 -> 3.04 ms) and `homology dihedral_4` (4.36 -> 4.98
# ms) of a benchmark pass, and none happened in any pass once frozen.
# The freeze acts on the whole process: whatever the importing program
# made before this import is frozen too, and cyclic garbage among it is
# never collected.
gc.freeze()


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
# corpus peaks at 512, S5 on its transpositions (1.4e5) takes 0.3 s, and the
# conjugation rack of C_100, at the limit, takes 2.3 s and 140 MB over F2
# on a 2-core Xeon; S6 on its transpositions would be 7.8e6.
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


def _refuse_failed(rep) -> None:
    """Refuse the input when its kind's check fails, with the violations
    that validate prints for it."""
    if not rep.ok:
        raise CheckFailed(rep.violations)


def _as_augmented(kind, obj):
    """Any rack-like document that passes its kind's check, as an augmented
    rack; one that fails it raises CheckFailed with the check's violations."""
    if kind == "augmented_rack":
        _refuse_failed(validate_augmented(obj))
        return obj
    if kind == "rack":
        _refuse_failed(_rack_report(obj))
        try:
            return inner_group(obj)[1]
        except GroupTooLarge as exc:
            raise SchemaError("", str(exc)) from None
    if kind == "graph":
        _refuse_failed(validate_group_like(obj))
        return graph_to_rack(obj)
    raise SchemaError("/kind", f"expected a rack-like document, got {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(m: Manifest, kind, obj) -> tuple[int, dict]:
    report: dict = {"schema": jsonio.SCHEMA_VERSION, "command": "validate", "kind": kind}
    # each exact kind's check, which every command refuses on; built at each
    # call, so that it reads the names after the benchmark's tracer wraps them
    checks = {
        "rack": validate_rack,
        "augmented_rack": validate_augmented,
        "graph": validate_group_like,
        "lm_lie": liealg.validate_lm_lie,
    }
    if kind in checks:
        report.update(_report_from(checks[kind](obj)))
    else:  # matrix_lm_lie
        from . import lierack

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
    top = (m.max_degree if m.max_degree is not None else 3) + 1
    build = bq_chain_complex if m.complex_kind == "bq" else eq_chain_complex
    try:
        # before the |G|^3 checks; a bare rack's group is its inner group, built later
        if kind == "augmented_rack":
            check_size(m.complex_kind, obj.group.order, obj.x_size, top)
        elif kind == "graph":
            grp = obj.vertex_group
            check_size(m.complex_kind, grp.order, sum(s == grp.identity for s, _ in obj.arrows), top)
        a = _as_augmented(kind, obj)
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
    from . import lierack

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
        _refuse_failed(_rack_report(obj))  # the presentation needs no inner group
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


# Each command and the flags it takes besides --out and --golden-update.
_COMMANDS = {
    "validate": (_cmd_validate, ("--tol",)),
    "convert": (_cmd_convert, ("--to",)),
    "homology": (_cmd_homology, ("--max-degree", "--complex")),
    "hopf": (_cmd_hopf, ("--field", "--max-degree")),
    "dgla": (_cmd_dgla, ("--max-degree", "--convention")),
    "integrate": (_cmd_integrate, ("--tol", "--seed", "--samples")),
    "presentation": (_cmd_presentation, ()),
}


def run(m: Manifest) -> tuple[int, dict]:
    """Execute one manifest; returns (exit code, report document)."""
    try:
        _check_manifest(m)
        kind, obj = jsonio.load_path(m.input_path)
        return _COMMANDS[m.command][0](m, kind, obj)
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


# Each flag: the Manifest field it sets, the conversion of its value (None for
# a bare switch) and the values it allows, if only some.
_FLAGS = {
    "--field": ("field", str, None),
    "--max-degree": ("max_degree", int, None),
    "--complex": ("complex_kind", str, ("bq", "eq")),
    "--convention": ("convention", str, (liealg.KOSZUL, liealg.PLAIN)),
    "--to": ("to", str, ("graph", "rack")),
    "--tol": ("tol", float, None),
    "--seed": ("seed", int, None),
    "--samples": ("samples", int, None),
    "--out": ("out", str, None),
    "--golden-update": ("golden_update", None, None),
}

_USAGE = "usage: rackgraph <command> <input.json> [flags]\n"


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}rackgraph: error: {message}\n")
    raise SystemExit(2)


def _help() -> str:
    lines = [_USAGE, "commands and their flags; --to is required, the rest optional:"]
    for name, (_, flags) in _COMMANDS.items():
        shown = [f"{f} {'|'.join(_FLAGS[f][2] or [f[2:].upper()])}" for f in flags]
        lines.append(f"  {name:13s} {' '.join(shown)}".rstrip())
    lines.append("every command also takes --out PATH and --golden-update; -h, --help prints this")
    return "\n".join(lines) + "\n"


def manifest_from_args(argv) -> Manifest:
    """The Manifest of argv, the last repeat of a flag winning; malformed argv exits 2."""
    argv = list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_help())
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        _usage_error(f"the command must be one of {', '.join(_COMMANDS)}")
    command, rest = argv[0], iter(argv[1:])
    takes = (*_COMMANDS[command][1], "--out", "--golden-update")
    inputs, values = [], {}
    for tok in rest:
        if not tok.startswith("-"):
            inputs.append(tok)
            continue
        flag, eq, text = tok.partition("=")
        if flag not in takes:
            _usage_error(f"{command} takes no flag {flag}")
        field, convert, choices = _FLAGS[flag]
        if convert is None:
            if eq:
                _usage_error(f"{flag} takes no value")
            values[field] = True
            continue
        if not eq and ((text := next(rest, None)) is None or text.startswith("--")):
            _usage_error(f"{flag} needs a value")
        try:
            values[field] = convert(text)
        except ValueError:
            _usage_error(f"{flag}: invalid {convert.__name__} value {text!r}")
        if choices and text not in choices:
            _usage_error(f"{flag}: {text!r} is not one of {', '.join(choices)}")
    if len(inputs) != 1:
        _usage_error(f"{command} takes one input file, got {len(inputs)}")
    if command == "convert" and "to" not in values:
        _usage_error("convert needs --to")
    return Manifest(command, inputs[0], **values)


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
