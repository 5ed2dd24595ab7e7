"""Correctness checks of one pass, run after its timed loop.

Each command's exit code and report are compared with reference.json, which
make_reference.py takes from the unrelabelled corpus at the commit that
defined this benchmark.  Only fields that do
not depend on the labelling are compared:

- report: the whole report (homology, hopf, dgla, validate); floats, which
  only matrix validation prints, to a relative 1e-6;
- presentation: the abelianization, whose rank must equal the orbit count;
- integrate: the validation block, the set of residuals and rack_checks.ok;
- convert: a round trip through the other representation must give back the
  same bytes;
- golden: the output must equal golden/<name>.json byte for byte.

Every generated input must also load and validate.
"""

from __future__ import annotations

import json
import math
import os

from rackgraph import cli


def same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-12)
        )
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            same(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same(g, w) for g, w in zip(got, want)
        )
    return type(got) is type(want) and got == want


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _convert(text: str, to: str, scratch: str) -> str | None:
    """Convert a document given as text with the CLI; None on a nonzero exit."""
    path = os.path.join(scratch, "convert_input.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    code, out, _ = cli.render(["convert", path, "--to", to])
    return out if code == 0 else None


def check(cmd: dict, code, text, ref: dict, golden_dir: str, scratch: str) -> str | None:
    """None when the command's result is right, else a one-line reason.
    Golden commands need no reference entry: they must exit 0."""
    kind = cmd["check"]
    if kind == "golden":
        if code != 0:
            return f"exit {code}, expected 0"
        return None if text == _read(os.path.join(golden_dir, f"{cmd['golden']}.json")) else "differs from golden"
    if ref is None:
        return "no reference entry"
    if code != ref["exit"]:
        return f"exit {code}, expected {ref['exit']}"
    if kind == "convert":
        to = cmd["argv"][cmd["argv"].index("--to") + 1]
        source = _read(cmd["argv"][1])
        in_kind = json.loads(source)["kind"]
        if (in_kind == "graph") == (to == "graph"):
            ok = text == source  # already in the target form: returned as is
        elif to == "rack":
            ok = _convert(text, "graph", scratch) == source
        else:
            rack = _convert(text, "rack", scratch)
            ok = rack is not None and _convert(rack, "graph", scratch) == text
        return None if ok else "convert round trip does not reproduce the bytes"
    report = json.loads(text)
    if kind == "report":
        return None if same(report, ref["report"]) else "report differs from the reference"
    if kind == "presentation":
        ab = report["abelianization"]
        if ab["rank"] != ref["orbits"]:
            return f"abelianization rank {ab['rank']} != orbit count {ref['orbits']}"
        return None if ab["torsion"] == ref["torsion"] else "abelianization torsion differs"
    if kind == "integrate":
        if not same(report["validation"], ref["validation"]):
            return "validation differs from the reference"
        checks = report["rack_checks"]
        if sorted(checks["residuals"]) != ref["residual_keys"] or checks["ok"] is not True:
            return "rack checks differ from the reference"
        return None
    raise ValueError(f"unknown check {kind!r}")


def input_ok(path: str) -> bool:
    """Does a generated document load and pass validate?"""
    code, _, _ = cli.render(["validate", path])
    return code == 0
