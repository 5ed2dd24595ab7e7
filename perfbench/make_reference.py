"""Freeze reference.json from the unrelabelled corpus.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of the checkout.  Runs every command of every workload
(full and quick) once on the documents in corpus/ and keeps, per command, the
expected exit code and the report fields that checks.py compares.  Golden
commands are checked against golden/ and get no entry.  Refuses to freeze a command
that does not exit 0, or a presentation whose abelianization rank is not the
orbit count.  Rerun only when the benchmark's command lists change.
"""

import json
import os
import sys

from rackgraph import cli, jsonio
from rackgraph.graphs import graph_to_rack
from rackgraph.racks import rack_orbits

import workloads


def _rack_of(path):
    kind, obj = jsonio.load_path(path)
    if kind == "rack":
        return obj
    return (graph_to_rack(obj) if kind == "graph" else obj).derived_rack()


def entry(cmd: workloads.Command) -> dict:
    path = os.path.join("corpus", f"{cmd.doc}.json")
    argv = [cmd.argv[0], path, *cmd.argv[2:]]
    code, text, _ = cli.render(argv)
    if code != 0:
        raise SystemExit(f"{cmd.key}: exit {code}, refusing to freeze\n{text}")
    ref = {"exit": code}
    report = json.loads(text)
    if cmd.check == "report":
        ref["report"] = report
    elif cmd.check == "presentation":
        ref["orbits"] = len(rack_orbits(_rack_of(path)))
        ref["torsion"] = report["abelianization"]["torsion"]
        if report["abelianization"]["rank"] != ref["orbits"]:
            raise SystemExit(f"{cmd.key}: abelianization rank is not the orbit count")
    elif cmd.check == "integrate":
        ref["validation"] = report["validation"]
        ref["residual_keys"] = sorted(report["rack_checks"]["residuals"])
    return ref


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        for quick in (False, True):
            for cmd in workloads.commands(name, os.getcwd(), quick):
                if cmd.check != "golden" and cmd.key not in reference:
                    reference[cmd.key] = entry(cmd)
                    print(f"froze {cmd.key}", flush=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
