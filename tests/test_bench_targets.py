"""The benchmark's span names resolve to functions of the package.

perfbench/tracer.py wraps each TARGETS entry by name; a renamed or deleted
function would fail only the benchmark's own suite, so this checks every
name the way install() reads it."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module, attr, *_ in tracer.TARGETS:
        mod = importlib.import_module(f"rackgraph.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert not missing
