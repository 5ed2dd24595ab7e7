"""Span recorder for the traced run, installed from outside the program.

install() replaces each public rackgraph function listed in TARGETS with a
wrapper that records a span (name, start, end, parent, sizes).  A function is
replaced in its defining module and in every rackgraph module that imported
it by name, so calls through `from .linalg import smith_normal_form` are seen
too; methods are replaced on their class.  Spans are held in memory and
written as JSON lines when the pass ends.

Self time of a span is its duration minus the durations of its direct child
spans.  All times are integer nanoseconds, so by construction the self times
of one pass sum exactly to the duration of its root span; what can go wrong
is the nesting itself, which nesting_errors() checks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter_ns

ROOT = "bench.pass"


def _rref_name(args, kwargs):
    field = args[0] if args else kwargs["field"]
    return "linalg.rref_fp" if field.is_prime_field else "linalg.rref_q"


def _snf_sizes(args, kwargs, result):
    m = args[0]
    if hasattr(m, "nrows"):
        return {"cells": m.nrows * m.ncols}
    rows = [list(r) for r in m]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _rref_sizes(args, kwargs, result):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows_in": len(rows), "rank_out": len(result)}


def _complex_sizes(args, kwargs, result):
    return {
        "cells": sum(result.ranks),
        "boundary_nnz": sum(len(col) for cols in result.boundaries for col in cols),
    }


# (module, attribute or Class.method, span name or namer, sizes function)
TARGETS = (
    ("linalg", "smith_normal_form", "linalg.snf", _snf_sizes),
    ("linalg", "rref", _rref_name, _rref_sizes),
    ("linalg", "Subspace.reduce", "linalg.reduce", None),
    ("linalg", "Subspace.from_vectors", "linalg.subspace", None),
    ("linalg", "Subspace.add", "linalg.subspace", None),
    ("linalg", "Subspace.intersect", "linalg.subspace", None),
    ("linalg", "Subspace.contains", "linalg.subspace", None),
    ("linalg", "Subspace.contains_space", "linalg.subspace", None),
    ("cubical", "bq_chain_complex", "cubical.build", _complex_sizes),
    ("cubical", "eq_chain_complex", "cubical.build", _complex_sizes),
    ("cubical", "assert_boundary_squares_to_zero", "cubical.d2_check", None),
    ("cubical", "ChainComplex.boundary_matrix", "cubical.boundary_matrix", None),
    ("cubical", "homology", "cubical.snf_route", None),
    ("cubical", "betti_numbers_rational", "cubical.rational_route", None),
    ("hopf", "build_lm_hopf", "hopf.build", None),
    ("hopf", "verify_hopf", "hopf.verify_hopf", None),
    ("hopf", "augmentation_filtration", "hopf.filtration", None),
    ("hopf", "verify_connected_lemma", "hopf.lemma", None),
    ("hopf", "coinvariant_module", "hopf.coinvariant", None),
    ("hopf", "verify_graded_structure", "hopf.graded", None),
    ("liealg", "validate_lm_lie", "liealg.validate", None),
    ("liealg", "e_functor", "liealg.e_functor", None),
    ("liealg", "verify_e_truncation", "liealg.verify", None),
    ("lierack", "validate_matrix_lm_lie", "lierack.validate", None),
    ("lierack", "verify_rack_numeric", "lierack.verify_numeric", None),
    ("racks", "validate_rack", "racks.validate", None),
    ("racks", "validate_augmented", "racks.validate", None),
    ("racks", "inner_group", "racks.inner_group", None),
    ("racks", "associated_group_presentation", "racks.presentation", None),
    ("racks", "abelianization", "racks.presentation", None),
    ("graphs", "rack_to_graph", "graphs.convert", None),
    ("graphs", "graph_to_rack", "graphs.convert", None),
    ("graphs", "validate_group_like", "graphs.validate", None),
    ("jsonio", "load_path", "jsonio.load_path", None),
    ("jsonio", "canonical_json", "jsonio.canonical_json", None),
    ("cli", "render", "cli", None),
)


class Recorder:
    """In-memory span store.  Spans are lists [name, start, end, parent, sizes]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.enabled = True

    def wrap(self, fn, name, sizes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args, kwargs), 0, 0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if sizes is not None:
                span[4] = sizes(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The span around the whole pass; every other span descends from it."""
        span = [ROOT, perf_counter_ns(), 0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, int] = {}
        for i, s in enumerate(self.spans):
            out[s[0]] = out.get(s[0], 0) + (s[2] - s[1]) - child[i]
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that break the tree: exactly one root, first; every parent
        recorded before its child; every span inside its parent's interval."""
        errors = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if (parent == -1) != (i == 0) or parent >= i:
                errors.append(f"span {i} ({name}): parent {parent}")
            elif end < start:
                errors.append(f"span {i} ({name}): ends before it starts")
            elif parent >= 0:
                p = self.spans[parent]
                if start < p[1] or end > p[2]:
                    errors.append(f"span {i} ({name}): outside its parent {parent} ({p[0]})")
        return errors

    def counts(self) -> dict[str, int]:
        """Calls per span name plus the sums of every recorded size."""
        out: dict[str, int] = {}
        for s in self.spans:
            out[f"{s[0]}.calls"] = out.get(f"{s[0]}.calls", 0) + 1
            for k, v in (s[4] or {}).items():
                out[f"{s[0]}.{k}"] = out.get(f"{s[0]}.{k}", 0) + v
        return out

    def write_jsonl(self, path: str, pass_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, sizes) in enumerate(self.spans):
                rec = {"pass": pass_id, "id": i, "name": name, "parent": parent,
                       "start_ns": start, "end_ns": end, "sizes": sizes or {}}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def install() -> Recorder:
    """Wrap every target in every loaded rackgraph module; returns the recorder."""
    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("rackgraph.")]
    for mod_name, attr, name, sizes in TARGETS:
        mod = importlib.import_module(f"rackgraph.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(rec.wrap(raw.__func__, name, sizes)))
            else:
                setattr(cls, meth, rec.wrap(raw, name, sizes))
            continue
        fn = getattr(mod, attr)
        wrapped = rec.wrap(fn, name, sizes)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
    return rec
