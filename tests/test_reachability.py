"""The package keeps only what a command reaches.

A public function or class that only tests use belongs in tests/oracles.py,
or nowhere.  The walk starts from the package's entry points: the console
script `main`, `write_corpus_files` and `golden_commands` (the golden script
and the benchmark's worker), and `rack_orbits` (the benchmark's reference
maker), together with the top-level code of every module.  From each
definition it reaches, it follows every name and attribute the definition
mentions, transitively.  Names are matched whatever module they come from,
so the walk can only find more than is reached, never less.
"""

import ast
from pathlib import Path

import rackgraph

ENTRIES = ("main", "write_corpus_files", "golden_commands", "rack_orbits")


def _mentions(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _definitions_and_roots():
    defs: dict[str, list] = {}  # name -> [(module, node)]
    roots = set(ENTRIES)
    for path in sorted(Path(rackgraph.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.stem, node))
            else:
                roots |= _mentions(node)
    return defs, roots


def test_every_public_definition_is_reached_from_an_entry_point():
    defs, todo = _definitions_and_roots()
    assert set(ENTRIES) <= defs.keys()
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in defs.get(name, ()):
                todo |= _mentions(node)
    unreached = sorted(
        f"{module}.{name}"
        for name, nodes in defs.items()
        for module, _ in nodes
        if not name.startswith("_") and name not in reached
    )
    assert not unreached, f"reached by no command: {unreached}"
