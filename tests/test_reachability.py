"""The package keeps only what a command reaches.

A public function, class or method that only tests use belongs in
tests/oracles.py, or nowhere.  The walk starts from the package's entry
points: the console script `main`, `write_corpus_files` and
`golden_commands` (the golden script and the benchmark's worker), and
`rack_orbits` (the benchmark's reference maker), together with the top-level
code of every module.  From each definition it reaches, it follows every name
and attribute the definition mentions, transitively.  A reached class brings
its own body along but not its public methods: each of those is reached only
when some reached code mentions its name.  Names are matched whatever module
or class they come from, so the walk can only find more than is reached,
never less.
"""

import ast
from pathlib import Path

import rackgraph

ENTRIES = ("main", "write_corpus_files", "golden_commands", "rack_orbits")

# Methods that the benchmark's tracer wraps by name (perfbench/tracer.py
# TARGETS) and no command calls.  Subspace.add is wrapped too, but the walk
# reaches it by name through the set.add of reached code.
KEPT_FOR_BENCHMARK = ("intersect",)


def _mentions(node) -> set[str]:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _is_public_method(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _definitions_and_roots():
    # name -> [(qualified name, nodes whose mentions it brings along)]
    defs: dict[str, list] = {}
    roots = set(ENTRIES) | set(KEPT_FOR_BENCHMARK)
    for path in sorted(Path(rackgraph.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).append((f"{path.stem}.{node.name}", [node]))
            elif isinstance(node, ast.ClassDef):
                qualified = f"{path.stem}.{node.name}"
                own = node.bases + node.keywords + node.decorator_list
                own += [item for item in node.body if not _is_public_method(item)]
                defs.setdefault(node.name, []).append((qualified, own))
                for item in filter(_is_public_method, node.body):
                    defs.setdefault(item.name, []).append((f"{qualified}.{item.name}", [item]))
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
            for _, nodes in defs.get(name, ()):
                for node in nodes:
                    todo |= _mentions(node)
    unreached = sorted(
        qualified
        for name, entries in defs.items()
        for qualified, _ in entries
        if not name.startswith("_") and name not in reached
    )
    assert not unreached, f"reached by no command: {unreached}"
