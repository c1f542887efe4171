"""Every name a module exports resolves, and every top-level function and
class in ``src/earlab`` is reached from the command line or a demo, so an
export left behind by a removal, or a definition nothing calls, fails here."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import earlab

MODULES = [importlib.import_module(f"earlab.{m.name}") for m in pkgutil.iter_modules(earlab.__path__)]
SRC = Path(earlab.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Traced layers of perfbench/layers.json, which perfbench/spans.install looks
# up with getattr, so they stay until the benchmark definition drops them;
# _distributive_on is called only by check_mchain.
UNREACHED = {
    "complexes.boundary_complex",
    "complexes.union_complexes",
    "complexes.intersection_complexes",
    "lattices.check_mchain",
    "lattices.closure_under_ops",
    "lattices._distributive_on",
}


def test_every_module_export_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def _definitions():
    """(module, name) -> top-level node, and each module's namespace: its own
    definitions and what it imports from sibling modules."""
    defs, spaces = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        space = spaces[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                space.update({a.asname or a.name: (node.module, a.name) for a in node.names})
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update({(mod, n.id): node for head in node.targets for n in ast.walk(head) if isinstance(n, ast.Name)})
        space.update({name: (m, name) for m, name in defs if m == mod})
    return defs, spaces


def test_every_definition_is_reached_from_a_command_or_a_demo():
    defs, spaces = _definitions()
    todo = [("cli", "main")]
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("earlab."):
                todo += [(node.module.split(".")[1], a.name) for a in node.names]
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached or key not in defs:
            continue
        reached.add(key)
        space = spaces[key[0]]
        todo += [space[n.id] for n in ast.walk(defs[key]) if isinstance(n, ast.Name) and n.id in space]
    unreached = {
        f"{mod}.{name}"
        for (mod, name), node in defs.items()
        if (mod, name) not in reached and isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert unreached - UNREACHED == set(), "defined in src/earlab, reached by no command or demo"
    assert UNREACHED - unreached == set(), "reached now, so no longer exempt"
