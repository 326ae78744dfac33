"""The package exports only what the program runs.

A name exported by heislab/__init__.py must be used by the package itself
(outside its own definition), by a demo or by the bench.  Closed forms and
oracles that only the tests call live in tests/oracles.py instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heislab"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name
                  for node in tree.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names)


def used_names(path):
    """Names a file loads or reads as attributes, except inside the
    top-level definition of the same name."""
    used = set()

    def visit(node, owner):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id != owner):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != owner:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in ast.parse(path.read_text()).body:
        top = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               else None)
        visit(node, top)
    return used


def test_every_export_is_used_outside_the_tests():
    files = ([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
             + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py")))
    used = set().union(*(used_names(p) for p in files))
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"exported but used only by the tests: {unused}"
