"""Every name a package module imports is referenced in that module, and
every module-level private function or class is referenced in the package.

A static scan: a name counts as referenced when it appears as an identifier
anywhere in the module or as a string in its `__all__`.  `__future__`
imports are compiler directives and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fpvanish"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import statement's names (`import a.b` binds `a`)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never references: {unused}"


def test_scan_catches_an_unused_import():
    tree = ast.parse("from .errors import NotInSpanError, PreconditionError\nraise PreconditionError\n")
    assert set(imported_names(tree)) - referenced_names(tree) == {"NotInSpanError"}
    tree = ast.parse('from .x import a, b\n__all__ = ["a"]\nprint(b)\n')
    assert set(imported_names(tree)) - referenced_names(tree) == set()


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line of each module-level function or class whose name starts with `_`."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }


def test_no_unused_private_definitions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = {
        f"{name}:{defn}": line
        for name, tree in trees.items()
        for defn, line in private_definitions(tree).items()
        if defn not in used
    }
    assert not unused, f"private definitions nothing in the package references: {unused}"


def test_scan_catches_an_unused_private_definition():
    tree = ast.parse("def _used():\n    pass\ndef _dead():\n    pass\nclass _Dead:\n    pass\n_used()\n")
    assert set(private_definitions(tree)) - referenced_names(tree) == {"_dead", "_Dead"}
