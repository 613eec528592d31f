"""Every name a package module imports is referenced in that module,
every module-level private function or class is referenced in the package,
and every public function, class and method is referenced by the package or
the benchmark outside its own definition and outside every public definition
that is itself unreferenced, so no library code lives for the tests alone.

A static scan: a name counts as referenced when it appears as an identifier
anywhere in the module or as a string in its `__all__`; for public names an
attribute counts too.  Names are matched without their owner, so two
definitions that share a name count as references to each other.
`__future__` imports are compiler directives and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fpvanish"
MODULES = sorted(SRC.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


def exported_names(tree: ast.Module) -> list[str]:
    """The strings of the module's `__all__`."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names.update(exported_names(tree))
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


def public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Name -> node of each public module-level function or class, and
    `Class.method` -> node of each public method of a public class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out[node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = item
    return out


def references(tree: ast.Module) -> dict[str, list[tuple[ast.AST, ...]]]:
    """Each identifier, attribute or `__all__` string -> the definitions
    enclosing each place it appears."""
    out: dict[str, list[tuple[ast.AST, ...]]] = {}
    stack = [(tree, ())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing += (node,)
        if isinstance(node, ast.Name):
            out.setdefault(node.id, []).append(enclosing)
        elif isinstance(node, ast.Attribute):
            out.setdefault(node.attr, []).append(enclosing)
        stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
    for name in exported_names(tree):
        out.setdefault(name, []).append(())
    return out


def unreferenced_public(defined: list[ast.Module], readers: list[ast.Module]) -> set[str]:
    """The public definitions of `defined` that no tree in `readers` names
    outside the definition itself and outside every unreferenced public
    definition: a name used only by dead code is dead too.  Each round drops
    the places inside the definitions found dead so far, until none is added."""
    refs: dict[str, list[tuple[ast.AST, ...]]] = {}
    for tree in readers:
        for name, places in references(tree).items():
            refs.setdefault(name, []).extend(places)
    defs = [(name, node) for tree in defined for name, node in public_definitions(tree).items()]
    dead: dict[str, ast.AST] = {}
    while True:
        found = {
            name: node
            for name, node in defs
            if not any(
                node not in enclosing and not any(d in enclosing for d in dead.values())
                for enclosing in refs.get(name.rsplit(".", 1)[-1], [])
            )
        }
        if found.keys() == dead.keys():
            return set(dead)
        dead = found


def test_no_public_definition_only_tests_reach():
    package = [ast.parse(path.read_text(encoding="utf-8")) for path in MODULES]
    benchmark = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCHMARK]
    unused = unreferenced_public(package, package + benchmark)
    assert not unused, f"public definitions nothing in the package or benchmark references: {sorted(unused)}"


def test_scan_catches_an_unused_public_definition():
    tree = ast.parse(
        "__all__ = ['exported']\n"
        "def exported():\n    pass\n"
        "def called():\n    pass\n"
        "def recursive():\n    recursive()\n"
        "class Box:\n"
        "    def read(self):\n        return self.read()\n"
        "    def write(self):\n        called()\n"
        "    def _hidden(self):\n        pass\n"
        "Box().write()\n"
    )
    assert unreferenced_public([tree], [tree]) == {"recursive", "Box.read"}
    reader = ast.parse("import m\nm.recursive()\nm.Box().read()\n")
    assert unreferenced_public([tree], [tree, reader]) == set()


def test_scan_follows_references_out_of_dead_definitions():
    # the shape of a method once kept alive only by a dead caller
    tree = ast.parse(
        "class Cover:\n"
        "    def canonical_keys(self):\n        return 1\n"
        "    def size(self):\n        return 2\n"
        "def shrink_to_irredundant(cover):\n    return cover.canonical_keys()\n"
        "def outer(cover):\n    return shrink_to_irredundant(cover)\n"
        "def live(cover):\n    return cover.size()\n"
        "live(Cover())\n"
    )
    assert unreferenced_public([tree], [tree]) == {"outer", "shrink_to_irredundant", "Cover.canonical_keys"}
    reader = ast.parse("import m\nm.outer(m.Cover())\n")
    assert unreferenced_public([tree], [tree, reader]) == set()
