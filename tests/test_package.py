"""The package holds only what the command line runs (ROADMAP aim 2: code
that only tests call is removed; tests keep their references in
tests/reference.py).

A name-level walk over the syntax trees of every module of src/protoplace.
It starts at cli.main and at each module's import-time statements: every
statement but a top-level def or class, and the decorators of those.  A
name or attribute it meets reaches every top-level function and class of
that name, in any module, whose whole definition it then walks.  Matching
by name can miss an unused definition (one that shares a used name) but
never flags a used one.
"""
import ast
from pathlib import Path

import protoplace

PACKAGE = Path(protoplace.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def unreached(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each top-level function and class the walk from
    cli.main and the import-time statements does not reach, sorted."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    aliases: dict[str, str] = {}  # `from .m import a as b`: b names a
    todo: list[ast.AST] = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFS):
                defs.setdefault(node.name, []).append((module, node))
                todo.extend(node.decorator_list)
            else:
                todo.append(node)
            if isinstance(node, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in node.names if a.asname)
    [main] = [node for module, node in defs["main"] if module == "cli"]
    reached = {"main"}
    todo.append(main)
    while todo:
        for sub in ast.walk(todo.pop()):
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            name = aliases.get(name, name)
            if name in defs and name not in reached:
                reached.add(name)
                todo.extend(node for _, node in defs[name])
    return sorted(f"{module}.{name}" for name, found in defs.items()
                  if name not in reached for module, _ in found)


def test_every_function_and_class_is_reached_from_the_cli():
    trees = package_trees()
    assert {"cli", "data", "linalg", "metrics", "prototypes", "refine"} <= set(trees)
    missing = unreached(trees)
    assert not missing, f"reached from no CLI path: {', '.join(missing)}"


def test_the_walk_flags_a_definition_only_a_test_could_call():
    # the walk itself, on a two-module package: a definition used only by
    # another unreached one is unreached too; a decorator and a module-level
    # table are import-time uses, and an import alias names its original
    trees = {"cli": ast.parse(
        "from .lib import helper as h\n"
        "TABLE = {'x': table_entry}\n"
        "@decorate\n"
        "def unused(): return only_unused()\n"
        "def main(): return h()\n"),
        "lib": ast.parse(
        "def helper(): return 1\n"
        "def table_entry(): pass\n"
        "def decorate(f): return f\n"
        "def only_unused(): pass\n"
        "class Orphan: pass\n")}
    assert unreached(trees) == ["cli.unused", "lib.Orphan", "lib.only_unused"]
