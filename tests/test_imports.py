"""Every name a package module imports is used in that module, and every
private module-level definition is read somewhere in the package.

Each src/pbpsolve/*.py is parsed with ast.  A name counts as used when the
module reads it (a bare name, or the head of an attribute chain such as
np.exp) or lists it in __all__; __future__ imports are skipped.  A private
function, class or constant (a module-level name with one leading
underscore) counts as read when some package module loads it as a bare
name or an attribute (counterexample._BLOCK) or imports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import pbpsolve

MODULES = sorted(Path(pbpsolve.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The name each import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_the_package_modules_are_found():
    assert {"cli.py", "ghq_solver.py", "counterexample.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_every_imported_name_is_used(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), filename=str(module))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert unused == {}, f"{module.name}: imported and never used: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names a module defines at its top level, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_anywhere(trees: list[ast.Module]) -> set[str]:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return read


def test_every_private_definition_is_read():
    trees = {m.name: ast.parse(m.read_text(encoding="utf-8"), filename=str(m)) for m in MODULES}
    read = _read_anywhere(list(trees.values()))
    unread = {
        f"{module}:{line}": name
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    }
    assert unread == {}, f"private definitions the package never reads: {unread}"
