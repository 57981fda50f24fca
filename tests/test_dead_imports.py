"""Every name a package module imports is read somewhere in that module, and
every private module-level name is read by some package module.

No linter ships with the project, so this stands in for pyflakes' unused-import
check and a dead-code scan: a deletion that leaves its imports or its private
helpers behind fails here.
"""

from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dcograph")

# names a module imports only to re-export them, as its docstring or comments say
RE_EXPORTS = {
    "recognize.py": {"ANY", "FORBIDDEN", "GRAMMAR_CLASSES", "MICRO_CLASSES", "RULES"},
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import, with the line of its first import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings its `__all__` lists."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    return names


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC) if f.endswith(".py")))
def test_module_reads_every_name_it_imports(module: str) -> None:
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    unread = {
        name: line for name, line in _imported(tree).items()
        if name not in _read(tree) and name not in RE_EXPORTS.get(module, set())
    }
    assert not unread, f"{module} imports names it never reads: {unread}"


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level `_name` (function, class or constant) the module defines, with its line."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names.setdefault(name, node.lineno)
    return names


def test_every_private_name_is_read_by_some_module() -> None:
    trees = {}
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        with open(os.path.join(SRC, module), encoding="utf-8") as fh:
            trees[module] = ast.parse(fh.read(), filename=module)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]
    assert not unread, f"private names no package module reads: {unread}"
