"""Every name a package module imports is read somewhere in that module.

No linter ships with the project, so this stands in for pyflakes' unused-import
check: a deletion that leaves its imports behind fails here.
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
