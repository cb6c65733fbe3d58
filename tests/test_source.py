"""Source checks that keep dead code from coming back: unused imports and error classes."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toc"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_read(tree: ast.AST) -> set[str]:
    """Every bare name the module's code refers to, outside its import statements."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def bound_by_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line; __future__ imports bind nothing."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = parse(path)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in bound_by_imports(tree).items()
        if name not in names_read(tree)
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_error_class_is_raised_or_caught_somewhere():
    classes = {
        node.name: [base.id for base in node.bases if isinstance(base, ast.Name)]
        for node in parse(PACKAGE / "errors.py").body
        if isinstance(node, ast.ClassDef)
    }
    referenced: set[str] = set()
    for path in MODULES:
        if path.name != "errors.py":
            referenced |= names_read(parse(path)) & classes.keys()
    # A base class is alive while any class derived from it is.
    live = set(referenced)
    while True:
        bases = {base for name in live for base in classes[name] if base in classes}
        if bases <= live:
            break
        live |= bases
    assert sorted(classes.keys() - live) == []
