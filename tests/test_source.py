"""Source checks that keep dead code from coming back.

They flag unused imports, unreferenced error classes, and top-level
functions, classes, methods and properties that only tests use, and keep
the CLI's report written in one place.  Every Python file must also parse
as Python 3.10, the oldest version the package supports.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "toc"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
BENCH = PACKAGE.parent.parent / "bench"
SCRIPTS = PACKAGE.parent.parent / "scripts"
TESTS = Path(__file__).resolve().parent


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


@pytest.mark.parametrize("path", [*MODULES, *sorted(SCRIPTS.glob("*.py"))], ids=lambda path: path.name)
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


def exported() -> set[str]:
    """The names in the package's __all__."""
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("toc/__init__.py has no __all__")


def test_no_top_level_function_or_class_is_used_only_by_tests():
    benchmark = [parse(path) for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_")]
    used_outside = exported().union(*map(names_read, benchmark))
    top_level = [(path, node, names_read(node)) for path in MODULES for node in parse(path).body]
    readers = Counter(name for _, _, names in top_level for name in names)
    # A definition's own body does not count: a recursive function reads itself.
    unused = [
        f"{path.name}: {node.name}"
        for path, node, names in top_level
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used_outside
        and readers[node.name] == (node.name in names)
    ]
    assert unused == [], f"used only by tests: {unused}"


def reads(tree: ast.AST) -> Counter:
    """How often each name is read, bare or as an attribute."""
    return Counter(
        node.attr if isinstance(node, ast.Attribute) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name)) and isinstance(node.ctx, ast.Load)
    )


def test_every_exported_name_is_read_outside_the_tests():
    # The acceptance gates count: they use rd_reward and the advantage functions as references.
    readers = [*MODULES, *sorted(SCRIPTS.glob("*.py")), TESTS / "test_acceptance.py",
               *(path for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_"))]
    read = set().union(*(reads(parse(path)) for path in readers))
    assert sorted(exported() - read) == [], "exported but read only by tests"


def test_no_method_or_property_is_read_only_by_tests():
    outside = [*MODULES, *sorted(SCRIPTS.glob("*.py")),
               *(path for path in sorted(BENCH.glob("*.py")) if not path.name.startswith("test_"))]
    read = sum((reads(parse(path)) for path in outside), Counter())
    methods = [
        (path, cls, node)
        for path in MODULES
        for cls in parse(path).body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # Python calls dunder methods itself; a method's own body does not count.
    unused = [
        f"{path.name}: {cls.name}.{node.name}"
        for path, cls, node in methods
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and read[node.name] == reads(node)[node.name]
    ]
    assert unused == [], f"used only by tests: {unused}"


def test_only_main_writes_a_report_and_no_command_builds_a_stage_row():
    functions = [node for node in parse(PACKAGE / "cli.py").body if isinstance(node, ast.FunctionDef)]
    writers = [fn.name for fn in functions if reads(fn)["_write_report"]]
    assert writers == ["main"]
    hand_built = [
        fn.name
        for fn in functions
        if fn.name.startswith("cmd_")
        and any(isinstance(node, ast.Constant) and node.value == "stage" for node in ast.walk(fn))
    ]
    assert hand_built == []


@pytest.mark.parametrize(
    "path",
    sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py"), *BENCH.glob("*.py"), *SCRIPTS.glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
