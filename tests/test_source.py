import ast
import types
from pathlib import Path

import oracleopt


def source_trees():
    for path in sorted(Path(oracleopt.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_sources_hold_no_assert_statements():
    # Invariants must raise explicit errors: `python -O` strips asserts.
    found = []
    for name, tree in source_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_sources_import_only_at_module_level():
    # An import inside a function hides a dependency, or a cycle, until it runs.
    found = []
    for name, tree in source_trees():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_public_names_are_used_by_the_package_or_the_benchmark():
    # No public API may exist only for its own unit tests: each exported name
    # other than a submodule is read somewhere in src/oracleopt (outside
    # __init__.py) or perfbench/.  An import alone does not count.
    root = Path(oracleopt.__file__).parent
    paths = [p for p in sorted(root.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root.parents[1] / "perfbench").glob("*.py"))
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = [name for name in oracleopt.__all__
                if not isinstance(getattr(oracleopt, name), types.ModuleType)]
    assert exported and [name for name in exported if name not in used] == []
