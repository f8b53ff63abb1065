import ast
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
