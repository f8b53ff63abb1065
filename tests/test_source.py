import ast
import inspect
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
    # __init__.py) or perfbench/, and an exported function outside the module
    # that defines it.  Classes and exceptions may be read only there: users
    # receive or catch them.  An import alone does not count.
    root = Path(oracleopt.__file__).parent
    paths = [p for p in sorted(root.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root.parents[1] / "perfbench").glob("*.py"))
    readers: dict[str, set[Path]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                readers.setdefault(node.id, set()).add(path)
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, set()).add(path)
    unused = []
    for name in oracleopt.__all__:
        value = getattr(oracleopt, name)
        if isinstance(value, types.ModuleType):
            continue
        found = readers.get(name, set())
        if isinstance(value, types.FunctionType):
            found = found - {Path(inspect.getfile(value))}
        if not found:
            unused.append(name)
    assert oracleopt.__all__ and unused == []
