import ast
from pathlib import Path

import oracleopt


def test_sources_hold_no_assert_statements():
    # Invariants must raise explicit errors: `python -O` strips asserts.
    found = []
    for path in sorted(Path(oracleopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
