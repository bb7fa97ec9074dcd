"""Rules on the package source itself."""

import ast
from pathlib import Path

import predegree


def test_no_assert_statements_in_package():
    # Invariants must raise real exceptions: `python -O` strips assert.
    paths = sorted(Path(predegree.__file__).parent.glob("*.py"))
    assert paths
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
