"""`python -O` strips `assert` statements, so the package raises its
integrity errors explicitly; this keeps any `assert` out of it."""

import ast
from pathlib import Path

import twochoice


def test_package_has_no_assert_statements():
    paths = sorted(Path(twochoice.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
