"""`python -O` strips `assert` statements, so the package raises its
integrity errors explicitly; this keeps any `assert` out of it. It keeps
`raise AssertionError` out too: integrity errors are `ValueError` or
`RuntimeError`, which callers can tell apart from a failing test."""

import ast
from pathlib import Path

import twochoice


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    paths = sorted(Path(twochoice.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion_error(node))
    ]
    assert found == []
