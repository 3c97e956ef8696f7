"""An import that nothing reads is dead weight: every name that an import
binds in `src/twochoice/*.py` or `tests/*.py` must be read, as a name, in
the same module. `from __future__` imports bind nothing."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused(source):
    """(line, name) of each imported name that no `ast.Name` reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_unused_sees_every_binding_form():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nprint(b)\n"
    assert list(_unused(source)) == [(1, "os"), (2, "p"), (3, "d")]


def test_every_imported_name_is_read():
    paths = sorted((ROOT / "src" / "twochoice").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert paths
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in paths for line, name in _unused(path.read_text())]
    assert unused == []
