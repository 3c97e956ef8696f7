"""The package's potentials call `math.exp`, never numpy's `exp`. On hosts
where numpy dispatches to AVX-512 kernels, `np.exp` differs from `math.exp`
in the last bit on a few percent of inputs, so a potential priced with it
would change the frozen trajectory digests from one machine to the next.
This keeps any reference to numpy's `exp` (`np.exp`, `numpy.exp`, or an
imported `exp` from numpy) out of `src/twochoice`."""

import ast
from pathlib import Path

import twochoice


def _numpy_exp_uses(tree) -> list[int]:
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname or a.name for a in node.names if a.name == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "exp"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy")
              and any(a.name == "exp" for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_package_never_calls_numpy_exp():
    paths = sorted(Path(twochoice.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{line}" for path in paths
             for line in _numpy_exp_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_guard_sees_numpy_exp():
    tree = ast.parse("import numpy as np\nfrom numpy import exp\ny = np.exp(x)\nz = math.exp(x)\n")
    assert sorted(_numpy_exp_uses(tree)) == [2, 3]
