"""Raw PCG64 words are read in `rng.py` alone. `WordStream` redoes numpy's
word arithmetic there, and `tests/test_rng.py` pins it against the scalar
`Generator` calls; a second copy elsewhere would go unpinned. This keeps
every call of `random_raw` or `bit_generator.advance` out of the other
modules of `src/twochoice`."""

import ast
from pathlib import Path

import twochoice


def _raw_word_calls(tree) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name, owner = node.func.attr, node.func.value
        if name == "random_raw" or (name == "advance" and isinstance(owner, ast.Attribute)
                                    and owner.attr == "bit_generator"):
            lines.append(node.lineno)
    return lines


def test_only_rng_reads_raw_words():
    paths = sorted(Path(twochoice.__file__).parent.glob("*.py"))
    assert "rng.py" in [path.name for path in paths]
    found = [f"{path.name}:{line}" for path in paths if path.name != "rng.py"
             for line in _raw_word_calls(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_guard_sees_raw_word_calls():
    tree = ast.parse("words = rng.bit_generator.random_raw(8)\nbitgen.random_raw()\n"
                     "rng.bit_generator.advance(3)\nclock.advance(3)\nrng.integers(0, 4)\n")
    assert _raw_word_calls(tree) == [1, 2, 3]
