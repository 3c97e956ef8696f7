"""Public API that no run calls is dead weight: every public module-level
function or class, and every public method, in `src/twochoice/*.py` must be
named somewhere in `src/` or `perfbench/` other than where it is defined.
A name counts when its word occurs in the code or string literals of those
files more often than functions and classes of that name are defined.
Comments and docstrings do not count, and neither do tests. Defaulted
parameters must be passed by some run, and every dataclass field must be
read by some code, tests included."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# oracles that the acceptance criteria read, though no run calls them
ALLOWED = {
    "one_plus_beta_probabilities",   # criterion 03: the (1+beta) rank vector
    "ProbabilityVector.prefix_sums",  # criterion 03: its prefix sums
}


def _definitions(tree):
    """(qualified name, bare name) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item.name


def _words(tree):
    """The words of a module's identifiers and string literals. Comments are
    not in the tree; docstrings, and any other string standing alone as a
    statement, are left out."""
    prose = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in prose:
                yield from re.findall(r"\w+", node.value)
            continue
        for field in ("id", "attr", "name", "asname", "arg", "module"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                yield from re.findall(r"\w+", value)


def test_every_public_name_has_a_caller():
    package = sorted((ROOT / "src" / "twochoice").glob("*.py"))
    assert package
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))}
    defined = Counter(node.name for tree in trees.values() for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    words = Counter(word for tree in trees.values() for word in _words(tree))
    dead = [f"{path.stem}.{qualified}"
            for path in package
            for qualified, name in _definitions(trees[path])
            if words[name] <= defined[name] and qualified not in ALLOWED]
    assert dead == []


# defaulted parameters that only tests set: a seam that swaps in a schedule
ALLOWED_DEFAULTS = {
    "simulate(schedule=)",                # tests replay hand-built schedules
}


def _defaulted(tree):
    """(function, parameter, position or None) of each defaulted parameter of
    a public module-level function, public method or `__init__`; an
    `__init__` is called by its class name, and a method's position leaves
    out `self`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            funcs = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef):
            funcs = [(node.name if item.name == "__init__" else item.name, item, 1)
                     for item in node.body if isinstance(item, ast.FunctionDef)]
        else:
            continue
        for name, func, skip in funcs:
            if name.startswith("_"):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for k, arg in enumerate(positional[first:], first - skip):
                yield name, arg.arg, k
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def _passes(call, param, position):
    """Whether a call sets the parameter by name or by position."""
    if any(kw.arg in (param, None) for kw in call.keywords):   # None: **kwargs
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args[:position + 1]))


def test_every_defaulted_parameter_is_passed():
    package = sorted((ROOT / "src" / "twochoice").glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in package + sorted((ROOT / "perfbench").glob("*.py"))]
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    unset = [f"{name}({param}=)"
             for tree in trees[:len(package)]
             for name, param, position in _defaulted(tree)
             if not any(callee(c) == name and _passes(c, param, position) for c in calls)]
    # both ways: a seam that a run starts to set leaves the allow-list
    assert sorted(set(unset) ^ ALLOWED_DEFAULTS) == []


def _is_dataclass(decorator):
    return getattr(decorator, "id", None) == "dataclass" or (
        isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "dataclass")


def test_every_dataclass_field_is_read():
    # a field counts as read when an attribute of its name is loaded anywhere
    # in src/, perfbench/ or tests/; a field that is only ever set, or that
    # echoes an input, is dead weight
    package = sorted((ROOT / "src" / "twochoice").glob("*.py"))
    readers = package + sorted((ROOT / "perfbench").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    loaded = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [(f"{path.stem}.{node.name}", item.target.id)
              for path in package for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert fields
    assert [f"{cls}.{name}" for cls, name in fields if name not in loaded] == []
