"""Every function, class and method in the package is reached from outside the tests.

A name counts as used when ``src/``, ``scripts/`` or ``bench/`` refer to it
as a name, an attribute, an imported name, a keyword argument, or a
``pyproject.toml`` entry point.  A method or property defined in a class
body counts as used only when they refer to it as an attribute, so a local
variable or parameter of the same name does not keep it alive.  Dunder
methods are called by Python itself and are exempt.  The check is by name,
so it misses a dead definition that shares its name with a live one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snopt_kit"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    """(where, name, is_method) for every non-dunder definition in the package."""
    for path, tree in _trees("src/snopt_kit"):
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, _DEFS)}
        for node in ast.walk(tree):
            if isinstance(node, _DEFS):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield (f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name,
                           id(node) in methods)


def _references():
    """Names referred to in any way, and names referred to as attributes."""
    names, attributes = set(), set()
    for _, tree in _trees("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    pyproject = (ROOT / "pyproject.toml").read_text()
    names.update(re.findall(r'=\s*"[\w.]+:(\w+)"', pyproject))
    return names | attributes, attributes


def test_no_unreferenced_definitions():
    used, attributes = _references()
    dead = [where for where, name, is_method in _definitions()
            if name not in (attributes if is_method else used)]
    assert dead == [], "defined in src/ but referenced only by tests (or nowhere): " + ", ".join(dead)
