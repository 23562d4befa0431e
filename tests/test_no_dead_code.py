"""Every function, class and method in the package is reached from outside the tests.

A name counts as used when ``src/``, ``scripts/`` or ``bench/`` refer to it
as a name, an attribute, an imported name, a keyword argument, or a
``pyproject.toml`` entry point.  Dunder methods are called by Python itself
and are exempt.  The check is by name, so it misses a dead definition that
shares its name with a live one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "snopt_kit"


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions():
    for path, tree in _trees("src/snopt_kit"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name


def _references():
    names = set()
    for _, tree in _trees("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
    pyproject = (ROOT / "pyproject.toml").read_text()
    names.update(re.findall(r'=\s*"[\w.]+:(\w+)"', pyproject))
    return names


def test_no_unreferenced_definitions():
    used = _references()
    dead = [where for where, name in _definitions() if name not in used]
    assert dead == [], "defined in src/ but referenced only by tests (or nowhere): " + ", ".join(dead)
