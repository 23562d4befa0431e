"""States are ``(batch, m)`` everywhere in the package.

No module promotes a bare ``(m,)`` state to a batch with
``np.atleast_1d``/``np.atleast_2d`` (and squeezes the result back), so a
second, single-sample code path cannot come back unnoticed.  The dense
references take a batch of one instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "snopt_kit"
PROMOTERS = {"atleast_1d", "atleast_2d"}


def test_no_module_promotes_states():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else (
                node.name if isinstance(node, ast.alias) else None)
            if name in PROMOTERS:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
    assert not found, f"1-D promotion in the package: {found}"
