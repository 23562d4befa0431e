"""Print the code lines of each ``src/snopt_kit`` module and their total.

A code line is a physical line that holds a token of code: blank lines,
comment lines and the lines of docstrings (a module's, a class's or a
function's first statement, when it is a string) are left out.  Each line
of a statement that spans lines counts, the lines inside a multi-line
string that is not a docstring too.

Usage: python scripts/code_lines.py [SRC_DIR]   (default src/snopt_kit)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", type=Path, default=ROOT / "src" / "snopt_kit")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<20} {n:>5}")
    print(f"{'total':<20} {total:>5}")


if __name__ == "__main__":
    main()
