"""Count the code lines of Python modules: no docstrings, comments or blank lines.

A line counts when a token other than a comment, a line break or an
indentation change starts or runs on it, and it is not part of a module,
class or function docstring (found with `ast`).  A string that spans lines
counts every line it covers.

    python tools/code_lines.py src/ldcflow

prints one row per module and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    root = Path(argv[0])
    rows = [(str(p.relative_to(root)), code_lines(p.read_text(encoding="utf-8"))) for p in sorted(root.rglob("*.py"))]
    width = max((len(name) for name, _ in rows), default=5)
    for name, count in rows:
        print(f"{name:<{width}}  {count:>6}")
    print(f"{'total':<{width}}  {sum(count for _, count in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
