"""Count code lines in Python source, per module and in total.

A code line is a non-blank line that holds a token other than a comment,
outside a module, class or function docstring. Usage:

    python3 tools/code_lines.py [PATH ...]     # default: src

Each PATH is a .py file or a directory searched for them; the output is one
"lines  module" row per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    text = source.splitlines()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in lines - skip if text[n - 1].strip())


def main(argv: list[str]) -> int:
    files: list[Path] = []
    for arg in argv or ["src"]:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    total = 0
    for path in files:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
