"""
Count the non-doc code lines of a Python package: the lines that hold a
token other than a comment, and that are not part of a docstring (the
first statement of a module, class or function, when it is a string).

    python tools/count_lines.py [src/tmsm]

prints one line per file and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/tmsm")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = count(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  non-doc code lines in {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
