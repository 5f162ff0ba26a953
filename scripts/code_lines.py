#!/usr/bin/env python3
"""Count the code lines of each `smoothntt` module, without docstrings, comments or blanks.

A physical line counts when it holds part of a token other than a comment
or a docstring, so a statement split over two lines counts twice.  A
docstring is a string literal standing alone as the first statement of a
module, class or function.  Prints one "<lines> <module>" row per module of
`src/smoothntt`, then the total:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "smoothntt"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Physical lines of `source` holding code that is not a comment or docstring."""
    skip = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.name}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
