"""Count code lines: lines that are not blank, comments or docstrings.

    python tests/code_lines.py [PATH ...]

Each PATH is a Python file or a directory searched for `*.py` files
(default: src/induced_trees).  Prints each file's count and each PATH's
total.  A line counts when it holds a token other than a comment or a
line break; the lines of a module's, class's or function's docstring do
not count.  pytest does not collect this file: its name has no `test_`
prefix.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    text = path.read_text(encoding="utf-8")
    with path.open("rb") as f:
        lines = {
            line
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in _LAYOUT
            for line in range(tok.start[0], tok.end[0] + 1)
        }
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = Path(__file__).resolve().parent.parent / "src" / "induced_trees"
    for path in [Path(p) for p in argv] or [package]:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        counts = [(code_lines(f), f) for f in files]
        for count, f in counts:
            print(f"{count:6d}  {os.path.relpath(f)}")
        print(f"{sum(count for count, _ in counts):6d}  total in {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
