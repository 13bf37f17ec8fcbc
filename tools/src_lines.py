"""Print the total and code line counts of ``src/``.

A code line is one that is not blank, not only a comment and not part of a
docstring (the leading string of a module, class or function). Run from
anywhere: ``python tools/src_lines.py [DIR]``; ``DIR`` defaults to the
repo's ``src/``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _docstring_lines(tree):
    """Line numbers covered by the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    lines = text.splitlines()
    doc = _docstring_lines(ast.parse(text))
    code = sum(
        1 for number, line in enumerate(lines, start=1)
        if number not in doc and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        t, c = count(path)
        total += t
        code += c
    print(f"src lines: {total}")
    print(f"code lines: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
