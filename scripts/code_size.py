#!/usr/bin/env python3
"""Count the lines of code of the library: lines that hold a token of code,
not blank lines, comments or docstrings, per file and in total.

    python scripts/code_size.py [FILE ...]

Without arguments it counts src/frame_lab/*.py and scripts/certify_all.py.
A line counts once however many tokens it holds, and a token that spans
lines (a multi-line string or call) counts every line it spans. A docstring
is the string expression that opens a module, class or function body.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILES = [
    *sorted((ROOT / "src" / "frame_lab").glob("*.py")),
    ROOT / "scripts" / "certify_all.py",
]
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    source = path.read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    files = [Path(a) for a in argv] or DEFAULT_FILES
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        name = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
