"""Count the code lines of each src/recip module and their total.

    python3 tools/code_lines.py [package directory]

A code line holds at least one token that is not a comment, a docstring or
layout (newlines, indentation), as Python's tokenize reads it.  A docstring
is the string that opens a module, class or function body.  Blank lines,
comment lines and docstring lines do not count.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(source)
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in LAYOUT:
                lines.update(n for n in range(token.start[0], token.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "recip"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:<16} {count:>6,}")
    print(f"{'total':<16} {total:>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
