"""Source-level checks on the library package."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "recip"


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so none may guard a library result.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCE.is_dir() and not found, found
