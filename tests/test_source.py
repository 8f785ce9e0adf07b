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


def test_no_raise_system_exit_in_the_library():
    # Usage errors come from argparse or from a library check, which the CLI
    # reports with the argument or the check named; a bare SystemExit names
    # neither.
    def is_system_exit(exc):
        target = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(target, ast.Name) and target.id == "SystemExit"

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Raise) and node.exc is not None and is_system_exit(node.exc)
    ]
    assert SOURCE.is_dir() and not found, found
