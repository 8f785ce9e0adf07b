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


def test_every_declared_limit_is_in_the_readme():
    # Each module-level MAX_* constant is a declared limit, listed by its
    # dotted name in README's "Limits and exit codes" section.
    readme = (SOURCE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Limits and exit codes", 1)[1].split("\n#", 1)[0]
    limits = [
        f"recip.{path.stem}.{target.id}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    ]
    missing = [name for name in limits if f"`{name}`" not in section]
    assert len(limits) >= 4 and not missing, missing
