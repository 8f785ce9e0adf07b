"""Source-level checks on the library package."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
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


def test_every_traced_name_resolves():
    # bench/tracer.py patches library functions and methods by name, so a
    # rename would break `bench/run.py --trace 1`.  run_path compiles the
    # file without importing it or writing bytecode.
    tracer = runpy.run_path(str(SOURCE.parent.parent / "bench" / "tracer.py"))
    missing = [
        f"{module}.{attr}"
        for module, attr in tracer["FUNCTIONS"].values()
        if not callable(getattr(importlib.import_module(f"recip.{module}"), attr, None))
    ] + [
        f"{module}.{cls}.{attr}"
        for module, cls, attr in tracer["METHODS"].values()
        if attr not in vars(getattr(importlib.import_module(f"recip.{module}"), cls, object))
    ]
    assert tracer["FUNCTIONS"] and tracer["METHODS"] and not missing, missing


def test_every_top_level_import_is_used():
    # A name imported at module level and never read is a leftover of a
    # deletion.  __init__.py imports to re-export, and __future__ imports
    # are compiler directives, so both are exempt.
    unused = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert SOURCE.is_dir() and not unused, unused


def test_no_generator_is_a_starred_argument():
    # f(*(x for x in xs)) builds its argument tuple at a guessed size and
    # resizes it, so the tuple is freed to another size's free list; over
    # many calls the free lists of every size fill with idle tuples.  A list
    # has its size before the tuple is built.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        for arg in node.args
        if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp)
    ]
    assert SOURCE.is_dir() and not found, found


def test_no_tuple_is_built_from_a_generator():
    # tuple(x for x in xs) builds its tuple at a guessed size and resizes
    # it, so the tuple is freed to another size's free list; over many calls
    # the free lists of every size fill with idle tuples.  A list has its
    # size before the tuple is built.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    ]
    assert SOURCE.is_dir() and not found, found


RE_IMPORT = """
import gc, importlib, pkgutil, sys, weakref

def load():
    for name in [m for m in sys.modules if m == "recip" or m.startswith("recip.")]:
        del sys.modules[name]
    package = importlib.import_module("recip")
    for module in pkgutil.iter_modules(package.__path__):
        if module.name != "__main__":
            importlib.import_module(f"recip.{module.name}")
    return package.laurent.LaurentPolynomial

old = weakref.ref(load())
load()
gc.collect()
print(old() is None)
"""


def test_a_re_imported_package_frees_the_old_one():
    # Nothing process-wide (a typing cache, say) may keep a class of an old
    # import alive, so that re-importing recip does not pile up copies.
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", RE_IMPORT], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "True"


def test_ratfunc_has_one_rank_test():
    # Every rank holds the one integer form, so no RationalFunction method
    # may branch on the rank or on a missing form.  The one rank test left
    # is the gcd condition of _normal_form: only rank 1 divides out a gcd.
    def is_rank(node):
        return isinstance(node, ast.Name) and node.id == "rank" or (
            isinstance(node, ast.Attribute) and node.attr == "rank"
        )

    def is_ints(node):
        return isinstance(node, ast.Attribute) and node.attr == "_ints"

    def tests(function):
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                constants = [o.value for o in operands if isinstance(o, ast.Constant)]
                if any(map(is_rank, operands)) and constants:
                    yield f"{function.name}:{node.lineno} compares rank"
                if any(map(is_ints, operands)) and None in constants:
                    yield f"{function.name}:{node.lineno} tests _ints for None"

    tree = ast.parse((SOURCE / "ratfunc.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RationalFunction"]
    methods = [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    found = [line for function in methods + functions for line in tests(function)]
    assert len(methods) > 20 and [line.split(":")[0] for line in found] == ["_normal_form"], found


def test_membership_builds_no_sigma_image_and_solve_affine_no_fraction():
    # in_reciprocal_complement reads sigma(r)'s low terms off r's integer
    # form, so membership.py never calls sigma_map; solve_affine hands back
    # integer numerators over one denominator, so it builds no Fraction.
    def calls(node, name):
        return [
            f"{call.lineno}"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]

    membership = ast.parse((SOURCE / "membership.py").read_text(encoding="utf-8"))
    linsolve = ast.parse((SOURCE / "linsolve.py").read_text(encoding="utf-8"))
    (solve,) = [node for node in linsolve.body if isinstance(node, ast.FunctionDef) and node.name == "solve_affine"]
    assert calls(membership, "solve_affine") and calls(linsolve, "Fraction")  # the walk sees calls
    assert calls(membership, "sigma_map") == [], calls(membership, "sigma_map")
    assert calls(solve, "Fraction") == [], calls(solve, "Fraction")


def test_only_monoid_validation_reads_leading_indices():
    # LexMonoid.__post_init__ reads each generator's and family base's
    # leading index once and keeps it; every stratum reader takes the kept
    # index, so no other code in the package calls _leading_index.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        scopes += [
            (f"{path.stem}.{cls.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        found += [
            f"{scope}.{function.name}"
            for scope, function in scopes
            for call in ast.walk(function)
            if isinstance(call, ast.Call)
            and "_leading_index" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]
    assert set(found) == {"dimension.LexMonoid.__post_init__"}, found
