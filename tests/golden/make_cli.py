"""Write the CLI golden transcript, tests/golden/cli.txt.

    python3 tests/golden/make_cli.py > tests/golden/cli.txt

The transcript pins what ``recip`` prints: stdout, stderr and the exit code
of every subcommand in both ``--format``s, of the usage and parse errors,
of one input past each declared limit, and of a crafted pair whose gcd the
heuristic gives up on, and last the commands of acceptance criterion 14
in the default format.  Each command runs in-process through ``cli.main``.
A block reads

    $ recip <arguments>
    1> <a stdout line>
    2> <a stderr line>
    exit <code>

with a blank line after it.  An argument longer than 120 characters is
written as its length and the start of its SHA-256; ``{tmp}`` in an
argument is a directory that holds the JSON files of ``FILES``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from recip.cli import main as cli_main  # noqa: E402
from recip.laurent import int_product_sum  # noqa: E402


def crafted_pair(k: int, seed: int = 0, common: dict[int, int] | None = None) -> tuple[dict, dict]:
    """Primitive int maps (f, g) whose gcd defeats all six tries of the
    heuristic gcd.  f is monic of degree k with coefficients in ±{1, 2, 3},
    and g = f + M·Q with deg Q = k − 1 and M the product of f(xi) over the
    six points xi that the heuristic tries.  So gcd(f(xi), g(xi)) = f(xi) at
    each point, the candidate read from it is f, and f never divides g.
    A monic ``common`` multiplies f and Q, so it divides the gcd."""
    rng = random.Random(seed)
    digits = (-3, -2, -1, 1, 2, 3)
    f = {e: rng.choice(digits) for e in range(k)}
    f[k] = 1
    q = {e: rng.choice(digits) for e in range(k)}
    if common:
        f, q = int_product_sum([(1, f, common)]), int_product_sum([(1, q, common)])
    xi = 2 * max(map(abs, f.values())) + 29  # g's norm is the larger one
    m = 1
    for _ in range(6):
        m *= sum(c * xi**e for e, c in f.items())
        xi = xi * 73794 // 27011
    return f, int_product_sum([(1, f, {0: 1}), (m, q, {0: 1})])


def crafted_text(k: int, common: dict[int, int] | None = None) -> str:
    """The quotient f/g of ``crafted_pair(k, 0, common)`` in the parse grammar."""
    f, g = crafted_pair(k, 0, common)
    f_text, g_text = (" + ".join(f"{c}*X^{e}" for e, c in sorted(p.items())) for p in (f, g))
    return f"({f_text})/({g_text})"


FILES = {
    "semigroup.json": {"generators": [4, 7, 9]},
    "bad-generators.json": {"generators": "x"},
    "monoid.json": {"rank": 2, "generators": [[1, 0], [0, 1]], "families": []},
}
# The contents of a file that is not JSON.
BROKEN = {"broken.json": "{"}

GENS = ("--gens", "4,7,9")

# Each command runs in both formats.
COMMANDS = [
    ("semigroup", *GENS),
    ("semigroup", "--gens", "3,5"),
    ("semigroup", "--file", "{tmp}/semigroup.json"),
    ("sprime", *GENS),
    ("sprime", "--gens", "11,13,17"),
    ("member", *GENS, "--expr", "1/X^4 + 1/X^7"),
    ("member", *GENS, "--expr", "1/(1 - X)"),
    ("member", *GENS, "--expr", "X/(1 + X)"),
    ("member", *GENS, "--expr", "-X"),
    ("member", "--gens", "3,5", "--expr", "X^5/(X^2 + 2)"),
    ("recip-member", *GENS, "--expr", "1/X^4 + 1/X^7"),
    ("recip-member", *GENS, "--expr", "1/(1 - X^4)"),
    ("recip-member", "--gens", "3,5", "--expr", "1/(X^3 + 2*X^5)"),
    ("valuation", "--expr", "X^2/(1 + X)"),
    ("valuation", "--expr", "0"),
    ("valuation", "--rank", "2", "--expr", "X^(1,-2) + X^(0,3)"),
    ("valuation", "--rank", "3", "--expr", "X^(0,1,-1)/(X^(0,0,2) - 1)"),
    ("divide", "--a", "X^3 + 1", "--b", "X + 1"),
    ("divide", "--a", "X^4 - 2*X + 1/2", "--b", "2*X^2 + 3"),
    ("dimension", *GENS),
    ("dimension", "--file", "{tmp}/monoid.json"),
    ("dimension", "--monoid", json.dumps(FILES["monoid.json"])),
    ("thm56", "--n", "4", "--m", "2"),
    ("kplusm", "--n", "2", "--expr", "5 + (X/(X^2+1))*Y^-1"),
    ("kplusm", "--n", "2", "--expr", "1/X"),
    ("kplusm", "--n", "3", "--expr", "1/(Y + X2 + X3)"),
    ("egyptian", "4/5"),
    ("egyptian", "5/121"),
    ("oracle", *GENS, "--expr", "1/X^4 + 1/X^7", "--max-terms", "2", "--max-degree", "8", "--coeffs", "1,-1",
     "--seed", "7"),
    ("oracle", *GENS, "--expr", "1/(X^4 + X^7)", "--coeffs", "1"),
    ("oracle", *GENS, "--expr", "1/(X+1)", "--max-terms", "2", "--trials", "20", "--seed", "3"),
    ("oracle", "--gens", "1", "--expr", "1/(1+X) + 1/(1-X^2)", "--max-terms", "2", "--max-degree", "2",
     "--seed", "5"),
    ("oracle", "--gens", "2,3", "--expr", "1/(X^2 + X^3) + 1/X^4", "--max-degree", "6", "--seed", "5"),
]

# Usage and parse errors, one input past each declared limit and the crafted
# gcd pairs, in the default format only.
ONCE = [
    (),
    ("bogus",),
    ("semigroup",),
    ("semigroup", *GENS, "--file", "{tmp}/semigroup.json"),
    ("--format", "xml", "semigroup", *GENS),
    ("member", *GENS),
    ("thm56", "--n", "x", "--m", "1"),
    ("member", *GENS, "--expr", "1/(X"),
    ("member", *GENS, "--expr", "X^"),
    ("member", *GENS, "--expr", "1/0"),
    ("semigroup", "--gens", "4,6"),
    ("semigroup", "--gens", "4,x"),
    ("sprime", "--file", "{tmp}/bad-generators.json"),
    ("sprime", "--file", "{tmp}/broken.json"),
    ("sprime", "--file", "does-not-exist.json"),
    ("dimension", "--monoid", "{"),
    ("valuation", "--rank", "2", "--expr", "X^(1,2,3)"),
    ("egyptian", "3/2"),
    ("oracle", *GENS, "--expr", "1/X^4", "--coeffs", "0"),
    # recip.semigroup.MAX_CONDUCTOR
    ("semigroup", "--gens", "2,10003"),
    # recip.laurent.MAX_RANK
    ("valuation", "--rank", "1001", "--expr", "1"),
    # recip.parse.MAX_NESTING
    ("member", *GENS, "--expr", "(" * 101 + "X" + ")" * 101),
    # recip.laurent.MAX_DEGREE
    ("member", *GENS, "--expr", "(X^100000000 + 1)/(X + 2)"),
    # recip.parse.MAX_POWER_SIZE
    ("member", *GENS, "--expr", "(X+1)^3000"),
    # recip.dimension.MAX_FREE_SHIFT_RANK
    ("thm56", "--n", "101", "--m", "1"),
    # recip.membership.MAX_SEARCH_SIZE
    ("oracle", *GENS, "--expr", "1/X^4", "--max-terms", "17"),
    # recip.egyptian.MAX_DENOMINATOR_DIGITS
    ("egyptian", "999999999999/1000000000000"),
    # a gcd on which the heuristic gives up and Euclid answers
    ("member", *GENS, "--expr", crafted_text(40)),
    ("recip-member", *GENS, "--expr", crafted_text(40)),
    ("member", *GENS, "--expr", crafted_text(40, {0: 1, 1: -1, 3: 1})),
]


# The commands of acceptance criterion 14, in the default format.
DEFAULT_FORMAT = [
    ("sprime", *GENS),
    ("semigroup", *GENS),
    ("member", *GENS, "--expr", "X^10"),
    ("member", *GENS, "--expr", "X^5"),
    ("recip-member", *GENS, "--expr", "1/(X^4-1) + 1/X^7"),
    ("valuation", "--rank", "2", "--expr", "(X^(1,0) + X^(1,2))/X^(0,1)"),
    ("divide", "--a", "X^3", "--b", "X^2+1"),
    ("dimension", *GENS),
    ("thm56", "--n", "2", "--m", "1"),
    ("kplusm", "--n", "2", "--expr", "5 + (X/(X^2+1))*Y^-1"),
    ("egyptian", "4/5"),
    ("oracle", *GENS, "--expr", "1/X^4 + 1/X^7", "--seed", "11"),
]


def argv_text(argv: tuple[str, ...]) -> str:
    shown = []
    for arg in argv:
        if len(arg) > 120:
            arg = f"<{len(arg)} chars, sha256 {hashlib.sha256(arg.encode()).hexdigest()[:16]}>"
        shown.append(arg)
    return shlex.join(["recip", *shown])


def run(argv: tuple[str, ...], tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([arg.replace("{tmp}", tmp) for arg in argv])
    lines = [f"$ {argv_text(argv)}"]
    lines += [f"1> {line}" for line in out.getvalue().splitlines()]
    lines += [f"2> {line}" for line in err.getvalue().splitlines()]
    lines.append(f"exit {code}")
    return "\n".join(lines) + "\n\n"


def transcript() -> str:
    """The whole transcript, as written to tests/golden/cli.txt."""
    cases = [(f, *argv) for argv in COMMANDS for f in ("--format=json", "--format=plain")] + ONCE + DEFAULT_FORMAT
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in FILES.items():
            Path(tmp, name).write_text(json.dumps(content), encoding="utf-8")
        for name, content in BROKEN.items():
            Path(tmp, name).write_text(content, encoding="utf-8")
        return "".join(run(argv, tmp) for argv in cases)


if __name__ == "__main__":
    sys.stdout.write(transcript())
